"""Exchange-style partitioned assembly (the Section 7 plan shape)."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.storage.costmodel import CostedDisk
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.volcano.exchange import PartitionedExecute
from repro.workloads.acob import generate_acob, make_template


def replica_stores(db, n, disk_class=SimulatedDisk):
    """``n`` fresh stores, each holding the same layout of ``db``."""
    stores = []
    for _ in range(n):
        store = ObjectStore(disk_class())
        layout_database(
            db.complex_objects,
            store,
            InterObjectClustering(cluster_pages=32),
            shared=db.shared_pool,
        )
        stores.append(store)
    return stores


def test_partitioned_execute_runs_assembly_fragments():
    """Assembly slots into exchange's plan shape like any operator —
    'parallelism is encapsulated in Volcano … it can be used for all
    existing operators without changing their code'."""
    db = generate_acob(36, seed=18)
    disk = SimulatedDisk()
    store = ObjectStore(disk)
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=32),
        shared=db.shared_pool,
    )

    plan = PartitionedExecute(
        rows=layout.root_order,
        n_partitions=3,
        fragment=lambda source: Assembly(
            source, store, make_template(db), window_size=4
        ),
    )
    emitted = plan.execute()
    assert len(emitted) == 36
    assert {c.root_oid for c in emitted} == set(layout.roots)
    for cobj in emitted:
        cobj.verify_swizzled()
    assert store.buffer.pinned_pages == 0


def test_partitioned_assembly_shares_nothing_across_fragments():
    """Each fragment has its own shared table: partitioning reintroduces
    duplicate loads of shared components — Section 5's reason three for
    caring about sharing under partitioned parallelism."""
    db = generate_acob(30, sharing=0.25, seed=19)

    def run(n_partitions):
        disk = SimulatedDisk()
        store = ObjectStore(disk)
        layout = layout_database(
            db.complex_objects,
            store,
            InterObjectClustering(cluster_pages=32),
            shared=db.shared_pool,
        )
        operators = []

        def fragment(source):
            op = Assembly(
                source, store, make_template(db, sharing=0.25), window_size=4
            )
            operators.append(op)
            return op

        plan = PartitionedExecute(
            rows=layout.root_order, n_partitions=n_partitions,
            fragment=fragment,
        )
        emitted = plan.execute()
        assert len(emitted) == 30
        return sum(op.stats.fetches for op in operators)

    single = run(1)
    partitioned = run(3)
    # Shared components referenced from several partitions load once
    # per partition instead of once overall.
    assert partitioned >= single


def test_indexed_fragments_bind_partition_local_replicas():
    """``fragment(source, index)`` gives each partition its own store.

    The exchange operator passes the partition number to fragments that
    accept it, so shard-local plans can read from their own replica —
    no shared disk, every replica actually serving pages."""
    from repro.volcano.assembly import AssemblyOperator

    db = generate_acob(24, seed=21)
    disk = SimulatedDisk()
    store = ObjectStore(disk)
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=32),
        shared=db.shared_pool,
    )
    replicas = replica_stores(db, 3)

    seen_indexes = []

    def fragment(source, index):
        seen_indexes.append(index)
        return AssemblyOperator(
            source, replicas[index], make_template(db), window_size=2
        )

    plan = PartitionedExecute(
        rows=layout.root_order, n_partitions=3, fragment=fragment
    )
    emitted = plan.execute()
    assert len(emitted) == 24
    assert seen_indexes == [0, 1, 2]
    assert {c.root_oid for c in emitted} == set(layout.root_order)
    for replica in replicas:
        assert replica.disk.stats.reads > 0
    assert store.disk.stats.reads == 0  # the original store was not touched


# -- differential anchors: the exchange wrappers against the operator ------
#
# InterleavedAssemblies and ParallelAssembly are PartitionedExecute plus a
# fragment; these two cases pin that equivalence down to the per-read
# seek history, whichever way the wrappers are built.


def _disk_stats(disk):
    stats = disk.stats
    return (
        stats.reads,
        stats.read_seek_total,
        stats.pages_read,
        stats.run_reads,
        list(stats.read_seeks),
    )


@pytest.mark.parametrize("n_partitions", [1, 2, 4, 8])
def test_interleaved_assemblies_equal_partitioned_execute(n_partitions):
    from repro.bench.harness import ExperimentConfig, build_layout
    from repro.volcano.assembly import InterleavedAssemblies

    window = 48
    config = ExperimentConfig(
        n_complex_objects=400,
        clustering="inter-object",
        scheduler="elevator",
        window_size=window,
        cluster_pages=64,
    )

    db, layout = build_layout(config)
    wrapper = InterleavedAssemblies(
        layout.root_order, layout.store, make_template(db),
        n_partitions=n_partitions, window_size=window,
    )
    wrapper_roots = [cobj.root_oid for cobj in wrapper.execute()]
    wrapper_stats = _disk_stats(layout.store.disk)

    db, layout = build_layout(config)
    store, template = layout.store, make_template(db)
    plan = PartitionedExecute(
        layout.root_order,
        n_partitions,
        lambda source: Assembly(
            source, store, template,
            window_size=max(1, window // n_partitions),
        ),
    )
    plan_roots = [cobj.root_oid for cobj in plan.execute()]

    assert len(wrapper_roots) == 400
    assert wrapper_roots == plan_roots
    assert wrapper_stats == _disk_stats(store.disk)
    assert store.buffer.pinned_pages == 0


@pytest.mark.parametrize("n_partitions", [1, 3])
def test_parallel_assembly_equals_partitioned_execute_over_replicas(
    n_partitions,
):
    from repro.volcano.assembly import ParallelAssembly
    from repro.iterator import ListSource

    db = generate_acob(60, seed=23)
    template = make_template(db)

    def replicas():
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects,
            store,
            InterObjectClustering(cluster_pages=32),
            shared=db.shared_pool,
        )
        return layout.root_order, replica_stores(db, n_partitions, CostedDisk)

    roots, wrapper_replicas = replicas()
    wrapper = ParallelAssembly(
        ListSource(roots),
        wrapper_replicas,
        template,
        window_size=4,
    )
    wrapper_rows = [cobj.root_oid for cobj in wrapper.execute()]

    roots, plan_replicas = replicas()
    plan = PartitionedExecute(
        roots,
        n_partitions,
        lambda source, index: Assembly(
            source, plan_replicas[index], template, window_size=4
        ),
    )
    plan_rows = [cobj.root_oid for cobj in plan.execute()]

    assert len(wrapper_rows) == 60
    assert wrapper_rows == plan_rows
    for mine, theirs in zip(wrapper_replicas, plan_replicas):
        assert _disk_stats(mine.disk) == _disk_stats(theirs.disk)
    elapsed = max(replica.disk.service_time_total for replica in plan_replicas)
    assert elapsed > 0
    assert wrapper.elapsed_ms() == elapsed
