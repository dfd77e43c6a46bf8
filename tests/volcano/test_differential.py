"""Differential conformance: plans with AssemblyOperator ≡ the bare driver.

The tentpole property pinning the composable assembly operator: for
*any* plan containing :class:`~repro.volcano.assembly.AssemblyOperator`
— under any scheduler, clustering, window size, partition count and
fault rate — the plan produces rows multiset-identical to driving the
bare :class:`~repro.core.assembly.Assembly` engine directly and
applying the equivalent in-memory algebra to its output, and the
plan's store accumulates **bit-identical** :class:`DiskStats`.  The
operators above assembly touch no pages, and the operator wrapper is
the same engine behind the same code path, so any drift localizes a
real behavioural change.
"""

from __future__ import annotations

import functools
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import make_policy
from repro.core.assembly import Assembly
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.store import ObjectStore
from repro.volcano.aggregate import HashAggregate
from repro.volcano import assembly as volcano_assembly
from repro.volcano.assembly import AssemblyOperator, ParallelAssembly
from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource
from repro.volcano.joins import HashJoin
from repro.volcano.plan import validate_plan
from repro.volcano.sort import ExternalSort
from repro.workloads.acob import generate_acob, make_template, payload_predicate

SCHEDULERS = ("depth-first", "breadth-first", "elevator")
CLUSTERINGS = ("inter-object", "intra-object", "unclustered")
SHAPES = ("bare", "filter", "project", "sort", "aggregate", "join")


def build_store(db, clustering, fault_rate, fault_seed):
    """A laid-out store; repeated calls are bit-identical."""
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, make_policy(clustering, cluster_pages=64),
        shared=db.shared_pool,
    )
    if fault_rate > 0.0:
        FaultInjector(
            FaultConfig(
                seed=fault_seed,
                read_error_rate=fault_rate,
                max_consecutive_failures=2,
            )
        ).attach(disk)
    return store, layout


def assembly_kwargs(scheduler, window, selectivity, fault_rate):
    kwargs = dict(window_size=window, scheduler=scheduler)
    if fault_rate > 0.0:
        kwargs["retry_policy"] = RetryPolicy(max_retries=2)
    return kwargs


def make_template_for(db, selectivity):
    if selectivity is None:
        return make_template(db)
    return make_template(
        db,
        predicate_position=1,
        predicate=payload_predicate(selectivity),
    )


def stats_tuple(disk):
    """Every DiskStats counter, as one comparable value."""
    stats = disk.stats
    return (
        stats.reads,
        stats.writes,
        stats.read_seek_total,
        stats.write_seek_total,
        stats.pages_read,
        stats.run_reads,
        stats.busy_ms,
    )


def fingerprint(cobj):
    """Everything observable about one assembled complex object."""
    walk = [
        (obj.oid, obj.ints, obj.ref_oids, sorted(obj.children))
        for obj in cobj.root.walk()
    ]
    return (
        cobj.root_oid,
        cobj.fetches,
        cobj.shared_links,
        cobj.degraded,
        tuple(walk),
    )


def row_key(row):
    """Hashable identity for any row shape a tested plan emits."""
    if hasattr(row, "root_oid"):
        return fingerprint(row)
    if isinstance(row, tuple):
        return tuple(row_key(item) for item in row)
    return row


def multiset(rows):
    return Counter(repr(row_key(row)) for row in rows)


def _passes(row):
    return row.root.ints[0] % 2 == 0


BUILD_STRIDE = 3  # every third root joins, so the join is selective


def apply_reference_algebra(shape, reference_rows):
    """The in-memory equivalent of the plan algebra, on bare rows."""
    if shape == "bare":
        return reference_rows
    if shape == "filter":
        return [row for row in reference_rows if _passes(row)]
    if shape == "project":
        return [row.root_oid for row in reference_rows]
    if shape == "sort":
        return sorted(reference_rows, key=lambda row: repr(row.root_oid))
    if shape == "aggregate":
        counts = Counter(row.object_count() for row in reference_rows)
        return [(key, count) for key, count in counts.items()]
    if shape == "join":
        build = [
            (row.root_oid, index)
            for index, row in enumerate(reference_rows)
            if index % BUILD_STRIDE == 0
        ]
        table = {}
        for item in build:
            table.setdefault(item[0], []).append(item)
        out = []
        for row in reference_rows:
            for item in table.get(row.root_oid, []):
                out.append((row, item))
        return out
    raise AssertionError(shape)


def build_plan(shape, operator, reference_rows):
    """The algebra under test, composed over the assembly operator."""
    if shape == "bare":
        return operator
    if shape == "filter":
        return Filter(operator, _passes)
    if shape == "project":
        return Project(operator, lambda row: row.root_oid)
    if shape == "sort":
        return ExternalSort(operator, key=lambda row: repr(row.root_oid))
    if shape == "aggregate":
        return HashAggregate(
            operator,
            group_key=lambda row: row.object_count(),
            init=lambda: 0,
            step=lambda acc, _row: acc + 1,
        )
    if shape == "join":
        build = [
            (row.root_oid, index)
            for index, row in enumerate(reference_rows)
            if index % BUILD_STRIDE == 0
        ]
        return HashJoin(
            build=ListSource(build),
            probe=operator,
            build_key=lambda item: item[0],
            probe_key=lambda row: row.root_oid,
        )
    raise AssertionError(shape)


class TestDifferentialConformance:
    @settings(max_examples=40, deadline=None)
    @given(
        db_size=st.integers(min_value=6, max_value=14),
        clustering=st.sampled_from(CLUSTERINGS),
        scheduler=st.sampled_from(SCHEDULERS),
        window=st.sampled_from((1, 2, 5)),
        selectivity=st.sampled_from((None, 0.4)),
        fault_rate=st.sampled_from((0.0, 0.05)),
        shape=st.sampled_from(SHAPES),
        fault_seed=st.integers(min_value=0, max_value=3),
    )
    def test_plan_matches_bare_driver(
        self,
        db_size,
        clustering,
        scheduler,
        window,
        selectivity,
        fault_rate,
        shape,
        fault_seed,
    ):
        db = generate_acob(db_size, seed=5)
        kwargs = assembly_kwargs(scheduler, window, selectivity, fault_rate)

        # Reference: the bare driver on its own store.
        ref_store, ref_layout = build_store(
            db, clustering, fault_rate, fault_seed
        )
        bare = Assembly(
            ListSource(ref_layout.root_order),
            ref_store,
            make_template_for(db, selectivity),
            **kwargs,
        )
        reference_rows = bare.execute()

        # Plan under test: identical fresh store, operator in a plan.
        plan_store, plan_layout = build_store(
            db, clustering, fault_rate, fault_seed
        )
        operator = AssemblyOperator(
            ListSource(plan_layout.root_order),
            plan_store,
            make_template_for(db, selectivity),
            **kwargs,
        )
        plan = build_plan(shape, operator, reference_rows)
        validate_plan(plan)
        plan_rows = plan.execute()

        expected = apply_reference_algebra(shape, reference_rows)
        assert multiset(plan_rows) == multiset(expected)
        assert stats_tuple(plan_store.disk) == stats_tuple(ref_store.disk)

    @settings(max_examples=25, deadline=None)
    @given(
        db_size=st.integers(min_value=6, max_value=12),
        clustering=st.sampled_from(CLUSTERINGS),
        scheduler=st.sampled_from(SCHEDULERS),
        window=st.sampled_from((1, 3)),
        n_partitions=st.integers(min_value=1, max_value=4),
        fault_rate=st.sampled_from((0.0, 0.05)),
    )
    def test_partitioned_plan_matches_partitioned_bare_drivers(
        self, db_size, clustering, scheduler, window, n_partitions, fault_rate
    ):
        """ParallelAssembly over k replicas ≡ k bare drivers, partition
        by partition: multiset-identical rows overall and bit-identical
        DiskStats per partition store."""
        db = generate_acob(db_size, seed=6)
        kwargs = assembly_kwargs(scheduler, window, None, fault_rate)
        template = make_template(db)

        def replica_stores():
            return [
                build_store(db, clustering, fault_rate, fault_seed=index)
                for index in range(n_partitions)
            ]

        plan_replicas = replica_stores()
        roots = plan_replicas[0][1].root_order
        parallel = ParallelAssembly(
            ListSource(roots),
            [store for store, _layout in plan_replicas],
            template,
            window_size=window,
        )
        # ParallelAssembly's engines run the elevator without retries;
        # the sampled scheduler and retry policy reach them through the
        # engine class the fragments are built from.
        with mock.patch.object(
            volcano_assembly, "Assembly", functools.partial(Assembly, **kwargs)
        ):
            plan_rows = parallel.execute()

        ref_replicas = replica_stores()
        reference_rows = []
        for index, (store, _layout) in enumerate(ref_replicas):
            part = [
                root
                for position, root in enumerate(roots)
                if position % n_partitions == index
            ]
            bare = Assembly(
                ListSource(part), store, template, **kwargs
            )
            reference_rows.extend(bare.execute())
            assert stats_tuple(store.disk) == stats_tuple(
                plan_replicas[index][0].disk
            )

        assert multiset(plan_rows) == multiset(reference_rows)

    def test_merge_order_is_deterministic(self):
        """Two identical parallel runs produce identical ordered output."""
        db = generate_acob(12, seed=7)
        template = make_template(db)

        def run():
            replicas = [
                build_store(db, "inter-object", 0.0, 0) for _ in range(3)
            ]
            roots = replicas[0][1].root_order
            parallel = ParallelAssembly(
                ListSource(roots),
                [store for store, _layout in replicas],
                template,
                window_size=2,
            )
            return [fingerprint(row) for row in parallel.execute()]

        assert run() == run()
