"""Integration tests: full pipelines across storage, Volcano, assembly."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import (
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.core.assembly import Assembly
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.volcano.aggregate import HashAggregate
from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def make_layout(policy_name, n=40, sharing=0.0, seed=2):
    db = generate_acob(n, sharing=sharing, seed=seed)
    store = ObjectStore(SimulatedDisk())
    if policy_name == "inter":
        policy = InterObjectClustering(
            cluster_pages=32, disk_order=db.type_ids_depth_first()
        )
    elif policy_name == "intra":
        policy = IntraObjectClustering()
    else:
        policy = Unclustered()
    layout = layout_database(
        db.complex_objects, store, policy, shared=db.shared_pool
    )
    return db, store, layout


@pytest.mark.parametrize("policy", ["inter", "intra", "unclustered"])
@pytest.mark.parametrize("scheduler", ["depth-first", "breadth-first", "elevator"])
def test_assembly_correct_under_every_policy_and_scheduler(policy, scheduler):
    db, store, layout = make_layout(policy)
    op = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=8,
        scheduler=scheduler,
    )
    emitted = op.execute()
    assert len(emitted) == 40
    for cobj in emitted:
        cobj.verify_swizzled()
    # Unbounded buffer: every data page is read at most once from disk.
    assert store.buffer.stats.re_reads == 0


def test_reads_equal_touched_pages_with_unbounded_buffer():
    """Only the *order* differs between schedulers; with no replacement
    the set of pages read is identical, so total reads match."""
    reads = {}
    for scheduler in ("depth-first", "breadth-first", "elevator"):
        db, store, layout = make_layout("inter", n=60)
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=10, scheduler=scheduler,
        )
        op.execute()
        reads[scheduler] = store.disk.stats.reads
    assert len(set(reads.values())) == 1


def test_index_scan_feeds_assembly():
    """Roots arrive as encoded pointers, as an index scan would yield
    them, and are decoded by a Project, as in a real access plan."""
    db, store, layout = make_layout("unclustered", n=25)
    source = Project(
        ListSource([root.encode() for root in layout.roots[5:15]]),
        Oid.decode,
    )
    op = Assembly(source, store, make_template(db), window_size=4)
    emitted = op.execute()
    assert [c.root_oid for c in emitted] and len(emitted) == 10
    assert {c.root_oid for c in emitted} == set(layout.roots[5:15])


def test_filter_aggregate_over_assembled_objects():
    """A query plan over assembled complex objects: selection on a
    traversed field plus aggregation, all in memory."""
    db, store, layout = make_layout("intra", n=50)
    plan = HashAggregate(
        Filter(
            Assembly(
                ListSource(layout.root_order),
                store,
                make_template(db),
                window_size=10,
                scheduler="elevator",
            ),
            # Traverse swizzled pointers: left-left leaf payload parity.
            lambda cobj: cobj.root.follow(0, 0).ints[3] % 2 == 0,
        ),
        group_key=lambda cobj: cobj.root.ints[1],  # level (always 0)
        init=lambda: 0,
        step=lambda acc, _row: acc + 1,
    )
    rows = plan.execute()
    expected = sum(
        1 for payloads in db.payloads if payloads[3] % 2 == 0
    )
    assert rows == [(0, expected)] if expected else rows == []


def test_restricted_buffer_still_correct():
    """With a small buffer the operator re-reads but never corrupts."""
    db, store_unused, layout_unused = make_layout("inter", n=40)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk, capacity=24))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=32, disk_order=db.type_ids_depth_first()),
        shared=db.shared_pool,
    )
    op = Assembly(
        ListSource(layout.root_order), store, make_template(db),
        window_size=2, scheduler="elevator",
    )
    emitted = op.execute()
    assert len(emitted) == 40
    for cobj in emitted:
        cobj.verify_swizzled()
    assert store.buffer.stats.re_reads > 0  # the buffer really was tight


def test_seek_metric_consistency():
    """avg_seek * reads == total seek distance, and the per-read
    history sums to the same total."""
    db, store, layout = make_layout("unclustered", n=30)
    op = Assembly(
        ListSource(layout.root_order), store, make_template(db),
        window_size=5, scheduler="elevator",
    )
    op.execute()
    stats = store.disk.stats
    assert stats.avg_seek_per_read * stats.reads == pytest.approx(
        stats.read_seek_total
    )
    assert sum(stats.read_seeks) == stats.read_seek_total
    assert len(stats.read_seeks) == stats.reads
