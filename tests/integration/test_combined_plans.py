"""Integration tests combining many subsystems in single plans."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.volcano.filters import Project
from repro.iterator import ListSource
from repro.volcano.joins import HashJoin
from repro.volcano.sort import ExternalSort
from repro.storage.oid import Oid
from repro.workloads.acob import generate_acob, make_template


@pytest.fixture
def world():
    db = generate_acob(60, seed=14)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=32),
        shared=db.shared_pool,
    )
    return db, store, layout


def test_bulk_loaded_index_feeds_assembly(world):
    """A key-ordered list of encoded root pointers, as a bulk-loaded
    root index would yield it: decode a range of it, assemble the range."""
    db, store, layout = world
    source = Project(
        ListSource([root.encode() for root in layout.roots[20:40]]),
        Oid.decode,
    )
    op = Assembly(source, store, make_template(db), window_size=8)
    emitted = op.execute()
    assert {c.root_oid for c in emitted} == set(layout.roots[20:40])


def test_merge_join_over_two_assemblies(world):
    """Self-join assembled objects on a traversed attribute: both sides
    sorted on the join key, then joined by ``HashJoin`` — four operators
    deep, two assembly pipelines."""
    db, store, layout = world

    def assembled_stream():
        return Project(
            Assembly(
                ListSource(layout.root_order),
                store,
                make_template(db),
                window_size=8,
            ),
            # (bucketed payload of the left-left leaf, root id)
            lambda c: (c.root.follow(0, 0).ints[3] % 7, c.root.ints[0]),
        )

    build = ExternalSort(assembled_stream(), key=lambda r: r[0])
    probe = ExternalSort(assembled_stream(), key=lambda r: r[0])
    join = HashJoin(
        build, probe, build_key=lambda r: r[0], probe_key=lambda r: r[0]
    )
    pairs = join.execute()

    # Oracle: bucket sizes from the generator's payload record.
    buckets = {}
    for payloads in db.payloads:
        bucket = payloads[3] % 7
        buckets[bucket] = buckets.get(bucket, 0) + 1
    expected_pairs = sum(count * count for count in buckets.values())
    assert len(pairs) == expected_pairs
    assert all(l[0] == r[0] for l, r in pairs)


def test_database_facade_with_sampled_statistics():
    """A component predicate through the Database facade's optimizer,
    its selectivity measured on a sample of the generated objects."""
    from repro import Database
    from repro.core.predicates import int_less_than
    from repro.workloads.acob import PAYLOAD_RANGE

    db = generate_acob(120, seed=15)
    database = Database()
    database.load(
        db.complex_objects, clustering="unclustered", shared=db.shared_pool
    )
    bound = int(0.25 * PAYLOAD_RANGE)
    sample = db.payloads[:60]
    selectivity = sum(1 for p in sample if p[2] < bound) / len(sample)
    results = (
        database.query(make_template(db))
        .where_component(
            "n2", int_less_than(3, bound, selectivity=selectivity)
        )
        .plan()
        .execute()
    )
    expected = sum(1 for payloads in db.payloads if payloads[2] < bound)
    assert len(results) == expected
