"""Integration tests combining many subsystems in single plans."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.storage.btree import BTree
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.volcano.filters import Project
from repro.iterator import ListSource
from repro.volcano.mergejoin import MergeJoin
from repro.volcano.scan import IndexScan
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
    """Bulk-build a root index, range-scan it, assemble the range."""
    db, store, layout = world
    index = BTree(store.disk, store.buffer, unique=True)
    index.bulk_load(
        sorted(
            (i, root.encode()) for i, root in enumerate(layout.roots)
        )
    )
    index.check_invariants()
    source = Project(
        IndexScan(index, low=20, high=39),
        lambda row: Oid.decode(row[1]),
    )
    op = Assembly(source, store, make_template(db), window_size=8)
    emitted = op.execute()
    assert {c.root_oid for c in emitted} == set(layout.roots[20:40])


def test_merge_join_over_two_assemblies(world):
    """Self-join assembled objects on a traversed attribute, via
    sort + merge join — four operators deep, two assembly pipelines."""
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

    left = ExternalSort(assembled_stream(), key=lambda r: r[0])
    right = ExternalSort(assembled_stream(), key=lambda r: r[0])
    join = MergeJoin(
        left, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
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
    """The full data-driven loop through the Database facade."""
    from repro import Database
    from repro.query import annotate_from_sample, retrieve
    from repro.workloads.acob import PAYLOAD_RANGE

    db = generate_acob(120, seed=15)
    database = Database()
    database.load(
        db.complex_objects, clustering="unclustered", shared=db.shared_pool
    )
    bound = int(0.25 * PAYLOAD_RANGE)
    annotated = annotate_from_sample(
        make_template(db),
        database.store,
        database.roots,
        predicates={"n2": lambda r: r.ints[3] < bound},
        sample_size=60,
    )
    database.reset_measurement()
    results = database.optimize(retrieve(annotated)).execute()
    expected = sum(1 for payloads in db.payloads if payloads[2] < bound)
    assert len(results) == expected
