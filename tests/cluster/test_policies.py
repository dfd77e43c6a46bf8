"""Tests for the three clustering policies (paper Figures 8–10, 12)."""

import random

import pytest

from repro.cluster.policies import (
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.errors import ExtentError, StorageError
from repro.workloads.acob import generate_acob


@pytest.fixture
def database():
    return generate_acob(12, seed=5)


def place(policy, database, store, seed=0):
    return policy.place(
        database.complex_objects,
        database.shared_pool,
        store,
        random.Random(seed),
    )


class TestUnclustered:
    def test_places_every_object(self, database, store):
        placement = place(Unclustered(), database, store)
        assert len(placement.pages) == database.total_objects()

    def test_respects_page_capacity(self, database, store):
        placement = place(Unclustered(), database, store)
        fill = {}
        for _oid, page_id in placement.pages:
            fill[page_id] = fill.get(page_id, 0) + 1
        assert all(count <= 9 for count in fill.values())

    def test_single_extent_sized_to_database(self, database, store):
        placement = place(Unclustered(), database, store)
        extent = placement.extents["all"]
        assert extent.length == -(-database.total_objects() // 9)

    def test_deterministic_under_seed(self, database, store):
        from repro.storage.disk import SimulatedDisk
        from repro.storage.store import ObjectStore

        first = place(Unclustered(), database, store, seed=3)
        second = place(
            Unclustered(), database, ObjectStore(SimulatedDisk()), seed=3
        )
        assert first.pages == second.pages

    def test_randomizes_across_seeds(self, database, store):
        from repro.storage.disk import SimulatedDisk
        from repro.storage.store import ObjectStore

        first = place(Unclustered(), database, store, seed=1)
        second = place(
            Unclustered(), database, ObjectStore(SimulatedDisk()), seed=2
        )
        assert first.pages != second.pages


class TestInterObject:
    def test_one_extent_per_type(self, database, store):
        placement = place(InterObjectClustering(cluster_pages=8), database, store)
        assert len(placement.extents) == 7  # seven tree positions

    def test_objects_land_in_their_type_cluster(self, database, store):
        placement = place(InterObjectClustering(cluster_pages=8), database, store)
        for oid, page_id in placement.pages:
            extent = placement.extents[f"type-{oid.type_id}"]
            assert page_id in extent

    def test_cluster_size_fixed_regardless_of_database(self, store):
        """Figure 12: clusters are larger than any database."""
        small = generate_acob(5, seed=1)
        placement = place(InterObjectClustering(cluster_pages=16), small, store)
        assert all(e.length == 16 for e in placement.extents.values())

    def test_disk_order_controls_physical_layout(self, database, store):
        order = database.type_ids_depth_first()
        placement = place(
            InterObjectClustering(cluster_pages=8, disk_order=order),
            database,
            store,
        )
        starts = [placement.extents[f"type-{tid}"].start for tid in order]
        assert starts == sorted(starts)

    def test_disk_order_missing_type_rejected(self, database, store):
        with pytest.raises(StorageError):
            place(
                InterObjectClustering(cluster_pages=8, disk_order=[1, 2]),
                database,
                store,
            )

    def test_cluster_too_small_rejected(self, store):
        big = generate_acob(200, seed=1)
        with pytest.raises(StorageError):
            place(InterObjectClustering(cluster_pages=2), big, store)

    def test_zero_cluster_pages_rejected(self):
        with pytest.raises(ExtentError):
            InterObjectClustering(cluster_pages=0)

    def test_shared_pool_clusters_by_type(self, store):
        shared_db = generate_acob(20, sharing=0.25, seed=2)
        placement = place(
            InterObjectClustering(cluster_pages=8), shared_db, store
        )
        for oid in shared_db.shared_pool:
            page = dict(placement.pages)[oid]
            assert page in placement.extents[f"type-{oid.type_id}"]


class TestIntraObject:
    def test_components_contiguous(self, database, store):
        placement = place(IntraObjectClustering(), database, store)
        pages = dict(placement.pages)
        for cobj in database.complex_objects:
            cobj_pages = sorted(pages[oid] for oid in cobj.objects)
            # 7 objects at 9/page span at most 2 pages, adjacent.
            assert cobj_pages[-1] - cobj_pages[0] <= 1

    def test_depth_first_storage_order(self, database, store):
        placement = place(IntraObjectClustering(), database, store)
        order = [oid for oid, _page in placement.pages]
        first = database.complex_objects[0]
        expected = [obj.oid for obj in first.traverse_depth_first()]
        assert order[: len(expected)] == expected

    def test_places_every_object(self, database, store):
        placement = place(IntraObjectClustering(), database, store)
        assert len(placement.pages) == database.total_objects()
