"""Tests for the layout engine."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering, Unclustered
from repro.objects.model import ModelError
from repro.storage.oid import Oid
from repro.workloads.acob import generate_acob


class TestLayoutDatabase:
    def test_everything_fetchable_after_layout(self, small_acob, store):
        layout = layout_database(
            small_acob.complex_objects,
            store,
            Unclustered(),
            shared=small_acob.shared_pool,
        )
        for cobj in small_acob.complex_objects:
            for oid, obj in cobj.objects.items():
                record = store.fetch(oid)
                assert record.ints[2] == obj.ints["position"]
        assert layout.object_count == small_acob.total_objects()

    def test_stats_reset_after_load(self, small_acob, store):
        layout_database(small_acob.complex_objects, store, Unclustered())
        assert store.disk.stats.reads == 0
        assert store.disk.stats.writes == 0
        assert store.buffer.stats.fixes == 0
        assert store.disk.head_position == 0

    def test_root_order_is_permutation(self, small_acob, store):
        layout = layout_database(
            small_acob.complex_objects, store, Unclustered(), seed=9
        )
        assert sorted(layout.root_order) == sorted(layout.roots)
        assert layout.root_order != layout.roots  # shuffled (seed 9)

    def test_root_order_optionally_unshuffled(self, small_acob, store):
        layout = layout_database(
            small_acob.complex_objects,
            store,
            Unclustered(),
            shuffle_roots=False,
        )
        assert layout.root_order == layout.roots

    def test_layout_deterministic_in_seed(self, small_acob):
        from repro.storage.disk import SimulatedDisk
        from repro.storage.store import ObjectStore

        def build():
            store = ObjectStore(SimulatedDisk())
            layout = layout_database(
                small_acob.complex_objects, store, Unclustered(), seed=4
            )
            return [store.directory.page_of(r) for r in layout.root_order]

        assert build() == build()

    def test_validation_catches_dangling(self, store):
        database = generate_acob(3, seed=1)
        # Break a reference behind the generator's back.
        cobj = database.complex_objects[0]
        root = cobj.objects[cobj.root]
        root.refs["left"] = Oid(2, 9999)
        with pytest.raises(ModelError):
            layout_database(database.complex_objects, store, Unclustered())

    def test_validation_skippable(self, store):
        database = generate_acob(3, seed=1)
        layout_database(
            database.complex_objects, store, Unclustered(), validate=False
        )

    def test_pages_spanned(self, small_acob, store):
        layout = layout_database(
            small_acob.complex_objects,
            store,
            InterObjectClustering(cluster_pages=8),
        )
        assert layout.pages_spanned() == 7 * 8
