"""Snapshot/restore of laid-out databases must equal a rebuild.

The raw-speed pass lets benchmark drivers capture a finished layout
once (:func:`repro.cluster.layout.snapshot_layout`) and clone it onto
fresh disks (:func:`repro.cluster.layout.restore_layout`) instead of
re-running placement.  That is only sound if the restored state is
bit-identical to rebuilding the same parameter point — page images,
directory, bookkeeping, and the behaviour of an assembly that runs on
top.  Placement goes through ``disk.allocate``, which is geometry
dependent (the multi-device disk stripes extents round-robin), so the
equivalence is checked per disk type.
"""

import pytest

from repro.cluster.layout import (
    layout_database,
    restore_layout,
    snapshot_layout,
)
from repro.cluster.policies import InterObjectClustering, Unclustered
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk
from repro.storage.disk import SimulatedDisk
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob

DB_SIZE = 24


def make_disk(kind):
    """A fresh disk of the requested geometry."""
    if kind == "multi":
        return MultiDeviceDisk(n_devices=4, pages_per_device=60)
    if kind == "costed":
        return CostedDisk()
    return SimulatedDisk()


def build_layout(kind, policy):
    """Lay out the reference database on a fresh ``kind`` disk."""
    db = generate_acob(DB_SIZE, seed=5)
    disk = make_disk(kind)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, policy, shared=db.shared_pool
    )
    return db, store, layout


@pytest.mark.parametrize("kind", ["plain", "multi", "costed"])
@pytest.mark.parametrize(
    "policy_factory",
    [Unclustered, lambda: InterObjectClustering(cluster_pages=8)],
)
class TestRestoreEqualsRebuild:
    """restore_layout() must be indistinguishable from layout_database()."""

    def test_disk_image_identical(self, kind, policy_factory):
        _, built_store, layout = build_layout(kind, policy_factory())
        snapshot = snapshot_layout(layout)

        fresh_disk = make_disk(kind)
        restored_store = ObjectStore(fresh_disk, BufferManager(fresh_disk))
        restore_layout(snapshot, restored_store)

        built_pages, built_free = built_store.disk.dump_state()
        restored_pages, restored_free = restored_store.disk.dump_state()
        assert restored_pages == built_pages
        assert restored_free == built_free

    def test_bookkeeping_identical(self, kind, policy_factory):
        _, built_store, layout = build_layout(kind, policy_factory())
        snapshot = snapshot_layout(layout)

        fresh_disk = make_disk(kind)
        restored_store = ObjectStore(fresh_disk, BufferManager(fresh_disk))
        restored = restore_layout(snapshot, restored_store)

        assert restored.roots == layout.roots
        assert restored.root_order == layout.root_order
        assert restored.extents == layout.extents
        assert restored.object_count == layout.object_count
        assert restored.policy_name == layout.policy_name
        assert (
            restored_store.directory.dump() == built_store.directory.dump()
        )

    def test_restored_store_serves_identical_records(
        self, kind, policy_factory
    ):
        db, built_store, layout = build_layout(kind, policy_factory())
        snapshot = snapshot_layout(layout)

        fresh_disk = make_disk(kind)
        restored_store = ObjectStore(fresh_disk, BufferManager(fresh_disk))
        restore_layout(snapshot, restored_store)

        for cobj in db.complex_objects:
            for oid in cobj.objects:
                assert (
                    restored_store.fetch(oid).encode()
                    == built_store.fetch(oid).encode()
                )

    def test_restored_stats_match_fresh_layout(self, kind, policy_factory):
        """Restore leaves the same reset stats layout_database does."""
        _, _, layout = build_layout(kind, policy_factory())
        snapshot = snapshot_layout(layout)

        fresh_disk = make_disk(kind)
        restored_store = ObjectStore(fresh_disk, BufferManager(fresh_disk))
        restore_layout(snapshot, restored_store)

        assert restored_store.disk.stats.reads == 0
        assert restored_store.disk.stats.writes == 0
        assert restored_store.disk.head_position == 0
        assert restored_store.buffer.stats.fixes == 0


class TestSnapshotIsolation:
    """A snapshot must not alias live state between restores."""

    def test_mutating_one_restore_leaves_others_clean(self):
        _, _, layout = build_layout(
            "plain", InterObjectClustering(cluster_pages=8)
        )
        snapshot = snapshot_layout(layout)

        disk_a = SimulatedDisk()
        store_a = ObjectStore(disk_a, BufferManager(disk_a))
        restored_a = restore_layout(snapshot, store_a)

        # Scribble over one restored clone via a legitimate overwrite.
        victim = restored_a.roots[0]
        record = store_a.fetch(victim)
        mutated = type(record)(
            [v + 1 for v in record.ints], list(record.refs)
        )
        store_a.overwrite(victim, mutated)

        disk_b = SimulatedDisk()
        store_b = ObjectStore(disk_b, BufferManager(disk_b))
        restore_layout(snapshot, store_b)
        assert store_b.fetch(victim).encode() == record.encode()

    def test_assembly_on_restored_layout_matches_rebuild(self, monkeypatch):
        """Seek behaviour on a restored clone equals the rebuilt one."""
        from repro.bench import harness
        from repro.bench.harness import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            n_complex_objects=40,
            clustering="inter-object",
            scheduler="elevator",
            window_size=8,
        )
        warm = run_experiment(config)  # populates the layout cache
        cached = run_experiment(config)  # restored from snapshot
        monkeypatch.setattr(harness, "_DB_CACHE", {})
        monkeypatch.setattr(harness, "_LAYOUT_SNAPSHOTS", {})
        rebuilt = run_experiment(config)  # cold rebuild
        from dataclasses import asdict

        assert asdict(cached) == asdict(warm) == asdict(rebuilt)
