"""Tests for store snapshots."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.snapshot import load_store, save_store
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def build_layout(disk=None):
    db = generate_acob(20, seed=9)
    disk = disk if disk is not None else SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=8),
        shared=db.shared_pool,
    )
    return db, store, layout


class TestRoundTrip:
    def test_reopened_store_serves_identical_objects(self, tmp_path):
        db, store, layout = build_layout()
        path = save_store(store, tmp_path / "acob.snap")

        reopened = load_store(path)
        for cobj in db.complex_objects:
            for oid, obj in cobj.objects.items():
                assert reopened.fetch(oid).ints[2] == obj.ints["position"]

    def test_assembly_over_reopened_store(self, tmp_path):
        db, store, layout = build_layout()
        path = save_store(store, tmp_path / "acob.snap")
        reopened = load_store(path)
        op = Assembly(
            ListSource(layout.root_order),
            reopened,
            make_template(db),
            window_size=4,
        )
        emitted = op.execute()
        assert len(emitted) == 20
        for cobj in emitted:
            cobj.verify_swizzled()

    def test_allocation_cursor_survives(self, tmp_path):
        _db, store, _layout = build_layout()
        before = store.disk.allocated_pages
        path = save_store(store, tmp_path / "acob.snap")
        reopened = load_store(path)
        extent = reopened.disk.allocate(3)
        assert extent.start == before  # no overlap with stored pages

    def test_buffer_capacity_applied(self, tmp_path):
        _db, store, _layout = build_layout()
        path = save_store(store, tmp_path / "acob.snap")
        reopened = load_store(path, buffer_capacity=5)
        assert reopened.buffer.capacity == 5

    def test_stats_start_cold(self, tmp_path):
        _db, store, layout = build_layout()
        store.fetch(layout.roots[0])
        path = save_store(store, tmp_path / "acob.snap")
        reopened = load_store(path)
        assert reopened.disk.stats.reads == 0
        assert reopened.buffer.stats.fixes == 0

    def test_multi_device_snapshot(self, tmp_path):
        disk = MultiDeviceDisk(n_devices=3, pages_per_device=64)
        db, store, layout = build_layout(disk=disk)
        path = save_store(store, tmp_path / "multi.snap")
        reopened = load_store(path)
        assert isinstance(reopened.disk, MultiDeviceDisk)
        assert reopened.disk.n_devices == 3
        root = layout.roots[0]
        assert reopened.fetch(root).ints[2] == 0
        # Allocation continues round-robin without clobbering data.
        extent = reopened.disk.allocate(2)
        assert extent.length == 2


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(StorageError):
            load_store(path)

    def test_truncated(self, tmp_path):
        _db, store, _layout = build_layout()
        path = save_store(store, tmp_path / "acob.snap")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            load_store(path)

    def test_trailing_garbage(self, tmp_path):
        _db, store, _layout = build_layout()
        path = save_store(store, tmp_path / "acob.snap")
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(StorageError):
            load_store(path)

    def test_wrong_version(self, tmp_path):
        _db, store, _layout = build_layout()
        path = save_store(store, tmp_path / "acob.snap")
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "big")
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_store(path)
