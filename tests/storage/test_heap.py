"""Tests for heap files."""

import pytest

from repro.errors import BadSlotError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.oid import Rid


@pytest.fixture
def heap():
    disk = SimulatedDisk()
    return HeapFile(disk, BufferManager(disk), extent_pages=2)


class TestAppendFetch:
    def test_append_returns_rid(self, heap):
        rid = heap.append(b"first")
        assert isinstance(rid, Rid)
        assert heap.fetch(rid) == b"first"

    def test_len_counts_records(self, heap):
        for i in range(5):
            heap.append(f"rec-{i}".encode())
        assert len(heap) == 5

    def test_append_spills_to_new_pages(self, heap):
        big = b"x" * 300  # 3 fit per 1 KB page
        rids = [heap.append(big) for _ in range(10)]
        assert len({rid.page_id for rid in rids}) >= 3
        for rid in rids:
            assert heap.fetch(rid) == big

    def test_grows_in_extents(self, heap):
        for _ in range(30):
            heap.append(b"y" * 300)
        assert len(heap.page_ids) >= 4

    def test_empty_record_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.append(b"")

    def test_fetch_foreign_rid(self, heap):
        heap.append(b"a")
        with pytest.raises(BadSlotError):
            heap.fetch(Rid(9999, 0))


class TestUpdateDelete:
    def test_update_in_place(self, heap):
        rid = heap.append(b"aaa")
        heap.update(rid, b"bbb")
        assert heap.fetch(rid) == b"bbb"

    def test_delete(self, heap):
        rid = heap.append(b"gone")
        heap.delete(rid)
        with pytest.raises(BadSlotError):
            heap.fetch(rid)
        assert len(heap) == 0

    def test_delete_foreign_rid(self, heap):
        with pytest.raises(BadSlotError):
            heap.delete(Rid(123, 0))


class TestScan:
    def test_scan_in_file_order(self, heap):
        payloads = [f"record-{i}".encode() for i in range(12)]
        rids = [heap.append(p) for p in payloads]
        scanned = list(heap.scan())
        assert [record for _rid, record in scanned] == payloads
        assert [rid for rid, _record in scanned] == rids

    def test_scan_skips_deleted(self, heap):
        keep = heap.append(b"keep")
        drop = heap.append(b"drop")
        heap.delete(drop)
        assert list(heap.scan()) == [(keep, b"keep")]

    def test_scan_empty(self, heap):
        assert list(heap.scan()) == []

    def test_flush_persists(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        heap = HeapFile(disk, buffer, extent_pages=1)
        rid = heap.append(b"durable")
        heap.flush()
        buffer.drop_clean()
        assert heap.fetch(rid) == b"durable"


class TestExtentUse:
    def test_records_fill_contiguous_pages_and_a_cold_scan_reads_only_them(self):
        """Each extent's pages fill in order; unwritten pages are never read."""
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        heap = HeapFile(disk, buffer)  # 8-page extents
        for i in range(400):
            heap.append(bytes([i % 256]) * 90)
        first = heap.page_ids[0]
        assert heap.page_ids == tuple(range(first, first + 40))
        assert disk.allocated_pages == 40
        heap.flush()
        buffer.drop_clean()
        disk.reset_stats()
        assert len(list(heap.scan())) == 400
        assert disk.stats.reads == 40
