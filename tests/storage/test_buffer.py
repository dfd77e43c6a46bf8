"""Tests for the buffer manager: pinning, LRU, replacement stats."""

import pytest

from repro.errors import BufferFullError, PinError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


def write_pages(disk, n):
    for page_id in range(n):
        page = Page(page_id)
        page.insert(f"page-{page_id}".encode())
        disk.write(page)


class TestFixUnfix:
    def test_fix_reads_page(self):
        disk = SimulatedDisk()
        write_pages(disk, 1)
        buffer = BufferManager(disk)
        page = buffer.fix(0)
        assert page.read(0) == b"page-0"
        buffer.unfix(0)

    def test_hit_vs_fault(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(0)
        buffer.fix(0)
        assert buffer.stats.fixes == 2
        assert buffer.stats.faults == 1
        assert buffer.stats.hits == 1

    def test_hit_causes_no_disk_read(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(5)
        reads = disk.stats.reads
        buffer.fix(5)
        assert disk.stats.reads == reads

    def test_pin_counts(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(0)
        buffer.fix(0)
        assert buffer.pin_count(0) == 2
        buffer.unfix(0)
        assert buffer.pin_count(0) == 1
        buffer.unfix(0)
        assert buffer.pin_count(0) == 0

    def test_unfix_without_fix(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        with pytest.raises(PinError):
            buffer.unfix(0)

    def test_unfix_more_than_fixed(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(0)
        buffer.unfix(0)
        with pytest.raises(PinError):
            buffer.unfix(0)

    def test_fixed_context_manager(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        with buffer.fixed(3) as page:
            assert page.page_id == 3
            assert buffer.pin_count(3) == 1
        assert buffer.pin_count(3) == 0

    def test_pinned_pages_counter(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(0)
        buffer.fix(1)
        buffer.fix(1)
        assert buffer.pinned_pages == 2
        buffer.unfix(1)
        assert buffer.pinned_pages == 2
        buffer.unfix(1)
        assert buffer.pinned_pages == 1
        buffer.unfix(0)
        assert buffer.pinned_pages == 0


class TestReplacement:
    def test_lru_evicts_least_recent(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=2)
        buffer.fix(0)
        buffer.unfix(0)
        buffer.fix(1)
        buffer.unfix(1)
        buffer.fix(0)  # touch 0: now 1 is least recent
        buffer.unfix(0)
        buffer.fix(2)  # evicts 1
        buffer.unfix(2)
        assert buffer.is_resident(0)
        assert not buffer.is_resident(1)
        assert buffer.is_resident(2)
        assert buffer.stats.evictions == 1

    def test_pinned_pages_survive_eviction(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=2)
        buffer.fix(0)  # pinned
        buffer.fix(1)
        buffer.unfix(1)
        buffer.fix(2)  # must evict 1, not pinned 0
        assert buffer.is_resident(0)
        assert not buffer.is_resident(1)

    def test_all_pinned_raises(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=2)
        buffer.fix(0)
        buffer.fix(1)
        with pytest.raises(BufferFullError):
            buffer.fix(2)

    def test_re_read_counted(self):
        """Faults on previously-resident pages are the waste Figure 15
        sharing statistics avoid."""
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=1)
        buffer.fix(0)
        buffer.unfix(0)
        buffer.fix(1)
        buffer.unfix(1)
        buffer.fix(0)  # re-read
        buffer.unfix(0)
        assert buffer.stats.re_reads == 1
        assert buffer.stats.faults == 3

    def test_eviction_writes_back_dirty(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=1)
        page = buffer.fix(0)
        page.insert(b"dirty data")
        buffer.unfix(0, dirty=True)
        buffer.fix(1)  # evicts 0, must write it back
        buffer.unfix(1)
        assert disk.read(0).read(0) == b"dirty data"

    def test_capacity_zero_rejected(self):
        with pytest.raises(BufferFullError):
            BufferManager(SimulatedDisk(), capacity=0)


class TestFlush:
    def test_flush_all_writes_dirty(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        page = buffer.fix(4)
        page.insert(b"content")
        buffer.unfix(4, dirty=True)
        buffer.flush_all()
        assert disk.read(4).read(0) == b"content"

    def test_drop_clean_empties_unpinned(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(0)
        buffer.fix(1)
        buffer.unfix(1)
        buffer.drop_clean()
        assert buffer.is_resident(0)  # pinned stays
        assert not buffer.is_resident(1)

    def test_reset_stats(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        buffer.fix(0)
        buffer.unfix(0)
        buffer.reset_stats()
        assert buffer.stats.fixes == 0
        # Resident pages do not recount as re-reads after reset.
        buffer.drop_clean()
        buffer.fix(0)
        assert buffer.stats.re_reads == 1
