"""Tests for batched I/O: run coalescing, run reads, batch pinning."""

import pytest

from repro.errors import BufferFullError, DiskError
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostModel, CostedDisk
from repro.storage.disk import SimulatedDisk, coalesce_runs
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.page import Page


class TestCoalesceRuns:
    def test_empty(self):
        assert coalesce_runs([]) == []

    def test_singleton(self):
        assert coalesce_runs([7]) == [(7, 1)]

    def test_ascending_run(self):
        assert coalesce_runs([3, 4, 5]) == [(3, 3)]

    def test_descending_run_reported_from_lowest(self):
        assert coalesce_runs([5, 4, 3]) == [(3, 3)]

    def test_direction_flip_splits(self):
        # 3,4 ascend; 3 again steps -1 against the run's direction.
        assert coalesce_runs([3, 4, 3]) == [(3, 2), (3, 1)]

    def test_gap_splits(self):
        assert coalesce_runs([3, 4, 9, 10]) == [(3, 2), (9, 2)]

    def test_adjacent_duplicates_collapse(self):
        assert coalesce_runs([3, 3, 4, 4, 5]) == [(3, 3)]

    def test_unrelated_pages_stay_single(self):
        assert coalesce_runs([10, 2, 30]) == [(10, 1), (2, 1), (30, 1)]


class TestReadRun:
    def test_one_seek_many_pages(self):
        disk = SimulatedDisk()
        pages = disk.read_run(10, 4)
        assert [p.page_id for p in pages] == [10, 11, 12, 13]
        assert disk.stats.reads == 1
        assert disk.stats.pages_read == 4
        assert disk.stats.run_reads == 1
        assert disk.stats.read_seeks == [10]

    def test_head_settles_on_last_page(self):
        disk = SimulatedDisk()
        disk.read_run(10, 4)
        assert disk.head_position == 13
        disk.read(14)  # next sequential page: 1-page seek
        assert disk.stats.read_seeks == [10, 1]

    def test_single_page_run_is_a_plain_read(self):
        disk = SimulatedDisk()
        disk.read_run(5, 1)
        assert disk.stats.reads == 1
        assert disk.stats.pages_read == 1
        assert disk.stats.run_reads == 0

    def test_returns_written_images(self):
        disk = SimulatedDisk()
        page = Page(11)
        page.insert(b"payload")
        disk.write(page)
        images = disk.read_run(10, 3)
        assert images[1].live_count() == 1

    def test_validates_both_ends(self):
        disk = SimulatedDisk(n_pages=10)
        with pytest.raises(DiskError):
            disk.read_run(8, 3)
        with pytest.raises(DiskError):
            disk.read_run(0, 0)
        # Nothing was charged by the failed attempts.
        assert disk.stats.reads == 0


class TestReadBatch:
    def test_request_order_preserved(self):
        disk = SimulatedDisk()
        pages = disk.read_batch([9, 3, 4, 5])
        assert [p.page_id for p in pages] == [9, 3, 4, 5]
        # Two physical operations: page 9 alone, run 3..5.
        assert disk.stats.reads == 2
        assert disk.stats.pages_read == 4

    def test_duplicates_read_once(self):
        disk = SimulatedDisk()
        pages = disk.read_batch([4, 4, 5])
        assert [p.page_id for p in pages] == [4, 4, 5]
        assert disk.stats.pages_read == 2

    def test_equivalent_cost_to_manual_runs(self):
        batch = SimulatedDisk()
        batch.read_batch([10, 11, 12, 40])
        manual = SimulatedDisk()
        manual.read_run(10, 3)
        manual.read(40)
        assert batch.stats.read_seek_total == manual.stats.read_seek_total
        assert batch.stats.reads == manual.stats.reads


class TestMultiDeviceRuns:
    def test_run_splits_at_device_boundary(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        pages = disk.read_run(98, 4)
        assert [p.page_id for p in pages] == [98, 99, 100, 101]
        # One physical read per device chunk.
        assert disk.stats.reads == 2
        assert disk.stats.pages_read == 4
        assert disk.device_stats[0].pages_read == 2
        assert disk.device_stats[1].pages_read == 2

    def test_heads_settle_per_device(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        disk.read_run(98, 4)
        assert disk.head_of(0) == 99
        assert disk.head_of(1) == 101

    def test_single_device_run_counts_once(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        disk.read_run(10, 5)
        assert disk.stats.reads == 1
        assert disk.device_stats[0].run_reads == 1
        assert disk.device_stats[1].reads == 0


class TestCostedRuns:
    @pytest.fixture(autouse=True)
    def priced(self, monkeypatch):
        """Round prices: 1 ms/page seek, 2 settle, 3 rotation, 1 transfer."""
        prices = dict(
            seek_per_page=1.0, settle=2.0, rotational_latency=3.0, transfer=1.0
        )
        for name, value in prices.items():
            monkeypatch.setattr(CostModel, name, value)

    def test_run_pays_one_positioning_many_transfers(self):
        disk = CostedDisk()
        disk.read_run(10, 4)
        # settle + 10-page seek + rotation + 4 transfers.
        assert disk.service_time_total == pytest.approx(2 + 10 + 3 + 4)

    def test_run_cheaper_than_page_at_a_time(self):
        run = CostedDisk()
        run.read_run(10, 4)
        paged = CostedDisk()
        for page_id in (10, 11, 12, 13):
            paged.read(page_id)
        assert run.service_time_total < paged.service_time_total


class TestFixMany:
    def test_one_physical_read_for_contiguous_pages(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk)
        pages = buffer.fix_many([5, 4, 3])
        assert set(pages) == {3, 4, 5}
        assert disk.stats.reads == 1  # descending run, one operation
        assert buffer.stats.faults == 3
        for page_id in (3, 4, 5):
            buffer.unfix(page_id)

    def test_stats_match_unbatched_fix(self):
        plain_disk = SimulatedDisk()
        plain = BufferManager(plain_disk, capacity=4)
        batch_disk = SimulatedDisk()
        batched = BufferManager(batch_disk, capacity=4)
        request = [7, 7, 2, 3]
        for page_id in request:
            plain.fix(page_id)
        batched.fix_many(request)
        assert batched.stats.fixes == plain.stats.fixes
        assert batched.stats.faults == plain.stats.faults
        assert batched.stats.hits == plain.stats.hits
        assert batched.pinned_pages == plain.pinned_pages

    def test_duplicate_ids_pin_per_occurrence(self):
        buffer = BufferManager(SimulatedDisk())
        buffer.fix_many([9, 9])
        buffer.unfix(9)
        buffer.unfix(9)
        assert buffer.pinned_pages == 0

    def test_resident_pages_protected_from_eviction(self):
        buffer = BufferManager(SimulatedDisk(), capacity=2)
        buffer.fix(1)
        buffer.unfix(1)  # resident, unpinned
        buffer.fix_many([1, 2])  # must not evict 1 to fault 2
        assert buffer.stats.re_reads == 0
        buffer.unfix(1)
        buffer.unfix(2)

    def test_atomic_admission_check(self):
        buffer = BufferManager(SimulatedDisk(), capacity=3)
        buffer.fix(10)  # pinned, not part of the batch
        with pytest.raises(BufferFullError):
            buffer.fix_many([1, 2, 3])
        # The failed batch pinned nothing.
        assert buffer.pinned_pages == 1
        buffer.unfix(10)

    def test_batch_exactly_filling_capacity(self):
        buffer = BufferManager(SimulatedDisk(), capacity=3)
        pages = buffer.fix_many([1, 2, 3])
        assert len(pages) == 3
        for page_id in (1, 2, 3):
            buffer.unfix(page_id)

    def test_empty_batch(self):
        buffer = BufferManager(SimulatedDisk())
        assert buffer.fix_many([]) == {}
        assert buffer.stats.fixes == 0
