"""The event-driven I/O engine: clock, timelines, overlap accounting."""

import pytest

from repro.errors import DiskError
from repro.storage.costmodel import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.events import AsyncIOEngine, EventClock
from repro.storage.multidisk import MultiDeviceDisk

#: distance + one ms per transferred page: easy arithmetic in tests.
LINEAR = CostModel(
    seek_per_page=1.0, settle=0.0, rotational_latency=0.0, transfer=1.0
)


class TestEventClock:
    def test_starts_at_zero_and_advances(self):
        clock = EventClock()
        assert clock.now == 0.0
        clock.advance_to(5.0)
        clock.advance_to(5.0)  # standing still is allowed
        assert clock.now == 5.0

    def test_backwards_is_an_error(self):
        clock = EventClock()
        clock.advance_to(3.0)
        with pytest.raises(DiskError):
            clock.advance_to(2.0)


class TestIssueAndComplete:
    def make(self, n_devices=2, pages=100):
        disk = MultiDeviceDisk(n_devices=n_devices, pages_per_device=pages)
        return disk, AsyncIOEngine(disk, LINEAR)

    def test_single_disk_is_one_device(self):
        disk = SimulatedDisk(n_pages=50)
        engine = AsyncIOEngine(disk, LINEAR)
        assert engine.n_devices == 1
        assert engine.device_of(42) == 0

    def test_bad_device_raises(self):
        _disk, engine = self.make()
        with pytest.raises(DiskError):
            engine.issue(7, None)

    def test_wait_with_nothing_in_flight_raises(self):
        _disk, engine = self.make()
        with pytest.raises(DiskError):
            engine.wait_next()

    def test_physical_read_priced_by_cost_model(self):
        disk, engine = self.make()
        io = engine.issue(0, lambda: disk.read(10))
        # head 0 -> 10: distance 10, one page: 10 + 1 = 11 ms.
        assert io.physical_reads == 1
        assert io.pages_read == 1
        assert io.complete_time == 11.0
        assert engine.wait_next() is io
        assert engine.elapsed == 11.0
        assert engine.busy_time(0) == 11.0

    def test_zero_read_issue_completes_immediately(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))
        io = engine.issue(0, None, payload="cpu-only")
        assert io.physical_reads == 0
        assert io.complete_time == 0.0
        assert io.payload == "cpu-only"
        # The zero-read completion comes first; the device keeps busy.
        assert engine.wait_next() is io
        assert engine.elapsed == 0.0
        assert engine.zero_read_issues == 1

    def test_serialized_issues_queue_on_the_device(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))  # 0 -> 10: 11 ms
        engine.issue(0, lambda: disk.read(20))  # 10 -> 20: 11 ms
        first = engine.wait_next()
        second = engine.wait_next()
        assert first.complete_time == 11.0
        assert second.start_time == 11.0
        assert second.complete_time == 22.0
        assert engine.elapsed == 22.0

    def test_devices_overlap_elapsed_is_max_not_sum(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))    # 11 ms on device 0
        engine.issue(1, lambda: disk.read(130))   # 31 ms on device 1
        engine.wait_next()
        engine.wait_next()
        assert engine.busy_time() == 42.0
        assert engine.elapsed == 31.0  # max, not 42
        assert engine.utilization(0) == pytest.approx(11.0 / 31.0)
        assert engine.utilization(1) == pytest.approx(1.0)

    def test_in_flight_counts_per_device(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))
        engine.issue(0, lambda: disk.read(20))
        engine.issue(1, lambda: disk.read(110))
        assert engine.in_flight(0) == 2
        assert engine.in_flight(1) == 1
        assert engine.in_flight() == 3
        assert not engine.idle()
        for _ in range(3):
            engine.wait_next()
        assert engine.idle()

    def test_run_read_priced_as_one_positioning(self):
        disk, engine = self.make()
        io = engine.issue(0, lambda: disk.read_run(10, 4))
        # distance 10 + 4 transferred pages = 14 ms, one physical read.
        assert io.physical_reads == 1
        assert io.pages_read == 4
        assert io.complete_time == 14.0

    def test_busy_ms_mirrored_into_disk_stats(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))
        engine.issue(1, lambda: disk.read(130))
        assert disk.stats.busy_ms == 42.0
        assert disk.device_stats[0].busy_ms == 11.0
        assert disk.device_stats[1].busy_ms == 31.0

    def test_read_outside_issue_is_not_billed_to_a_request(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))
        disk.read(20)  # outside the engine: no bracket is open
        io = engine.issue(0, lambda: disk.read(30))
        # Only the bracketed read (20 -> 30, one page) is this request's,
        # and the device timeline holds the two requests back to back.
        assert io.physical_reads == 1
        assert io.pages_read == 1
        assert (io.start_time, io.complete_time) == (11.0, 22.0)

    def test_raising_io_fn_schedules_and_charges_nothing(self):
        disk, engine = self.make()

        def read_then_fail():
            disk.read(10)
            disk.read(10_000)

        with pytest.raises(DiskError):
            engine.issue(0, read_then_fail)
        # Nothing scheduled, nothing on the device timeline, and the
        # bracket is closed again: the next request starts at time zero
        # and is billed its own read only.
        assert engine.idle()
        assert engine.issues == 0
        assert engine.busy_time() == 0.0
        assert disk.stats.busy_ms == 0.0
        io = engine.issue(0, lambda: disk.read(12))
        assert (io.start_time, io.complete_time) == (0.0, 3.0)
        assert io.physical_reads == 1

    def test_spend_cpu_overlaps_in_flight_io(self):
        disk, engine = self.make()
        engine.issue(0, lambda: disk.read(10))  # completes at 11 ms
        engine.spend_cpu(25.0)
        assert engine.elapsed == 25.0
        # The completion is in the past: delivered without rewinding.
        io = engine.wait_next()
        assert io.complete_time == 11.0
        assert engine.elapsed == 25.0
        assert engine.cpu_time == 25.0

    def test_negative_cpu_raises(self):
        _disk, engine = self.make()
        with pytest.raises(DiskError):
            engine.spend_cpu(-1.0)
