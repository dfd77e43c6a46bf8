"""The event-driven I/O engine: clock, timelines, overlap accounting,
and the ready lane checked against a single completion heap."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DiskError
from repro.storage.costmodel import CostModel, DeviceLedger
from repro.storage.disk import SimulatedDisk
from repro.storage.events import AsyncIOEngine, EventClock
from repro.storage.multidisk import MultiDeviceDisk

class Linear(CostModel):
    """Distance + one ms per transferred page: easy arithmetic in tests."""

    seek_per_page = 1.0
    settle = 0.0
    rotational_latency = 0.0
    transfer = 1.0


LINEAR = Linear()


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
        assert engine.ledger.busy_time[0] == 11.0

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
        assert list(engine.in_flight_by_device) == [2, 1]
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


class HeapEngine:
    """The engine before the ready lane: every request on one heap.

    The oracle for :class:`TestReadyLane`.  It prices reads through its
    own :class:`DeviceLedger` bracket exactly as the engine does, and
    orders every completion — reads or none — by ``(complete, handle)``
    on a single heap.
    """

    def __init__(self, disk, cost_model):
        self.disk = disk
        self.ledger = DeviceLedger(disk.n_devices, cost_model)
        self.tap = self.ledger.record
        self.now = 0.0
        self.in_flight = [0] * disk.n_devices
        self.heap = []
        self.next_handle = 0
        self.issues = 0
        self.zero_read_issues = 0

    def issue(self, device, io_fn):
        start = complete = self.now
        reads = 0
        if io_fn is not None:
            start = max(self.now, self.ledger.busy_until[device])
            mark = self.ledger.mark(start, None)
            self.disk.add_read_tap(self.tap)
            try:
                io_fn()
            finally:
                self.disk.remove_read_tap(self.tap)
                reads, pages, end, _injected = self.ledger.since(mark, None)
            if reads:
                complete = end
                self.ledger.occupy(device, start, complete, pages)
        if not reads:
            self.zero_read_issues += 1
        heapq.heappush(self.heap, (complete, self.next_handle, device))
        self.next_handle += 1
        self.in_flight[device] += 1
        self.issues += 1

    def wait_next(self):
        complete, handle, device = heapq.heappop(self.heap)
        self.now = max(self.now, complete)
        self.in_flight[device] -= 1
        return handle


class LaneFirstEngine(AsyncIOEngine):
    """A wrong merge: drains the ready lane before looking at the heap."""

    def wait_next(self):
        if self._ready:
            self._in_flight[self._ready[0][2].device] -= 1
            return self._ready.popleft()[2]
        return super().wait_next()


PAGES_PER_DEVICE = 40

#: one step of an engine program.
OPS = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 3),
              st.integers(0, PAGES_PER_DEVICE - 1)),
    st.tuples(st.just("none"), st.integers(0, 3)),
    st.tuples(st.just("no-read"), st.integers(0, 3)),
    st.tuples(st.just("cpu"), st.integers(0, 30)),
    st.tuples(st.just("until"), st.integers(0, 60)),
    st.tuples(st.just("wait"),),
)


def check_against_heap(engine_cls, n_devices, program):
    """Run ``program`` on both engines, comparing after every step."""
    disks = [
        MultiDeviceDisk(n_devices=n_devices, pages_per_device=PAGES_PER_DEVICE)
        for _ in range(2)
    ]
    engine = engine_cls(disks[0], LINEAR)
    oracle = HeapEngine(disks[1], LINEAR)
    delivered, expected = [], []
    for op in program:
        kind = op[0]
        if kind in ("read", "none", "no-read"):
            device = op[1] % n_devices
            if kind == "read":
                page = device * PAGES_PER_DEVICE + op[2]
                fns = [lambda d=disk: d.read(page) for disk in disks]
            elif kind == "none":
                fns = [None, None]
            else:
                fns = [lambda: None, lambda: None]
            engine.issue(device, fns[0])
            oracle.issue(device, fns[1])
        elif kind == "cpu":
            engine.spend_cpu(float(op[1]))
            oracle.now += op[1]
        elif kind == "until":
            engine.wait_until(float(op[1]))
            oracle.now = max(oracle.now, op[1])
        elif not engine.idle():
            delivered.append((engine.wait_next().handle, engine.clock.now))
            expected.append((oracle.wait_next(), oracle.now))
        assert delivered == expected
        assert engine.clock.now == oracle.now
        assert list(engine.in_flight_by_device) == oracle.in_flight
        for device in range(n_devices):
            assert engine.ledger.busy_time[device] == oracle.ledger.busy_time[device]
        assert engine.idle() == (not oracle.heap)
        assert engine.issues == oracle.issues
        assert engine.zero_read_issues == oracle.zero_read_issues


class TestReadyLane:
    """Zero-read requests on a FIFO lane deliver in one heap's order."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_devices=st.integers(1, 4),
        program=st.lists(OPS, min_size=20, max_size=80),
    )
    def test_lane_and_heap_merge_like_one_heap(self, n_devices, program):
        check_against_heap(AsyncIOEngine, n_devices, program)

    def test_lane_first_merge_is_caught(self):
        # A read completing at 11 ms, CPU past it to 25 ms, then a
        # zero-read request at 25 ms: the read must come out first.
        program = [("read", 0, 10), ("cpu", 25), ("none", 0), ("wait",)]
        check_against_heap(AsyncIOEngine, 1, program)
        with pytest.raises(AssertionError):
            check_against_heap(LaneFirstEngine, 1, program)

    def test_equal_completion_times_tie_by_handle(self):
        # The read completes at exactly the lane entry's time: the
        # earlier handle (the read) is delivered first.
        program = [("read", 0, 10), ("cpu", 11), ("none", 0),
                   ("wait",), ("wait",)]
        check_against_heap(AsyncIOEngine, 1, program)
        with pytest.raises(AssertionError):
            check_against_heap(LaneFirstEngine, 1, program)
