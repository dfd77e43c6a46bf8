"""Tests for multi-device assembly (Section 7 future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, deepest_device
from repro.core.schedulers import UnresolvedReference
from repro.core.template import TemplateNode
from repro.errors import DiskError, SchedulerError
from repro.storage.buffer import BufferManager
from repro.storage.faults import DeviceHealthTracker
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.service.device_server import DeviceServer
from repro.workloads.acob import (
    generate_acob,
    make_template,
    payload_predicate,
)

NODE = TemplateNode("n")


def ref(serial, page, owner=0, seq=0):
    from repro.storage.oid import Oid

    return UnresolvedReference(
        oid=Oid(1, serial),
        page_id=page,
        owner=owner,
        node=NODE,
        parent=None,
        parent_slot=-1,
        seq=seq,
    )


class TestScheduler:
    def make(self, n_devices=2, pages=100):
        disk = MultiDeviceDisk(n_devices=n_devices, pages_per_device=pages)
        return disk, MultiDeviceScheduler(disk)

    def test_routes_by_device(self):
        _disk, scheduler = self.make()
        scheduler.add(ref(1, page=5))
        scheduler.add(ref(2, page=105))
        assert scheduler.queue_depths() == [1, 1]

    def test_longest_queue_first(self):
        _disk, scheduler = self.make()
        scheduler.add(ref(1, page=5, seq=1))
        scheduler.add(ref(2, page=6, seq=2))
        scheduler.add(ref(3, page=105, seq=3))
        # Device 0 has the deeper queue: serve it first.
        assert scheduler.pop().page_id in (5, 6)

    def test_ties_rotate(self):
        _disk, scheduler = self.make()
        scheduler.add(ref(1, page=5, seq=1))
        scheduler.add(ref(2, page=105, seq=2))
        first = scheduler.pop()
        first_device = 0 if first.page_id < 100 else 1
        # Refill the served device; depths tie again at 1:1.
        scheduler.add(ref(3, page=first.page_id, seq=3))
        second = scheduler.pop()
        second_device = 0 if second.page_id < 100 else 1
        # The tie must go to the device not just served.
        assert second_device != first_device

    def test_each_device_sweeps_its_own_head(self):
        disk, scheduler = self.make()
        for serial, page in ((1, 10), (2, 90), (3, 110), (4, 190)):
            scheduler.add(ref(serial, page=page, seq=serial))
        order = []
        while len(scheduler):
            popped = scheduler.pop()
            disk.read(popped.page_id)
            order.append(popped.page_id)
        # Within each device, pages come in sweep order.
        dev0 = [p for p in order if p < 100]
        dev1 = [p for p in order if p >= 100]
        assert dev0 == sorted(dev0)
        assert dev1 == sorted(dev1)

    def test_remove_owner_spans_devices(self):
        _disk, scheduler = self.make()
        scheduler.add(ref(1, page=5, owner=7, seq=1))
        scheduler.add(ref(2, page=105, owner=7, seq=2))
        scheduler.add(ref(3, page=6, owner=8, seq=3))
        before = scheduler.ops
        removed = scheduler.remove_owner(7)
        assert len(removed) == 2
        assert len(scheduler) == 1
        # The module contract: one operation per reference retracted,
        # wherever it was queued — and none for an owner with nothing.
        assert scheduler.ops == before + 2
        assert scheduler.remove_owner(7) == []
        assert scheduler.ops == before + 2

    def test_empty_pop(self):
        _disk, scheduler = self.make()
        with pytest.raises(SchedulerError):
            scheduler.pop()

    def test_page_off_the_disk_is_refused(self):
        _disk, scheduler = self.make()
        for page in (-1, 200):
            with pytest.raises(DiskError):
                scheduler.add(ref(1, page=page))
        assert scheduler.queue_depths() == [0, 0]
        assert len(scheduler) == 0

    def test_queue_depths_is_a_live_view(self):
        _disk, scheduler = self.make()
        depths = scheduler.queue_depths()
        scheduler.add(ref(1, page=105))
        assert depths == [0, 1]
        scheduler.pop_on(1)
        assert depths == [0, 0]


PAGES_PER_DEVICE = 8

#: one operation of a scheduler program: its name and its draws.
OPERATIONS = st.one_of(
    st.tuples(
        st.just("add"), st.integers(0, 4 * PAGES_PER_DEVICE - 1),
        st.integers(0, 3),
    ),
    st.tuples(
        st.just("add_siblings"),
        st.lists(st.integers(0, 4 * PAGES_PER_DEVICE - 1), max_size=4),
        st.integers(0, 3),
    ),
    st.tuples(st.just("pop")),
    st.tuples(st.just("pop_batch"), st.integers(1, 4)),
    st.tuples(st.just("pop_on"), st.integers(0, 3)),
    st.tuples(st.just("pop_batch_on"), st.integers(0, 3), st.integers(1, 4)),
    st.tuples(st.just("remove_owner"), st.integers(0, 3)),
)


class TestLiveDepths:
    """The scheduler's depth list against its queues, after every
    operation of random programs."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_devices=st.integers(1, 4),
        program=st.lists(OPERATIONS, max_size=60),
    )
    def test_depths_match_the_queues(self, n_devices, program):
        disk = MultiDeviceDisk(
            n_devices=n_devices, pages_per_device=PAGES_PER_DEVICE
        )
        scheduler = MultiDeviceScheduler(disk)
        pages = n_devices * PAGES_PER_DEVICE
        seq = 0
        for op, *args in program:
            if op == "add":
                seq += 1
                scheduler.add(ref(seq, args[0] % pages, args[1], seq))
            elif op == "add_siblings":
                refs = []
                for page in args[0]:
                    seq += 1
                    refs.append(ref(seq, page % pages, args[1], seq))
                scheduler.add_siblings(refs)
            elif op == "remove_owner":
                scheduler.remove_owner(args[0])
            else:
                if op in ("pop_on", "pop_batch_on"):
                    args[0] %= n_devices
                try:
                    getattr(scheduler, op)(*args)
                except SchedulerError:
                    pass  # an empty pool or device refuses, unchanged
            depths = scheduler.queue_depths()
            assert depths == [len(queue) for queue in scheduler._queues]
            assert len(scheduler) == sum(depths)


class TestReopeningWatermark:
    """``reopened_by`` bounds every quarantine the tracker ever set."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_devices=st.integers(1, 4),
        events=st.lists(
            st.tuples(
                st.sampled_from(["failure", "down", "success"]),
                st.integers(0, 4),
                st.floats(0.0, 500.0),
                st.floats(0.0, 200.0),
            ),
            max_size=40,
        ),
    )
    def test_no_device_is_quarantined_past_the_watermark(
        self, n_devices, events
    ):
        health = DeviceHealthTracker(n_devices, cooldown=50.0)
        devices = range(n_devices + 1)  # one past: created on first touch
        for kind, device, when, outage in events:
            device %= n_devices + 1
            if kind == "success":
                health.record_success(device)
            elif kind == "down":
                health.record_failure(
                    device, now=when, retry_after=when + outage
                )
            else:
                health.record_failure(device, now=when)
            for d in devices:
                assert health.reopened_by >= health.quarantined_until(d)
            for now in (health.reopened_by, health.reopened_by + 1.0):
                assert all(health.available(d, now) for d in devices)


class ParentPicks:
    """The three deepest-queue scans :func:`deepest_device` replaced,
    kept verbatim: the scheduler's rotating pick, the overlapped
    driver's inline scan and the device server's pick with its probe.
    Each reads the attributes its owner gave it."""

    def __init__(self, depths, turn, health, now):
        self._depths = list(depths)
        self._turn = turn
        self._queues = [[None] * depth for depth in depths]
        self.health = health
        self.now = now

    def fault_now(self):
        return self.now

    @property
    def store(self):
        return self  # ``self.store.disk.fault_now()``

    @property
    def disk(self):
        return self

    def _deepest_queue(self) -> int:
        # Longest queue first; ties rotate so no device starves.
        depths = self._depths
        best = None
        best_depth = -1
        n = len(depths)
        for offset in range(n):
            index = (self._turn + offset) % n
            depth = depths[index]
            if depth > best_depth:
                best = index
                best_depth = depth
        assert best is not None and best_depth > 0
        self._turn = (best + 1) % n
        return best

    def pipelined_scan(self, in_flight, issue_depth) -> int:
        depths = self._depths
        now = self.now
        available = self.health.available
        reopened_by = self.health.reopened_by
        best, best_depth = -1, 0
        for device, depth in enumerate(depths):
            if (
                depth > best_depth
                and in_flight[device] < issue_depth
                and (now >= reopened_by or available(device, now))
            ):
                best, best_depth = device, depth
        return best

    def _deepest_device(self) -> int:
        if len(self._queues) == 1:
            return 0
        now = self.store.disk.fault_now()
        best = None
        best_depth = 0
        probe = None
        probe_recovery = None
        for device, queue in enumerate(self._queues):
            depth = len(queue)
            if depth == 0:
                continue
            if not self.health.available(device, now):
                recovery = self.health.quarantined_until(device)
                if probe_recovery is None or recovery < probe_recovery:
                    probe, probe_recovery = device, recovery
                continue
            if depth > best_depth:
                best, best_depth = device, depth
        if best is None:
            best = probe
        if best is None:
            raise SchedulerError("device server pool is empty")
        return best


#: breaker events over devices 0..6: (kind, device, when, outage).
BREAKER_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["failure", "down", "success"]),
        st.integers(0, 6),
        st.floats(0.0, 300.0),
        st.floats(0.0, 200.0),
    ),
    max_size=12,
)


class TestOnePickRule:
    """:func:`deepest_device` picks what each parent scan picked."""

    @settings(max_examples=400, deadline=None)
    @given(
        depths=st.lists(st.integers(0, 5), min_size=1, max_size=7),
        flights=st.lists(st.integers(0, 3), min_size=7, max_size=7),
        cap=st.integers(1, 3),
        events=BREAKER_EVENTS,
        start=st.integers(0, 6),
        now=st.floats(0.0, 600.0),
    )
    def test_each_driver_picks_what_its_parent_scan_picked(
        self, depths, flights, cap, events, start, now
    ):
        n = len(depths)
        start %= n
        in_flight = flights[:n]
        health = DeviceHealthTracker(n, failure_threshold=2, cooldown=50.0)
        for kind, device, when, outage in events:
            device %= n
            if kind == "success":
                health.record_success(device)
            elif kind == "down":
                health.record_failure(
                    device, now=when, retry_after=when + outage
                )
            else:
                health.record_failure(device, now=when)
        parent = ParentPicks(depths, start, health, now)
        idle = [0] * n

        # The overlapped driver: start 0, its in-flight cap, the breaker.
        assert deepest_device(
            depths, 0, in_flight, cap, health, now
        ) == parent.pipelined_scan(in_flight, cap)
        if not any(depths):
            assert deepest_device(depths, start, idle, 1, None, 0.0) == -1
            return

        # The synchronous pop: rotation from ``start``, no cap or breaker.
        assert deepest_device(
            depths, start, idle, 1, None, 0.0
        ) == parent._deepest_queue()

        # The device server: start 0, the breaker on the op clock read
        # once a breaker has opened, the probe when nothing qualifies.
        server_now = now if health.reopened_by else 0.0
        picked = deepest_device(depths, 0, idle, 1, health, server_now)
        if picked < 0:
            picked = DeviceServer._probe(parent)
        assert picked == parent._deepest_device()


def abort_heavy_ops(scheduler_of, n=120):
    """``(scheduler_ops, aborted)`` of an eager, half-rejecting run on
    a single-device disk under the pool ``scheduler_of(disk)`` names."""
    db = generate_acob(n, seed=2)
    disk = MultiDeviceDisk(n_devices=1, pages_per_device=7 * 64 + 128)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, InterObjectClustering(cluster_pages=64)
    )
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(
            db, predicate_position=3, predicate=payload_predicate(0.5)
        ),
        window_size=20,
        scheduler=scheduler_of(disk),
        selective=False,
    )
    operator.execute()
    return operator.stats.scheduler_ops, operator.stats.aborted


def run_assembly(n_devices, window, n=300):
    db = generate_acob(n, seed=2)
    disk = MultiDeviceDisk(
        n_devices=n_devices,
        pages_per_device=(7 * 64) // n_devices + 128,
    )
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window,
        scheduler=MultiDeviceScheduler(disk),
    )
    emitted = operator.execute()
    assert len(emitted) == n
    for cobj in emitted:
        cobj.verify_swizzled()
    return disk


class TestMultiDeviceAssembly:
    def test_correctness(self):
        disk = run_assembly(n_devices=3, window=10)
        assert sum(s.reads for s in disk.device_stats) == disk.stats.reads

    def test_parallelism_reduces_critical_path(self):
        """Striping across devices cuts the max per-device seek total —
        the wall-clock proxy when devices work concurrently."""
        single = run_assembly(n_devices=1, window=40)
        striped = run_assembly(n_devices=4, window=40)
        single_critical = max(
            s.read_seek_total for s in single.device_stats
        )
        striped_critical = max(
            s.read_seek_total for s in striped.device_stats
        )
        assert striped_critical < single_critical

    def test_aborts_cost_what_they_cost_the_single_elevator(self):
        """On one device the multi-device pool *is* one elevator, so an
        abort-heavy run must count the same operations — retractions
        included, which the outer pool used to leave out."""
        multi_ops, aborted = abort_heavy_ops(MultiDeviceScheduler)
        assert aborted > 0
        assert (multi_ops, aborted) == abort_heavy_ops(lambda _disk: "elevator")

    def test_reads_spread_across_devices(self):
        disk = run_assembly(n_devices=4, window=20)
        busy = [s.reads for s in disk.device_stats if s.reads > 0]
        assert len(busy) == 4
