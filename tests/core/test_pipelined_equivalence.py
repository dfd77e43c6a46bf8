"""The overlapped driver against the loop it replaced.

:class:`OracleDriver` keeps the earlier ``run`` / ``_issue_ready`` /
``_issue`` of :class:`~repro.core.multidevice.PipelinedAssembly`
verbatim: it asks every device's depth afresh once per completion,
asks the circuit breaker about every candidate device, pins through
one ``_issue`` for resident and read batches alike and tests
``engine.idle()``.  The one change: it copies
``scheduler.queue_depths()``, which is now the scheduler's own live
list, before decrementing its snapshot in place.

The property drives both over random device counts, issue depths,
batch widths, CPU charges, tight buffers (so that pin-bound fallbacks
run) and fault schedules with transient errors and outages (so that
requeues, breaker openings and quarantine waits run), and requires
identical whole-run summaries.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering, Unclustered
from repro.core.assembled import AssembledComplexObject
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.core.schedulers import ReferenceScheduler, UnresolvedReference
from repro.errors import (
    BufferFullError,
    DeviceDownError,
    ReproError,
    TransientReadError,
)
from repro.iterator import ListSource
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import (
    DownInterval,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob, make_template

N = 24
WINDOW = 6
#: frames that the window's own pins nearly fill once clustered pages
#: are in flight: batches overflow the pin bound and fall back.
TIGHT = 34
#: engine ``issue`` calls after which a drive counts as a runaway.
ISSUE_BUDGET = 20_000


class OracleDriver(PipelinedAssembly):
    """The earlier issue loop, kept as the reference."""

    def _issue_ready(self, scheduler: ReferenceScheduler) -> None:
        """Issue batches until every pending device is at issue depth."""
        engine = self._engine
        batch_pages = self._batch_pages
        issue_depth = self._issue_depth
        available = self.health.available
        in_flight = self._in_flight
        now = engine.clock.now  # issuing does not move the clock
        depths = list(scheduler.queue_depths())
        while True:
            best, best_depth = -1, 0
            for device, depth in enumerate(depths):
                if (
                    depth > best_depth
                    and in_flight[device] < issue_depth
                    and available(device, now)
                ):
                    best, best_depth = device, depth
            if best < 0:
                break
            if batch_pages == 1:
                batch = [scheduler.pop_on(best)]
            else:
                batch = scheduler.pop_batch_on(best, batch_pages)
            if self._issue(best, batch):
                # A fallback may have added references on any device.
                depths = list(scheduler.queue_depths())
            else:
                depths[best] -= len(batch)
        self.stats.max_in_flight = max(
            self.stats.max_in_flight, sum(in_flight)
        )

    def _issue(self, device: int, batch: List[UnresolvedReference]) -> bool:
        """Issue one popped batch; True if it took a fallback instead."""
        engine = self._engine
        stats = self.stats
        pages = self._assembly.fetch_pages(batch)
        stats.issued += 1
        buffer = self._buffer
        is_resident = buffer.is_resident
        for page_id in pages:
            if not is_resident(page_id):
                break
        else:
            # Nothing reads, so nothing can fault: pin and complete at
            # "now".  Plain fixes suffice: every page already holds a
            # frame, so fix_many's admission test (immovable + distinct
            # <= frames <= capacity) could not fail.
            for page_id in pages:
                buffer.fix(page_id)
            if pages and engine.disk.fault_injector is not None:
                self.health.record_success(device)
            engine.issue(device, None, payload=(batch, pages))
            stats.zero_read_issues += 1
            return False
        try:
            io = engine.issue(
                device,
                self._fix_with_retry(device, pages),
                payload=(batch, pages),
            )
        except BufferFullError:
            # The pin bound cannot take the whole batch: degrade to
            # per-reference fetching.
            stats.sync_fallbacks += 1
            self._resolve_on_timeline(device, batch)
        except DeviceDownError as exc:
            # Quarantine the device and put the sweep back in the pool;
            # it re-issues once the circuit breaker reopens.
            self.health.record_failure(
                device, now=engine.clock.now, retry_after=exc.retry_after
            )
            stats.fault_requeues += len(batch)
            self._assembly.requeue(batch)
        except TransientReadError:
            # Issue-time retries ran out: the operator's retry policy
            # and degradation mode decide.
            self.health.record_failure(device, now=engine.clock.now)
            stats.fault_fallbacks += 1
            self._resolve_on_timeline(device, batch)
        else:
            if io.physical_reads:
                stats.physical_issues += 1
            else:
                stats.zero_read_issues += 1
            return False
        return True

    def run(self) -> List[AssembledComplexObject]:
        """Drive the operator to completion; returns everything emitted."""
        assembly = self._assembly
        if not assembly.is_open:
            assembly.open()
        engine = self._engine
        scheduler = assembly.scheduler
        unfix = self._buffer.unfix
        out: List[AssembledComplexObject] = []
        try:
            while True:
                self._issue_ready(scheduler)
                if engine.idle():
                    now = engine.clock.now
                    recovery = (
                        self.health.next_recovery(now)
                        if any(scheduler.queue_depths())
                        else None
                    )
                    if recovery is not None:
                        # References pending but nothing issuable:
                        # every pending device is quarantined.  Let
                        # simulated time pass to the earliest recovery.
                        self.stats.quarantine_wait_ms += recovery - now
                        engine.wait_until(recovery)
                    else:
                        out.extend(assembly.drain_emitted())
                        if assembly.is_drained():
                            break
                        # Window still occupied: deferred references
                        # must run now (raises if truly stalled,
                        # mirroring the synchronous safety valve).
                        assembly.release_stuck_deferred()
                    continue
                batch, pinned = engine.wait_next().payload
                try:
                    if batch:
                        assembly.resolve_external_batch(batch)
                finally:
                    for page_id in pinned:
                        unfix(page_id)
                if self._cpu_ms_per_ref and batch:
                    engine.spend_cpu(self._cpu_ms_per_ref * len(batch))
        finally:
            # Only an escaping exception finds requests still in
            # flight: their pins go back to the buffer and their
            # references to the pool, so whoever catches it can close
            # (or keep serving) without leaking either.
            while not engine.idle():
                batch, pinned = engine.wait_next().payload
                for page_id in pinned:
                    unfix(page_id)
                assembly.requeue(batch)
        assembly.close()
        return out


class RunawayError(ReproError):
    """A drive issued more requests than any terminating drive would."""


class BudgetedEngine(AsyncIOEngine):
    """Stops a drive that keeps issuing without making progress."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.issue_calls = 0

    def issue(self, device, io_fn=None, payload=None):
        self.issue_calls += 1
        if self.issue_calls > ISSUE_BUDGET:
            raise RunawayError("issue budget exhausted")
        return super().issue(device, io_fn, payload)


def drive(driver_cls, case):
    """One whole drive under ``case``; everything it leaves behind."""
    db = generate_acob(N, seed=2)
    template = make_template(db)
    disk = MultiDeviceDisk(
        n_devices=case["n_devices"], pages_per_device=1024
    )
    buffer = BufferManager(disk, capacity=case["capacity"])
    store = ObjectStore(disk, buffer)
    policy = (
        InterObjectClustering(
            cluster_pages=16, disk_order=db.type_ids_depth_first()
        )
        if case["clustered"]
        else Unclustered()
    )
    layout = layout_database(
        db.complex_objects, store, policy, shared=db.shared_pool
    )
    buffer.drop_clean()
    buffer.reset_stats()
    disk.reset_stats()
    injector = None
    if case["faults"] is not None:
        injector = FaultInjector(case["faults"]).attach(disk)
    operator = Assembly(
        ListSource(layout.root_order), store, template,
        window_size=WINDOW, scheduler=MultiDeviceScheduler(disk),
        retry_policy=RetryPolicy(max_retries=3),
    )
    engine = BudgetedEngine(disk, CostModel())
    driver = driver_cls(
        operator, engine,
        issue_depth=case["issue_depth"],
        batch_pages=case["batch_pages"],
        cpu_ms_per_ref=case["cpu_ms_per_ref"],
        retry_policy=RetryPolicy(max_retries=case["issue_retries"]),
    )
    try:
        emitted = [c.root_oid for c in driver.run()]
    except ReproError as exc:
        emitted = ("raised", type(exc).__name__, str(exc))
    return {
        "emitted": emitted,
        "buffer": asdict(buffer.stats),
        "pinned": buffer.pinned_pages,
        "disk": asdict(disk.stats),
        "elapsed": engine.elapsed,
        "issues": engine.issues,
        "zero_read_issues": engine.zero_read_issues,
        "busy": [engine.busy_time(d) for d in range(engine.n_devices)],
        "pipeline": asdict(driver.stats),
        "operator": asdict(operator.stats),
        "health": driver.health.snapshot(),
        "injected": None if injector is None else asdict(injector.stats),
    }


@st.composite
def fault_configs(draw, n_devices):
    """``None``, or transient errors and outages on the engine clock."""
    if not draw(st.booleans()):
        return None
    outages = tuple(
        DownInterval(device=device, start=start, end=start + length)
        for device, start, length in draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_devices - 1),
                    st.sampled_from([0.0, 20.0, 150.0]),
                    st.sampled_from([40.0, 300.0]),
                ),
                max_size=2,
            )
        )
    )
    return FaultConfig(
        seed=draw(st.integers(0, 50)),
        read_error_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        max_consecutive_failures=2,
        latency_spike_rate=draw(st.sampled_from([0.0, 0.1])),
        down_intervals=outages,
    )


@st.composite
def cases(draw):
    n_devices = draw(st.integers(1, 4))
    return {
        "n_devices": n_devices,
        "clustered": draw(st.booleans()),
        "issue_depth": draw(st.integers(1, 3)),
        "batch_pages": draw(st.integers(1, 4)),
        "cpu_ms_per_ref": draw(st.sampled_from([0.0, 0.05])),
        "capacity": draw(st.sampled_from([None, TIGHT, TIGHT + 2, 40])),
        "issue_retries": draw(st.integers(0, 2)),
        "faults": draw(fault_configs(n_devices)),
    }


class TestAgainstTheEarlierLoop:
    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_whole_runs_agree(self, case):
        assert drive(PipelinedAssembly, case) == drive(OracleDriver, case)

    def test_the_draw_reaches_every_fallback(self):
        """The property's space holds pin-bound fallbacks, requeues,
        exhausted retries and quarantine waits (fixed witnesses)."""
        outage = DownInterval(device=1, start=0.0, end=300.0)
        reached = drive(PipelinedAssembly, {
            "n_devices": 2, "clustered": True,
            "issue_depth": 2, "batch_pages": 4, "cpu_ms_per_ref": 0.0,
            "capacity": TIGHT, "issue_retries": 0,
            "faults": FaultConfig(
                seed=3, read_error_rate=0.3, down_intervals=(outage,)
            ),
        })
        pipeline = reached["pipeline"]
        assert isinstance(reached["emitted"], list)
        assert pipeline["sync_fallbacks"] > 0
        assert pipeline["fault_requeues"] > 0
        assert pipeline["fault_fallbacks"] > 0
        assert pipeline["quarantine_wait_ms"] > 0
