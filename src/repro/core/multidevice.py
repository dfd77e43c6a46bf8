"""Per-device request queues and the one rule that picks among them (§7).

Pairs with :class:`repro.storage.multidisk.MultiDeviceDisk`: one
elevator queue per device ("each server would maintain a queue of
requests"), each sweeping its own device's head.

Because every queue orders only its own device's fetches against its
own head, devices never perturb each other's sweeps — the multi-device
generalization of exclusive device control.

Every driver serves the device with the **deepest queue**, through
:func:`deepest_device`.  Elevator sweeps pay off in proportion to queue
depth, so an equal (round-robin) service rate is counterproductive: it
drains the low-traffic devices to depth zero and their sweeps
degenerate to random seeks.  Longest-queue-first keeps every device's
backlog — and therefore every device's sweep quality — as deep as the
reference flow allows, which is also how a real asynchronous server
array behaves (each server works off its own backlog; the operator
consumes completions as they arrive).  The synchronous pop rotates
ties; the overlapped driver and the device server
(:mod:`repro.service.device_server`, pooling in one
:class:`MultiDeviceScheduler`) send them to the lowest device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.assembled import AssembledComplexObject
from repro.core.assembly import Assembly
from repro.core.schedulers import (
    ElevatorScheduler,
    ReferenceScheduler,
    UnresolvedReference,
)
from repro.errors import (
    AssemblyError,
    BufferFullError,
    DeviceDownError,
    DiskError,
    TransientReadError,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import DeviceHealthTracker, RetryPolicy


def deepest_device(
    depths: Sequence[int],
    start: int,
    in_flight: Sequence[int],
    cap: int,
    health: Optional[DeviceHealthTracker],
    now: float,
) -> int:
    """The deepest device with references pending, fewer than ``cap``
    in flight and available at ``now`` under ``health``; -1 if none.

    Ties go to the first in ``start, …, n-1, 0, …, start-1``.  The
    breaker is asked only below its ``reopened_by`` watermark.
    """
    n = len(depths)
    order = [*range(start, n), *range(start)] if start else range(n)
    gated = health is not None and now < health.reopened_by
    best, best_depth = -1, 0
    for device in order:
        depth = depths[device]
        if (
            depth > best_depth
            and in_flight[device] < cap
            and (not gated or health.available(device, now))
        ):
            best, best_depth = device, depth
    return best


class MultiDeviceScheduler(ReferenceScheduler):
    """One elevator per device of any disk; ``pop`` serves the deepest
    queue, ties rotating past the device served last.

    The scheduler keeps every device's pending count in one list,
    updated by each operation that adds or takes references, so
    :func:`deepest_device` reads depths without asking any queue.
    """

    name = "multi-device"

    def __init__(self, disk: SimulatedDisk) -> None:
        super().__init__()
        self._queues = [
            ElevatorScheduler(disk.head_probe(device))
            for device in range(disk.n_devices)
        ]
        self._n_devices = disk.n_devices
        self._depths = [0] * disk.n_devices
        #: nothing is ever in flight for a synchronous pop.
        self._idle = [0] * disk.n_devices
        self._pages_per_device = disk.pages_per_device
        self._turn = 0

    # -- pool maintenance -----------------------------------------------------

    def add(self, ref: UnresolvedReference) -> None:
        self.ops += 1
        page_id = ref.page_id
        device = page_id // self._pages_per_device
        if page_id < 0 or device >= self._n_devices:
            raise DiskError(f"page {page_id} is on no device of this disk")
        self._queues[device].add(ref)
        self._depths[device] += 1

    def pop(self) -> UnresolvedReference:
        self.require_nonempty()
        device = deepest_device(
            self._depths, self._turn, self._idle, 1, None, 0.0
        )
        self._turn = (device + 1) % self._n_devices
        return self.pop_on(device)

    def pop_batch(self, max_pages: int = 1) -> List[UnresolvedReference]:
        """Batch from the deepest device's sweep.

        Each per-device queue holds only its own device's pages, so a
        batch never mixes devices and its contiguous run stops at the
        device boundary by construction.
        """
        self.require_nonempty()
        device = deepest_device(
            self._depths, self._turn, self._idle, 1, None, 0.0
        )
        self._turn = (device + 1) % self._n_devices
        return self.pop_batch_on(device, max_pages)

    def remove_owner(
        self, owner: int, client: Optional[int] = None
    ) -> List[UnresolvedReference]:
        removed: List[UnresolvedReference] = []
        depths = self._depths
        for device, queue in enumerate(self._queues):
            retracted = queue.remove_owner(owner, client)
            if retracted:
                depths[device] -= len(retracted)
                removed.extend(retracted)
        self.ops += len(removed)
        return removed

    def __len__(self) -> int:
        return sum(self._depths)

    # -- per-device view (event-driven drivers, the device server) ----------

    def queue_depths(self) -> List[int]:
        """Pending references per device: a live view, not a copy.

        The list is the scheduler's own and changes with every add,
        pop and retraction; callers read it and never write it.
        """
        return self._depths

    def pop_on(self, device: int) -> UnresolvedReference:
        self.ops += 1
        ref = self._queues[device].pop()
        self._depths[device] -= 1
        return ref

    def pop_batch_on(
        self, device: int, max_pages: int
    ) -> List[UnresolvedReference]:
        self.ops += 1
        batch = self._queues[device].pop_batch(max_pages)
        self._depths[device] -= len(batch)
        return batch

    def pop_nearest(
        self, client: int
    ) -> Optional[Tuple[int, UnresolvedReference]]:
        """The device server's starvation override: ``(device, ref)`` for
        ``client``'s reference nearest the head of the first device that
        holds one (``None`` if none does)."""
        for device, queue in enumerate(self._queues):
            ref = queue.pop_nearest(client)
            if ref is not None:
                self.ops += 1
                self._depths[device] -= 1
                return device, ref
        return None


@dataclass
class PipelineStats:
    """What one :class:`PipelinedAssembly` accumulates over its runs."""

    #: I/O requests issued to the engine (including zero-read ones).
    issued: int = 0
    #: issued requests that performed at least one physical read.
    physical_issues: int = 0
    #: issued requests fully satisfied from the buffer (no device time).
    zero_read_issues: int = 0
    #: batches that overflowed the pin bound and resolved synchronously.
    sync_fallbacks: int = 0
    #: largest number of requests simultaneously in flight.
    max_in_flight: int = 0
    #: transient faults retried at issue time (on the device timeline).
    fault_retries: int = 0
    #: references re-queued because their device was down.
    fault_requeues: int = 0
    #: batches whose issue-time retries ran out and fell back to the
    #: operator's synchronous fault handling.
    fault_fallbacks: int = 0
    #: milliseconds the driver idled waiting for quarantined devices.
    quarantine_wait_ms: float = 0.0


class PipelinedAssembly:
    """The overlapped driver (§7): one operator under a completion-driven
    loop, its I/O overlapped across device timelines.

    Wraps an open (or openable) :class:`~repro.core.assembly.Assembly`
    and an :class:`~repro.storage.events.AsyncIOEngine` over the same
    disk.  :meth:`run` keeps each device that has pending references
    loaded with up to ``issue_depth`` outstanding sweep batches (deepest
    backlog first, ties to the lowest device), waits for the earliest
    completion, resolves that batch — which may emit objects, abort
    owners, admit new roots and expose new references — and issues
    again, until the pool is dry and nothing is in flight.  Elapsed
    time is the engine's clock: ``max`` over device timelines plus
    exposed CPU, not ``sum`` over reads.

    Each batch's distinct fetch pages are pinned at issue (plain fixes
    when all are resident, else one ``fix_many`` inside the engine's
    ledger bracket) and unfixed once the batch has resolved; :meth:`_issue`
    says what happens when the pin bound, a down device or exhausted
    retries get in the way.  If an exception leaves :meth:`run`, the
    pins and references of everything still in flight are handed back
    before it propagates.

    An issue costs O(1) bookkeeping: the issue loop is :meth:`run`'s
    own, and each scan is one :func:`deepest_device` call over the
    scheduler's ``queue_depths`` (the live list of a
    :class:`MultiDeviceScheduler`) and the engine's live
    ``in_flight_by_device``, which asks the circuit breaker only while
    the clock is below its ``reopened_by`` watermark (a fallback may
    raise it).

    ``issue_depth=1`` with a single device and ``batch_pages=1``
    degenerates to the synchronous loop exactly (the property-tested
    invariance); deeper issue hides ``cpu_ms_per_ref`` of resolution
    work per reference behind the in-flight reads.

    Known waste, by design: with ``issue_depth > 1`` a second reference
    to a *shared* component can be issued while the first is still in
    flight — the shared-component table only satisfies references after
    the first resolves — costing a duplicate (usually buffer-hit) fetch
    but never a duplicate materialization.
    """

    def __init__(
        self,
        assembly: Assembly,
        engine: AsyncIOEngine,
        issue_depth: int = 1,
        batch_pages: int = 1,
        cpu_ms_per_ref: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if issue_depth <= 0:
            raise AssemblyError("issue_depth must be positive")
        if batch_pages <= 0:
            raise AssemblyError("batch_pages must be positive")
        if cpu_ms_per_ref < 0:
            raise AssemblyError("cpu_ms_per_ref must be non-negative")
        if engine.disk is not assembly.store.disk:
            raise AssemblyError(
                "engine and assembly must drive the same disk"
            )
        self._assembly = assembly
        self._engine = engine
        self._buffer = assembly.store.buffer
        self._issue_depth = issue_depth
        self._batch_pages = batch_pages
        self._cpu_ms_per_ref = cpu_ms_per_ref
        self._retry_policy = retry_policy
        self._in_flight = engine.in_flight_by_device
        #: per-device circuit breaker over the engine clock; a down
        #: device's sweeps are re-queued and the device skipped until
        #: its quarantine expires.
        self.health = DeviceHealthTracker(engine.n_devices)
        self.stats = PipelineStats()

    # -- issuing -------------------------------------------------------------

    def _issue(
        self, device: int, batch: List[UnresolvedReference], pages: List[int]
    ) -> None:
        """Issue one popped batch whose ``pages`` must be read.

        The pages are pinned by one ``fix_many`` inside the engine's
        ledger bracket.  A pin bound that cannot take them, or issue-time
        retries that ran out, resolve the batch synchronously on the
        device's timeline; a down device quarantines it and puts the
        batch back in the pool.  A fallback may add references on any
        device, and a fault may open the device's breaker.
        """
        engine = self._engine
        stats = self.stats
        stats.issued += 1
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

    def _resolve_on_timeline(
        self, device: int, batch: List[UnresolvedReference]
    ) -> None:
        """Resolve ``batch`` synchronously, as a request on ``device``'s
        timeline so its reads are charged where they happened."""
        self._engine.issue(
            device,
            lambda: self._assembly.resolve_external_batch(batch),
            payload=([], []),
        )

    def _fix_with_retry(self, device: int, pages: List[int]):
        """An io_fn pinning ``pages``, retrying transient faults.

        Retries happen *inside* the issued request, so both the wasted
        reads and the injected backoff are priced on the device's
        timeline.  Device-down faults and pin-bound overflows are not
        retried here — they propagate to :meth:`_issue`'s handlers.
        """
        injector = self._engine.disk.fault_injector
        policy = self._retry_policy

        def io_fn():
            attempt = 0
            while True:
                try:
                    result = self._buffer.fix_many(pages)
                except TransientReadError:
                    if policy is None or not policy.should_retry(attempt):
                        raise
                    backoff = policy.backoff_ms(
                        attempt, self._engine.cost_model
                    )
                    if injector is not None:
                        injector.charge_backoff(backoff)
                    self.stats.fault_retries += 1
                    attempt += 1
                else:
                    if injector is not None:
                        self.health.record_success(device)
                    return result

        return io_fn

    # -- driving -------------------------------------------------------------

    def run(self) -> List[AssembledComplexObject]:
        """Drive the operator to completion; returns everything emitted.

        Between two completions the loop issues until no pending device
        is below issue depth and available: the deepest such backlog
        first, ties to the lowest device.  A batch whose pages are all
        resident reads nothing, so nothing can fault: it is pinned with
        plain fixes (every page already holds a frame, so ``fix_many``'s
        admission test could not fail) and issued without an ``io_fn``.
        Every other batch goes through :meth:`_issue`.
        """
        assembly = self._assembly
        if not assembly.is_open:
            assembly.open()
        engine = self._engine
        clock = engine.clock
        issue = engine.issue
        scheduler = assembly.scheduler
        queue_depths = scheduler.queue_depths
        pop_on = scheduler.pop_on
        pop_batch_on = scheduler.pop_batch_on
        fetch_pages = assembly.fetch_pages
        buffer = self._buffer
        fix = buffer.fix
        unfix = buffer.unfix
        is_resident = buffer.is_resident
        health = self.health
        record_success = (
            health.record_success
            if engine.disk.fault_injector is not None
            else None
        )
        stats = self.stats
        in_flight = self._in_flight
        issue_depth = self._issue_depth
        batch_pages = self._batch_pages
        cpu_ms_per_ref = self._cpu_ms_per_ref
        out: List[AssembledComplexObject] = []
        try:
            while True:
                now = clock.now  # issuing does not move the clock
                while True:
                    depths = queue_depths()
                    best = deepest_device(
                        depths, 0, in_flight, issue_depth, health, now
                    )
                    if best < 0:
                        break
                    if batch_pages == 1:
                        batch = [pop_on(best)]
                    else:
                        batch = pop_batch_on(best, batch_pages)
                    pages = fetch_pages(batch)
                    for page_id in pages:
                        if not is_resident(page_id):
                            break
                    else:
                        for page_id in pages:
                            fix(page_id)
                        if pages and record_success is not None:
                            record_success(best)
                        issue(best, None, (batch, pages))
                        stats.issued += 1
                        stats.zero_read_issues += 1
                        continue
                    self._issue(best, batch, pages)
                outstanding = sum(in_flight)
                if outstanding > stats.max_in_flight:
                    stats.max_in_flight = outstanding
                if not outstanding:
                    recovery = (
                        health.next_recovery(now) if any(depths) else None
                    )
                    if recovery is not None:
                        # References pending but nothing issuable:
                        # every pending device is quarantined.  Let
                        # simulated time pass to the earliest recovery.
                        stats.quarantine_wait_ms += recovery - now
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
                if cpu_ms_per_ref and batch:
                    engine.spend_cpu(cpu_ms_per_ref * len(batch))
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
