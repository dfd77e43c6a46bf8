"""Event-driven elapsed time: each device an independent server.

The synchronous stack advances one read at a time — K devices deliver
zero concurrency, and elapsed time degenerates to the *sum* of every
read's service time.  The paper's Section 7 sketch ("a server-per-device
architecture … asynchronous I/O") and the declustering literature both
say the real win of multiple spindles is parallel service: this module
supplies the missing clock.

:class:`AsyncIOEngine` wraps any :class:`~repro.storage.disk.
SimulatedDisk` (including :class:`~repro.storage.costmodel.CostedDisk`
and :class:`~repro.storage.multidisk.MultiDeviceDisk`).  A caller
*issues* an I/O request against one device: the request's physical
reads execute immediately (the simulation has no data latency — only
time is modelled), are priced read-by-read by the engine's
:class:`~repro.storage.costmodel.DeviceLedger`, and the request is
scheduled to *complete* at::

    max(now, device busy-until) + sum(run_service_time(...) per read)

Requests with reads wait in a completion heap; a request that reads
nothing completes at issue and waits in a FIFO *ready lane*.  Both are
in ``(complete, handle)`` order — the lane because the clock never runs
backwards and handles only grow — so :meth:`wait_next`, taking the
smaller head and advancing the clock to it, delivers one heap's order.
Elapsed time is therefore ``max`` over device timelines plus any
exposed CPU (:meth:`spend_cpu`), not ``sum`` over reads.

Exactness invariant (property-tested): with **one device, issue depth
1, batch 1**, requests serialize perfectly — every ``complete`` is the
previous ``complete`` plus one ``run_service_time`` term, the same
left-to-right float summation :class:`CostedDisk` performs — so
``engine.elapsed`` equals the synchronous ``service_time_total``
bit-for-bit.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from repro.errors import DiskError
from repro.storage.costmodel import CostModel, DeviceLedger
from repro.storage.disk import SimulatedDisk


class EventClock:
    """A monotone simulation clock, in milliseconds."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move time forward; moving it backward is a logic error."""
        if when < self._now:
            raise DiskError(
                f"event clock cannot run backwards "
                f"({self._now:.3f} -> {when:.3f})"
            )
        self._now = when


class EventQueue:
    """A deterministic timer heap for simulated-time callbacks.

    The service fabric schedules open-loop *arrivals* and *hedge
    timers* on the event clock; this queue orders them.  Entries are
    ``(when, payload)`` pairs; ties break by insertion order, so two
    identical runs deliver identical event sequences.  :meth:`cancel`
    marks an entry dead without disturbing the heap (lazy deletion —
    the entry is skipped when it surfaces), which is how a hedge timer
    is retired when its request completes before the delay expires.
    """

    __slots__ = ("_heap", "_next_handle", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._next_handle = 0
        self._cancelled: set = set()

    def __len__(self) -> int:
        """Live (scheduled, not cancelled) entries."""
        return len(self._heap) - len(self._cancelled)

    def schedule(self, when: float, payload: Any) -> int:
        """Enqueue ``payload`` at simulated time ``when``; its handle."""
        if when < 0:
            raise DiskError("cannot schedule an event before time zero")
        handle = self._next_handle
        self._next_handle += 1
        heapq.heappush(self._heap, (when, handle, payload))
        return handle

    def cancel(self, handle: int) -> None:
        """Retire one scheduled event (idempotent; unknown is an error)."""
        if not 0 <= handle < self._next_handle:
            raise DiskError(f"unknown event handle {handle}")
        self._cancelled.add(handle)

    def _drop_dead(self) -> None:
        while self._heap and self._heap[0][1] in self._cancelled:
            _when, handle, _payload = heapq.heappop(self._heap)
            self._cancelled.discard(handle)

    def next_time(self) -> Optional[float]:
        """Timestamp of the earliest live event (None when empty)."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the earliest live ``(when, payload)``."""
        self._drop_dead()
        if not self._heap:
            raise DiskError("pop() on an empty event queue")
        when, _handle, payload = heapq.heappop(self._heap)
        return when, payload


class InFlightIO:
    """One asynchronous I/O request, from issue to completion.

    ``payload`` is whatever the issuer attached (the pipelined drivers
    carry ``(refs, pinned_pages)``); the engine never looks inside it.
    A request with ``physical_reads == 0`` (every page was already
    buffer-resident) completes at its issue time without occupying the
    device — modelling CPU-side work overlapping the in-flight reads.
    """

    __slots__ = (
        "handle",
        "device",
        "payload",
        "physical_reads",
        "pages_read",
        "start_time",
        "complete_time",
    )

    def __init__(
        self,
        handle: int,
        device: int,
        payload: Any,
        physical_reads: int,
        pages_read: int,
        start_time: float,
        complete_time: float,
    ) -> None:
        self.handle = handle
        self.device = device
        self.payload = payload
        self.physical_reads = physical_reads
        self.pages_read = pages_read
        self.start_time = start_time
        self.complete_time = complete_time


class AsyncIOEngine:
    """Per-device busy/idle timelines over a simulated disk.

    Parameters
    ----------
    disk:
        The disk to observe.  A :class:`MultiDeviceDisk` yields one
        timeline per device; any other :class:`SimulatedDisk` is one
        device.
    cost_model:
        Pricing for physical reads (default: the A-9 period model).
        Pass a :class:`CostedDisk`'s own model to keep the engine's
        clock and the disk's synchronous accumulator in agreement.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.disk = disk
        #: the device timelines.  Fed only while a request's ``io_fn``
        #: runs: reads nobody issued are not the engine's, and a
        #: discarded engine leaves nothing behind on the disk.
        self.ledger = DeviceLedger(disk.n_devices, cost_model)
        self._tap = self.ledger.record
        self.cost_model = self.ledger.cost_model
        self.clock = EventClock()
        self.n_devices = disk.n_devices
        self._in_flight: List[int] = [0] * self.n_devices
        #: ``(complete, handle, io)``: a heap with reads, a lane without.
        self._completions: List[Tuple[float, int, InFlightIO]] = []
        self._ready: Deque[Tuple[float, int, InFlightIO]] = deque()
        self._next_handle = 0
        #: requests issued (including zero-read completions).
        self.issues = 0
        #: issued requests that touched no device (all pages resident).
        self.zero_read_issues = 0
        #: milliseconds of exposed CPU charged via :meth:`spend_cpu`.
        self.cpu_time = 0.0
        #: milliseconds the driver idled waiting for quarantined
        #: devices to recover (:meth:`wait_until`).
        self.wait_time = 0.0
        # A fault injector's down intervals should run on *this* clock,
        # not its synchronous op counter, once an engine drives the disk.
        # The binding reads the clock alone: one over ``self`` would put
        # engine, disk and injector in a reference cycle.
        if disk.fault_injector is not None:
            disk.fault_injector.bind_clock(partial(getattr, self.clock, "now"))

    # -- occupancy -----------------------------------------------------------

    @property
    def in_flight_by_device(self) -> Sequence[int]:
        """Outstanding requests per device: a live view, not a copy."""
        return self._in_flight

    def idle(self) -> bool:
        """No request outstanding on any device?"""
        return not self._completions and not self._ready

    # -- issue / complete ----------------------------------------------------

    def issue(
        self,
        device: int,
        io_fn: Optional[Callable[[], Any]] = None,
        payload: Any = None,
    ) -> InFlightIO:
        """Issue one request: run its reads now, complete them later.

        ``io_fn`` performs the request's physical reads (typically a
        ``buffer.fix_many``); every read it triggers falls inside one
        ledger bracket, folded read by read onto the request's start.
        The request starts when the device frees up (``max(now,
        busy_until)``) and completes after its summed service time; a
        request that triggered no physical read completes at ``now``
        without occupying the device and waits in the ready lane, still
        in flight until :meth:`wait_next` delivers it.  ``io_fn=None``
        declares up front that the request reads nothing, so it skips
        the bracket.  If ``io_fn`` raises, nothing is scheduled, the
        device timeline is not charged, and the exception propagates
        (``fix_many``'s admission check raises before touching any
        frame, so accounting stays consistent).
        """
        if not 0 <= device < self.n_devices:
            raise DiskError(f"no device {device}")
        issue_time = self.clock.now
        if io_fn is None:
            # Reads nothing: straight into the ready lane at "now".
            handle = self._next_handle
            self._next_handle = handle + 1
            io = InFlightIO(
                handle, device, payload, 0, 0, issue_time, issue_time
            )
            self._ready.append((issue_time, handle, io))
            self._in_flight[device] += 1
            self.issues += 1
            self.zero_read_issues += 1
            return io
        ledger = self.ledger
        start = ledger.busy_until[device]
        if start < issue_time:
            start = issue_time
        # The bracket accumulates left-to-right from ``start``, one term
        # per physical read, so a serialized schedule reproduces
        # CostedDisk's float sum exactly.
        disk = self.disk
        injector = disk.fault_injector
        mark = ledger.mark(start, injector)
        disk.add_read_tap(self._tap)
        try:
            io_fn()
        finally:
            disk.remove_read_tap(self._tap)
            reads, pages_total, complete, injected = ledger.since(
                mark, injector
            )
        if reads or injected:
            # Latency spikes and retry backoffs injected while this
            # request's reads ran occupy the issuing device's timeline.
            if injected:
                complete += injected
            ledger.occupy(device, start, complete, pages_total)
            disk.charge_busy(device, complete - start)
        else:
            start = issue_time
            complete = issue_time
            self.zero_read_issues += 1
        handle = self._next_handle
        self._next_handle += 1
        io = InFlightIO(
            handle, device, payload, reads, pages_total, start, complete
        )
        if reads or injected:
            heapq.heappush(self._completions, (complete, handle, io))
        else:
            self._ready.append((complete, handle, io))
        self._in_flight[device] += 1
        self.issues += 1
        return io

    def wait_next(self) -> InFlightIO:
        """Pop the earliest completion, advancing the clock to it.

        The earliest is the smaller ``(complete, handle)`` of the ready
        lane's head and the completion heap's top: both are sorted by
        that key, so the merge is the order a single heap would give.

        A completion scheduled *before* the current time — possible when
        :meth:`spend_cpu` pushed the clock past it — was fully hidden
        behind that CPU work and is delivered immediately, without
        moving the clock.
        """
        completions = self._completions
        ready = self._ready
        if ready and (not completions or ready[0] < completions[0]):
            complete, _handle, io = ready.popleft()
        elif completions:
            complete, _handle, io = heapq.heappop(completions)
        else:
            raise DiskError("wait_next() with no I/O in flight")
        if complete > self.clock.now:
            self.clock.advance_to(complete)
        self._in_flight[io.device] -= 1
        return io

    def spend_cpu(self, milliseconds: float) -> None:
        """Advance the clock for CPU work; in-flight I/O keeps running.

        This is the "exposed CPU" term of elapsed time: devices already
        issued-to continue toward their scheduled completions while the
        CPU works, which is exactly what issue-ahead depth > 1 buys.
        """
        if milliseconds < 0:
            raise DiskError("cpu time must be non-negative")
        if milliseconds:
            self.clock.advance_to(self.clock.now + milliseconds)
            self.cpu_time += milliseconds

    def wait_until(self, when: float) -> None:
        """Idle the clock forward to ``when`` (no-op if already past).

        Fault-aware drivers use this when every pending device is
        quarantined: nothing can be issued, so simulated time simply
        passes until the earliest circuit breaker reopens.
        """
        if when > self.clock.now:
            self.wait_time += when - self.clock.now
            self.clock.advance_to(when)

    # -- readout -------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Simulated milliseconds since the engine started."""
        return self.clock.now

    def busy_time(self) -> float:
        """Milliseconds the devices served I/O, summed (one device's
        share is ``ledger.busy_time[device]``)."""
        return sum(self.ledger.busy_time)

    def utilization(self, device: int) -> float:
        """Busy fraction of one device's timeline (0.0 before any I/O)."""
        if self.clock.now == 0.0:
            return 0.0
        return self.ledger.busy_time[device] / self.clock.now

    def utilizations(self) -> List[float]:
        """Per-device busy fractions."""
        return [self.utilization(d) for d in range(self.n_devices)]

    def __repr__(self) -> str:
        return (
            f"AsyncIOEngine(devices={self.n_devices}, "
            f"now={self.clock.now:.1f}ms, in_flight={sum(self._in_flight)})"
        )
