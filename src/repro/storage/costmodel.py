"""A fuller disk service-time model (robustness extension).

The paper measures pure seek distance and cites Scranton et al.'s "The
Access Time Myth" [23] — the observation that for short seeks the
*constant* parts of an access (head settling, rotational latency,
transfer) dominate the distance-proportional part.  That raises a fair
question about every figure: do the paper's conclusions survive a
service-time model in which seeks are only one component?

:class:`CostModel` prices one read as::

    settle + seek_per_page * distance      (0 when distance == 0)
    + rotational_latency                   (average half rotation)
    + transfer                             (one page)

:class:`DeviceLedger` is the one place a *performed* read becomes
device time: fed from a disk's read tap, it prices each physical read
once.  Every simulated clock in the repo is a query over one —
:class:`CostedDisk` (the synchronous total; the A-9 ablation re-ranks
the schedulers by it and checks the orderings hold, while honestly
reporting how much the *ratios* shrink), the event engine's device
timelines, a fabric replica's clock, the observability timeline and
the reorganizer's idle windows.  Estimates of reads *not yet
performed* (migration pricing, hedge delays, retry back-off) call
:class:`CostModel` directly.

Default constants approximate a late-1980s disk (the paper's era):
~30 ms full-stroke seek over ~1000 cylinders, 3600 rpm (8.3 ms average
rotational latency), ~1 ms settle, ~0.3 ms to transfer 1 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional, Tuple

from repro.storage.disk import SimulatedDisk


@dataclass(frozen=True)
class CostModel:
    """Per-read service-time pricing, in milliseconds.

    The four prices are constants of the model, not fields: every
    figure, example and workload prices with them.
    """

    seek_per_page: ClassVar[float] = 0.03
    settle: ClassVar[float] = 1.0
    rotational_latency: ClassVar[float] = 8.3
    transfer: ClassVar[float] = 0.3

    def __post_init__(self) -> None:
        # Memo of (distance, n_pages) -> milliseconds.  The model is
        # frozen, distances repeat heavily under sweep scheduling, and
        # the cache is not a dataclass field, so equality/hash/asdict
        # semantics are unchanged.  object.__setattr__ sidesteps the
        # frozen-instance guard.
        object.__setattr__(self, "_run_cache", {})

    def service_time(self, distance: int) -> float:
        """Milliseconds to serve one read that moved ``distance`` pages."""
        return self.run_service_time(distance, 1)

    def run_service_time(self, distance: int, n_pages: int) -> float:
        """Milliseconds for one contiguous run: one positioning, one
        rotational wait, then ``n_pages`` sequential page transfers.

        This is what makes run batching pay under the full model — the
        constant positioning costs are amortized over the run, not just
        the seek distance.

        Results are memoized in ``_run_cache`` under the key
        ``(distance, n_pages)``.  :meth:`DeviceLedger.record` probes that
        memo in line with the same key, so a change to the key format
        must change both.
        """
        key = (distance, n_pages)
        try:
            return self._run_cache[key]
        except KeyError:
            pass
        positioning = 0.0
        if distance > 0:
            positioning = self.settle + self.seek_per_page * distance
        cost = positioning + self.rotational_latency + self.transfer * n_pages
        self._run_cache[key] = cost
        return cost



#: Interval kinds: reads served for a query, reads a migration performed.
SERVING = "serving"
MIGRATION = "migration"

#: One retained ledger entry: ``(start_ms, end_ms, kind, pages, seek)``.
Interval = Tuple[float, float, str, int, int]


class DeviceLedger:
    """Per-device simulated time of the reads one disk performed.

    :meth:`record` is a read tap: whoever wants the ledger fed adds it
    to the disk (``disk.add_read_tap(ledger.record)``).  The ledger
    holds no reference to that disk (the tap rule,
    :meth:`~repro.storage.disk.SimulatedDisk.add_read_tap`): it is
    built for a device count, and a bracket's owner hands it the
    disk's fault injector.  A read
    normally occupies its own device back to back with that device's
    previous read (``busy_until`` advances by its price).  While a
    *bracket* is open (:meth:`mark` … :meth:`since`) reads are instead
    folded, left to right, onto the bracket's origin and placed by
    nobody: the bracket's owner decides where that time goes
    (:meth:`occupy` for the event engine, a private clock for a fabric
    replica) — or drops it, when the bracketed action raised.

    Every consumer keeps its own float fold: ``total`` is ``0.0 + c1 +
    c2 …`` over all reads, ``busy_until[d]`` the same over device
    ``d``'s, a bracket ``origin + c1 + c2 …`` — which is what lets a
    serialized event engine reproduce :class:`CostedDisk`'s sum
    bit-for-bit.

    ``intervals`` says whether to retain one :data:`Interval` per
    occupation; consumers that only read scalars leave it off, so a
    long run costs them no memory.
    """

    def __init__(
        self,
        n_devices: int,
        cost_model: Optional[CostModel] = None,
        intervals: bool = False,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.n_devices = n_devices
        #: what :meth:`occupy` stamps on retained intervals.
        self.kind = SERVING
        #: per device, in occupation order; ``None`` when not retained.
        self.intervals: Optional[List[List[Interval]]] = (
            [] if intervals else None
        )
        #: the open bracket, ``[end_ms, reads, pages]`` so far, if any.
        self._bracket: Optional[List] = None
        self.reset()

    def reset(self) -> None:
        """Forget all recorded time."""
        #: milliseconds of every read recorded, bracketed or not.
        self.total = 0.0
        #: per device: end of its last occupation / milliseconds occupied.
        self.busy_until: List[float] = [0.0] * self.n_devices
        self.busy_time: List[float] = [0.0] * self.n_devices
        if self.intervals is not None:
            self.intervals = [[] for _ in range(self.n_devices)]

    # -- recording -----------------------------------------------------------

    def record(
        self, device: int, start_page: int, seek: int, n_pages: int
    ) -> None:
        """Price one performed read — the only place that happens."""
        # run_service_time's memo probe, inlined: this runs once per
        # physical read, and reading the model's own memo keeps one.
        model = self.cost_model
        try:
            cost = model._run_cache[seek, n_pages]
        except KeyError:
            cost = model.run_service_time(seek, n_pages)
        self.total += cost
        bracket = self._bracket
        if bracket is not None:
            bracket[0] += cost
            bracket[1] += 1
            bracket[2] += n_pages
        else:
            # occupy(), inlined: this runs once per physical read.
            begin = self.busy_until[device]
            end = self.busy_until[device] = begin + cost
            self.busy_time[device] += cost
            if self.intervals is not None:
                self.intervals[device].append(
                    (begin, end, self.kind, n_pages, seek)
                )

    def occupy(
        self, device: int, begin: float, end: float, pages: int = 0
    ) -> None:
        """Put ``[begin, end)`` on ``device``'s timeline (a seek of 0:
        the occupations that come here are priced by their caller)."""
        self.busy_until[device] = end
        self.busy_time[device] += end - begin
        if self.intervals is not None:
            self.intervals[device].append((begin, end, self.kind, pages, 0))

    # -- brackets ------------------------------------------------------------

    def mark(self, origin: float, injector: Any) -> float:
        """Open a bracket: fold the reads from now on onto ``origin``.

        ``injector`` is the disk's
        :class:`~repro.storage.faults.FaultInjector` (``None`` without
        one).  Returns the mark to hand to :meth:`since`.
        """
        self._bracket = [origin, 0, 0]
        return 0.0 if injector is None else injector.injected_ms_total

    def since(
        self, mark: float, injector: Any
    ) -> Tuple[int, int, float, float]:
        """Close the bracket: ``(reads, pages, end_ms, injected_ms)``.

        ``end_ms`` is the origin plus the price of each read performed
        since :meth:`mark`; ``injected_ms`` is what ``injector`` (the
        one :meth:`mark` was given) added meanwhile (latency spikes,
        retry back-off) — time the bracket's owner bills beside the
        reads.
        """
        (end, reads, pages), self._bracket = self._bracket, None
        injected = 0.0 if injector is None else injector.injected_ms_total - mark
        return reads, pages, end, injected


class CostedDisk(SimulatedDisk):
    """A simulated disk that also accumulates service time."""

    def __init__(self, n_pages: Optional[int] = None) -> None:
        super().__init__(n_pages)
        self.ledger = DeviceLedger(self.n_devices)
        self.cost_model = self.ledger.cost_model
        self.add_read_tap(self.ledger.record)

    @property
    def service_time_total(self) -> float:
        """Accumulated read service time, in milliseconds."""
        return self.ledger.total

    @property
    def avg_service_time_per_read(self) -> float:
        """Mean milliseconds per read (0.0 before any read)."""
        if self.stats.reads == 0:
            return 0.0
        return self.service_time_total / self.stats.reads

    def reset_stats(self, head_to_zero: bool = True) -> None:
        """Also zeroes the service-time ledger."""
        super().reset_stats(head_to_zero=head_to_zero)
        self.ledger.reset()
