"""Deterministic fault injection for the simulated disks.

The paper assumes a dedicated, perfectly reliable disk; a
production-scale assembly service cannot.  This module adds the failure
half of the device model without touching the success half:

* :class:`FaultInjector` wraps any :class:`~repro.storage.disk.
  SimulatedDisk` (including :class:`~repro.storage.costmodel.CostedDisk`
  and :class:`~repro.storage.multidisk.MultiDeviceDisk`) and, driven by
  one seeded RNG, injects **transient read errors**, **latency spikes**
  and **device-down intervals**.  Everything lives on the simulated
  clock — an op counter by default, rebound to the
  :class:`~repro.storage.events.EventClock` under an
  :class:`~repro.storage.events.AsyncIOEngine` — never wall time.
* :class:`RetryPolicy` bounds retries and prices the backoff between
  attempts through a :class:`~repro.storage.costmodel.CostModel`
  (default base backoff = one settle + one rotational latency, i.e.
  "wait out roughly one failed access before trying again").
* :class:`DeviceHealthTracker` is the per-device circuit breaker:
  consecutive failures (or an explicit ``retry_after`` from a
  :class:`~repro.errors.DeviceDownError`) quarantine a device until a
  recovery time; schedulers route around quarantined devices and
  re-queue their sweeps.

Design invariant, relied on by every baseline: a fault check happens
**before** the head moves or any statistic is charged, so a failed
attempt leaves the disk exactly as it found it, and the eventual
successful retry performs the identical seek the fault-free run would
have.  With all rates zero the injector is a no-op and every figure in
``results/results.json`` stays bit-identical.

Determinism: the same :class:`FaultConfig` (seed included) replayed
against the same access sequence yields the same fault
:attr:`~FaultInjector.schedule`, the same counters and — under the
event engine — the same elapsed time, which the replay tests assert.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import asdict, dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import (
    DeviceDownError,
    DiskError,
    TransientReadError,
)
from repro.storage.costmodel import CostModel
from repro.storage.disk import SimulatedDisk


@dataclass(frozen=True)
class DownInterval:
    """One device outage: ``[start, end)`` on the injector's clock."""

    device: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.device < 0:
            raise DiskError("down interval device must be non-negative")
        if self.end <= self.start:
            raise DiskError("down interval must end after it starts")

    def covers(self, now: float) -> bool:
        """Is ``now`` inside the outage?"""
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultConfig:
    """What to inject, and how often.

    ``read_error_rate`` / ``latency_spike_rate`` are per-physical-read
    probabilities drawn from one ``random.Random(seed)``.
    ``max_consecutive_failures`` bounds how many times in a row one
    page may fail transiently — after that many failures the next
    attempt is forced to succeed, so any retry policy with at least
    that many retries provably completes (the chaos property's
    termination argument); ``None`` removes the bound.
    ``always_fail_pages`` fault deterministically regardless of the
    rate (targeted tests).  ``down_intervals`` are outages on the
    injector clock (op count by default; engine milliseconds once an
    :class:`~repro.storage.events.AsyncIOEngine` binds its clock).
    """

    seed: int = 0
    read_error_rate: float = 0.0
    max_consecutive_failures: Optional[int] = 2
    latency_spike_rate: float = 0.0
    latency_spike_ms: float = 25.0
    down_intervals: Tuple[DownInterval, ...] = ()
    always_fail_pages: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DiskError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_spike_ms < 0:
            raise DiskError("latency_spike_ms must be non-negative")
        if (
            self.max_consecutive_failures is not None
            and self.max_consecutive_failures <= 0
        ):
            raise DiskError(
                "max_consecutive_failures must be positive or None"
            )


@dataclass
class FaultStats:
    """What one injector did (attempt-level accounting)."""

    #: physical read attempts observed (fault checks performed).
    reads_seen: int = 0
    #: transient errors raised.
    transient_errors: int = 0
    #: latency spikes injected.
    latency_spikes: int = 0
    #: reads rejected because the device was down.
    down_rejections: int = 0
    #: milliseconds of spike latency injected.
    injected_spike_ms: float = 0.0
    #: milliseconds of retry backoff charged via :meth:`FaultInjector.
    #: charge_backoff`.
    backoff_ms: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat view for reports and replay comparisons."""
        return asdict(self)


class FaultInjector:
    """Seed-driven fault source attached to one simulated disk.

    The disk calls :meth:`before_read` at the top of every physical
    read (:meth:`~repro.storage.disk.SimulatedDisk.read` /
    :meth:`~repro.storage.disk.SimulatedDisk.read_run`), *before* any
    head movement or accounting.  The injector either returns (read
    proceeds normally, possibly with spike latency charged to
    :attr:`injected_ms_total`) or raises a
    :class:`~repro.errors.FaultError`, leaving the disk untouched.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.stats = FaultStats()
        #: replayable fault log: ``("transient", op, page, attempt)``,
        #: ``("spike", op, page, ms)``, ``("down", op, device)`` tuples.
        self.schedule: List[Tuple] = []
        self._rng = random.Random(config.seed)
        self._consecutive: Dict[int, int] = {}
        self._clock_fn: Optional[Callable[[], float]] = None
        #: the disk attached to, held weakly (the disk holds this
        #: injector), and the page-to-device divisor read off it.
        self._disk: Optional[weakref.ref] = None
        self._pages_per_device = 0
        self._down_by_device: Dict[int, List[DownInterval]] = {}
        for interval in config.down_intervals:
            self._down_by_device.setdefault(interval.device, []).append(
                interval
            )
        for intervals in self._down_by_device.values():
            intervals.sort(key=lambda iv: iv.start)

    # -- wiring --------------------------------------------------------------

    def attach(self, disk: SimulatedDisk) -> "FaultInjector":
        """Install this injector on ``disk``; returns self for chaining."""
        if disk.fault_injector is not None:
            raise DiskError("disk already has a fault injector attached")
        disk.fault_injector = self
        self._disk = weakref.ref(disk)
        self._pages_per_device = disk.pages_per_device
        return self

    def detach(self) -> None:
        """Remove this injector from its disk (fault-free from now on)."""
        disk = self._disk() if self._disk is not None else None
        if disk is not None:
            disk.fault_injector = None
        self._disk = None

    def bind_clock(self, clock_fn: Callable[[], float]) -> None:
        """Drive down intervals from an external simulated clock.

        :class:`~repro.storage.events.AsyncIOEngine` binds its event
        clock here so outages are expressed in engine milliseconds;
        without a bound clock the injector counts read attempts
        (including failed ones), so outages expire even on the
        synchronous path.
        """
        self._clock_fn = clock_fn

    @property
    def now(self) -> float:
        """Current injector time (bound clock, or attempts seen)."""
        if self._clock_fn is not None:
            return self._clock_fn()
        return float(self.stats.reads_seen)

    # -- time accounting -----------------------------------------------------

    @property
    def injected_ms_total(self) -> float:
        """All simulated milliseconds this injector added (spikes +
        backoffs).  The event engine folds deltas of this into the
        issuing device's timeline."""
        return self.stats.injected_spike_ms + self.stats.backoff_ms

    def charge_backoff(self, milliseconds: float) -> None:
        """Account retry backoff as injected simulated time."""
        if milliseconds < 0:
            raise DiskError("backoff must be non-negative")
        self.stats.backoff_ms += milliseconds

    # -- the hook ------------------------------------------------------------

    def next_recovery(self, device: int, now: float) -> Optional[float]:
        """End of the outage covering ``now`` on ``device`` (or None)."""
        for interval in self._down_by_device.get(device, ()):
            if interval.covers(now):
                return interval.end
        return None

    def before_read(self, start: int, n_pages: int) -> None:
        """Fault gate, called by the disk before serving a read.

        Raises :class:`~repro.errors.DeviceDownError` inside an outage,
        :class:`~repro.errors.TransientReadError` on a transient draw
        (bounded per page by ``max_consecutive_failures``), and
        otherwise returns — possibly after charging a latency spike.
        The check order (down, forced, transient, spike) is part of the
        replay contract.
        """
        self.stats.reads_seen += 1
        op = self.stats.reads_seen
        # The disk checked ``start`` before asking.
        device = start // self._pages_per_device

        recovery = self.next_recovery(device, self.now)
        if recovery is not None:
            self.stats.down_rejections += 1
            self.schedule.append(("down", op, device))
            raise DeviceDownError(
                f"device {device} down until {recovery:g}",
                device=device,
                retry_after=recovery,
            )

        consecutive = self._consecutive.get(start, 0)
        bound = self.config.max_consecutive_failures
        may_fail = bound is None or consecutive < bound

        if may_fail and start in self.config.always_fail_pages:
            self._raise_transient(op, start, device, consecutive)

        if self.config.read_error_rate > 0.0:
            # Always draw so the RNG stream is independent of whether
            # the consecutive bound suppressed the previous fault.
            draw = self._rng.random()
            if may_fail and draw < self.config.read_error_rate:
                self._raise_transient(op, start, device, consecutive)
        self._consecutive.pop(start, None)

        if self.config.latency_spike_rate > 0.0:
            if self._rng.random() < self.config.latency_spike_rate:
                spike = self.config.latency_spike_ms
                self.stats.latency_spikes += 1
                self.stats.injected_spike_ms += spike
                self.schedule.append(("spike", op, start, spike))

    def _raise_transient(
        self, op: int, page_id: int, device: int, consecutive: int
    ) -> None:
        attempt = consecutive + 1
        self._consecutive[page_id] = attempt
        self.stats.transient_errors += 1
        self.schedule.append(("transient", op, page_id, attempt))
        raise TransientReadError(
            f"transient read error on page {page_id} "
            f"(attempt {attempt})",
            page_id=page_id,
            device=device,
            attempt=attempt,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with simulated-time exponential backoff.

    ``base_backoff_ms=None`` derives the base from the cost model at
    call time: one ``settle`` plus one ``rotational_latency`` — wait
    out roughly one failed positioning before retrying.  Attempt ``k``
    (0-based) backs off ``base * backoff_multiplier**k`` milliseconds,
    charged to the injector's simulated clock, never wall time.
    """

    max_retries: int = 3
    base_backoff_ms: Optional[float] = None
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise DiskError("max_retries must be non-negative")
        if self.base_backoff_ms is not None and self.base_backoff_ms < 0:
            raise DiskError("base_backoff_ms must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise DiskError("backoff_multiplier must be >= 1")

    def should_retry(self, attempt: int) -> bool:
        """May a 0-based ``attempt`` be retried under this policy?"""
        return attempt < self.max_retries

    def backoff_ms(
        self, attempt: int, cost_model: Optional[CostModel] = None
    ) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if self.base_backoff_ms is not None:
            base = self.base_backoff_ms
        else:
            model = cost_model if cost_model is not None else CostModel()
            base = model.settle + model.rotational_latency
        return base * self.backoff_multiplier**attempt


@dataclass
class _DeviceHealth:
    """Mutable per-device record of the circuit breaker."""

    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    quarantines: int = 0
    quarantined_until: float = 0.0


class DeviceHealthTracker:
    """Per-device circuit breaker over injector/engine time.

    ``failure_threshold`` consecutive failures open the breaker for
    ``cooldown`` clock units; an explicit ``retry_after`` (a device
    reporting its own outage) opens it until that time directly.  A
    success closes the breaker immediately (the successful probe).
    Devices unknown to the tracker are created on first touch, so one
    tracker serves disks of any width.

    :attr:`reopened_by` is the latest reopening time ever set on any
    device.  A success only lowers a device's quarantine, so no device
    is quarantined at or after it: a driver asks :meth:`available`
    only while its clock is below the watermark.
    """

    def __init__(
        self, n_devices: int = 1, failure_threshold: int = 3,
        cooldown: float = 64.0,
    ) -> None:
        if failure_threshold <= 0:
            raise DiskError("failure_threshold must be positive")
        if cooldown < 0:
            raise DiskError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._devices: Dict[int, _DeviceHealth] = {
            device: _DeviceHealth() for device in range(max(0, n_devices))
        }
        #: every device is available at or after this time.
        self.reopened_by = 0.0

    def _get(self, device: int) -> _DeviceHealth:
        health = self._devices.get(device)
        if health is None:
            health = _DeviceHealth()
            self._devices[device] = health
        return health

    def record_success(self, device: int) -> None:
        """A read on ``device`` succeeded: close the breaker."""
        health = self._get(device)
        health.successes += 1
        health.consecutive_failures = 0
        health.quarantined_until = 0.0

    def record_failure(
        self,
        device: int,
        now: float = 0.0,
        retry_after: Optional[float] = None,
    ) -> None:
        """A read on ``device`` faulted; maybe open the breaker."""
        health = self._get(device)
        health.failures += 1
        health.consecutive_failures += 1
        if retry_after is not None:
            until = retry_after
        elif health.consecutive_failures >= self.failure_threshold:
            until = now + self.cooldown
        else:
            return
        if until > health.quarantined_until:
            health.quarantines += 1
            health.quarantined_until = until
            if until > self.reopened_by:
                self.reopened_by = until

    def available(self, device: int, now: float) -> bool:
        """May ``device`` be issued to at time ``now``?"""
        health = self._devices.get(device)
        return health is None or now >= health.quarantined_until

    def quarantined_until(self, device: int) -> float:
        """When ``device`` reopens (0.0 if it was never quarantined)."""
        return self._get(device).quarantined_until

    def next_recovery(self, now: float) -> Optional[float]:
        """Earliest reopening among currently quarantined devices."""
        pending = [
            h.quarantined_until
            for h in self._devices.values()
            if h.quarantined_until > now
        ]
        return min(pending) if pending else None

    def total_quarantines(self) -> int:
        """Breaker openings across all devices."""
        return sum(h.quarantines for h in self._devices.values())

    def snapshot(self) -> Dict[int, Dict[str, float]]:
        """Per-device counters as plain dicts (diagnostics/replay)."""
        return {
            device: {
                "consecutive_failures": h.consecutive_failures,
                "failures": h.failures,
                "successes": h.successes,
                "quarantines": h.quarantines,
                "quarantined_until": h.quarantined_until,
            }
            for device, h in sorted(self._devices.items())
        }
