"""Per-request and service-wide metrics.

Every request the :class:`~repro.service.server.AssemblyService` runs
gets a :class:`RequestMetrics`: work counts (fetches, aborts, emissions,
shared links) copied from its query's
:class:`~repro.core.assembly.AssemblyStats` when it finishes, plus
timings (queue wait, service time) on the service clock — the device
server's resolution counter, deterministic on the simulated disk,
unlike wall time.

Global counters aggregate what no single request can see: disk seek
totals, buffer faults, cache traffic, and admission outcomes.

Latency, queue-wait and run-time distributions stream through
:class:`~repro.obs.histograms.StreamingHistogram` fields that are fed
on *every* request completion from the deterministic service clock —
independent of whether a span recorder is attached — so
:meth:`ServiceMetrics.snapshot` is bit-identical with observability
off, on, or sampled (the ``tests/obs`` non-interference property).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import ServiceError
from repro.obs.histograms import StreamingHistogram


@dataclass
class RequestMetrics:
    """One request's life, in service-clock ticks and work counts."""

    request_id: int
    #: service clock when the request arrived.
    submitted_at: int = 0
    #: service clock when assembly actually started (admission grant).
    started_at: Optional[int] = None
    #: service clock when the last complex object completed.
    completed_at: Optional[int] = None
    #: complex objects served straight from the result cache.
    cache_hits: int = 0
    #: granted window size (after any admission shrink).
    window_size: int = 0
    #: was the window shrunk below what the client asked?
    shrunk: bool = False
    emitted: int = 0
    aborted: int = 0
    fetches: int = 0
    shared_links: int = 0
    #: degraded complex objects emitted (``partial`` fault mode).
    degraded: int = 0
    #: faulted fetches retried on this request's behalf.
    fault_retries: int = 0

    @property
    def queue_wait(self) -> Optional[int]:
        """Ticks spent waiting for admission (None while still queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> Optional[int]:
        """Submit-to-done ticks (None while incomplete)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def run_time(self) -> Optional[int]:
        """Ticks actually assembling: start-to-done (None while open).

        ``latency == queue_wait + run_time`` — the per-phase breakdown
        of where a request's service-clock time went.
        """
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class ServiceMetrics:
    """Counters across the whole service lifetime."""

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_rejected: int = 0
    requests_shrunk: int = 0
    requests_queued: int = 0
    #: requests cancelled before completion (hedge losers, client aborts).
    requests_cancelled: int = 0
    #: requests dropped by a fabric load-shedding policy (SLO breach),
    #: as opposed to ``requests_rejected`` (admission wait queue full).
    requests_shed: int = 0
    #: hedge duplicates issued on this service's behalf.
    hedge_fired: int = 0
    #: hedged requests where the duplicate finished first.
    hedge_won: int = 0
    #: total service-clock ticks completed requests spent waiting for
    #: admission (the scalar sum behind ``queue_wait_hist``).
    queue_wait_ticks: int = 0
    objects_emitted: int = 0
    objects_aborted: int = 0
    #: complex objects emitted with faulted subtrees dropped.
    objects_degraded: int = 0
    #: fetches retried after an injected fault, service-wide.
    fault_retries: int = 0
    #: complex objects abandoned because of faults (subset of aborted).
    fault_aborts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: reorganization rounds the online reorganizer executed.
    reorg_rounds: int = 0
    #: objects migrated onto new pages across those rounds.
    reorg_migrations: int = 0
    #: distinct pages written by migrations (sources + targets).
    reorg_pages_written: int = 0
    #: cached assemblies invalidated because a member object moved.
    reorg_cache_invalidations: int = 0
    #: cost-model milliseconds the migration batches were priced at.
    reorg_io_ms: float = 0.0
    #: simulated milliseconds of the run (None until a driver on a
    #: simulated clock — the fabric's fleet roll-up — sets it).
    elapsed_ms: Optional[float] = None
    #: streaming latency distribution (service-clock ticks), fed on
    #: every completion — observability-independent by construction.
    latency_hist: StreamingHistogram = field(
        default_factory=StreamingHistogram
    )
    #: streaming queue-wait distribution (ticks before admission).
    queue_wait_hist: StreamingHistogram = field(
        default_factory=StreamingHistogram
    )
    #: streaming run-time distribution (ticks actually assembling).
    run_time_hist: StreamingHistogram = field(
        default_factory=StreamingHistogram
    )
    per_request: Dict[int, RequestMetrics] = field(default_factory=dict)

    def open_request(
        self, request_id: int, submitted_at: int
    ) -> RequestMetrics:
        """Start tracking one request."""
        metrics = RequestMetrics(
            request_id=request_id, submitted_at=submitted_at
        )
        self.per_request[request_id] = metrics
        self.requests_submitted += 1
        return metrics

    def close_request(self, metrics: RequestMetrics) -> None:
        """Fold one completed request into the streaming histograms.

        Called by the service when a request finishes, with clock
        stamps already set.  The histograms see every completion in
        completion order, on the deterministic service clock, so two
        identical executions produce bit-equal histograms whether or
        not any observability is attached.
        """
        if metrics.latency is not None:
            self.latency_hist.record(float(metrics.latency))
        if metrics.queue_wait is not None:
            self.queue_wait_hist.record(float(metrics.queue_wait))
            self.queue_wait_ticks += metrics.queue_wait
        if metrics.run_time is not None:
            self.run_time_hist.record(float(metrics.run_time))

    #: counter fields merge() sums; everything else needs special care.
    _SUMMED_FIELDS = (
        "requests_submitted",
        "requests_completed",
        "requests_rejected",
        "requests_shrunk",
        "requests_queued",
        "requests_cancelled",
        "requests_shed",
        "hedge_fired",
        "hedge_won",
        "queue_wait_ticks",
        "objects_emitted",
        "objects_aborted",
        "objects_degraded",
        "fault_retries",
        "fault_aborts",
        "cache_hits",
        "cache_misses",
        "reorg_rounds",
        "reorg_migrations",
        "reorg_pages_written",
        "reorg_cache_invalidations",
    )

    def merge(self, other: "ServiceMetrics") -> "ServiceMetrics":
        """Fold another service's metrics into this one; returns self.

        This is the fabric's fleet roll-up: counters add, the streaming
        histograms merge bucket-wise (so fleet p90/p99 come from the
        combined distribution, **not** from averaging per-shard
        percentiles) and ``elapsed_ms`` takes the max (the fleet is as
        slow as its slowest shard).
        Per-request entries are appended under fresh keys — request ids
        are only unique within one service.
        """
        for name in self._SUMMED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.reorg_io_ms += other.reorg_io_ms
        self.latency_hist.merge(other.latency_hist)
        self.queue_wait_hist.merge(other.queue_wait_hist)
        self.run_time_hist.merge(other.run_time_hist)
        if other.elapsed_ms is not None:
            self.elapsed_ms = (
                other.elapsed_ms
                if self.elapsed_ms is None
                else max(self.elapsed_ms, other.elapsed_ms)
            )
        next_key = max(self.per_request, default=-1) + 1
        for offset, metrics in enumerate(other.per_request.values()):
            self.per_request[next_key + offset] = metrics
        return self

    @classmethod
    def merged(
        cls, parts: "Iterable[ServiceMetrics]"
    ) -> "ServiceMetrics":
        """A fresh fleet aggregate of ``parts`` (the parts are not
        mutated; histograms are merged into new copies)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def latencies(self) -> List[int]:
        """Completed-request latencies in ticks, ascending."""
        return sorted(
            m.latency for m in self.per_request.values()
            if m.latency is not None
        )

    def percentile_latency(self, fraction: float) -> Optional[int]:
        """Latency at ``fraction`` (0–1] of completed requests."""
        if not 0.0 < fraction <= 1.0:
            raise ServiceError("fraction must be in (0, 1]")
        ordered = self.latencies()
        if not ordered:
            return None
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def snapshot(self) -> Dict[str, object]:
        """Global counters as a flat dict (per-request detail omitted)."""
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_shrunk": self.requests_shrunk,
            "requests_queued": self.requests_queued,
            "requests_cancelled": self.requests_cancelled,
            "requests_shed": self.requests_shed,
            "hedge_fired": self.hedge_fired,
            "hedge_won": self.hedge_won,
            "queue_wait_ticks": self.queue_wait_ticks,
            "objects_emitted": self.objects_emitted,
            "objects_aborted": self.objects_aborted,
            "objects_degraded": self.objects_degraded,
            "fault_retries": self.fault_retries,
            "fault_aborts": self.fault_aborts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "reorg_rounds": self.reorg_rounds,
            "reorg_migrations": self.reorg_migrations,
            "reorg_pages_written": self.reorg_pages_written,
            "reorg_cache_invalidations": self.reorg_cache_invalidations,
            "reorg_io_ms": self.reorg_io_ms,
            "p50_latency": self.percentile_latency(0.50),
            "p95_latency": self.percentile_latency(0.95),
            "p90_latency": self.latency_hist.p90,
            "p99_latency": self.latency_hist.p99,
            "max_latency": self.latency_hist.max,
            "latency_hist": self.latency_hist.snapshot(),
            "queue_wait_hist": self.queue_wait_hist.snapshot(),
            "run_time_hist": self.run_time_hist.snapshot(),
            "elapsed_ms": self.elapsed_ms,
        }
