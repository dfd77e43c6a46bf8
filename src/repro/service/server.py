"""The assembly service façade: ``submit`` / ``poll`` / ``result``.

:class:`AssemblyService` is the synchronous front of the §7 device
server.  A client submits an assembly request — a set of root OIDs, a
template, a window size — and gets a request id; the service multiplexes
every admitted request's references into the device server's global
elevator sweep, serves repeat roots from the result cache without
touching the disk at all, and enforces the admission controller's
buffer budget by shrinking, queueing, or rejecting requests.

The execution model is cooperative and deterministic: :meth:`step`
advances the whole service by one reference resolution, :meth:`run`
drives it until idle, and :meth:`result` blocks (by stepping) until one
request finishes.  The service clock is the device server's resolution
counter, so identical request sequences produce identical metrics on
the simulated disk.
"""

from __future__ import annotations

import weakref
from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro.core.assembled import AssembledComplexObject
from repro.core.assembly import FAIL_FAST, check_on_fault
from repro.core.template import Template
from repro.errors import ServiceOverloadError, ServiceStateError
from repro.obs.spans import Span, SpanRecorder
from repro.service.admission import AdmissionController, AdmissionTicket
from repro.service.cache import AssembledObjectCache
from repro.service.device_server import ClientQuery, DeviceServer
from repro.service.metrics import RequestMetrics, ServiceMetrics
from repro.storage.faults import RetryPolicy
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore


class RequestStatus(Enum):
    """Lifecycle of one submitted request."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"


class _Request:
    """Service-side state of one submitted request."""

    def __init__(
        self,
        request_id: int,
        template: Template,
        fingerprint: str,
        metrics: RequestMetrics,
        retry_policy: Optional[RetryPolicy],
        on_fault: str,
    ) -> None:
        self.request_id = request_id
        self.template = template
        self.fingerprint = fingerprint
        self.metrics = metrics
        self.retry_policy = retry_policy
        self.on_fault = on_fault
        self.status = RequestStatus.QUEUED
        self.results: List[AssembledComplexObject] = []
        self.pending_roots: List[Oid] = []
        self.ticket: Optional[AdmissionTicket] = None
        self.query: Optional[ClientQuery] = None
        self.span: Optional[Span] = None
        self.wait_span: Optional[Span] = None


class AssemblyService:
    """Serves concurrent assembly requests against one object store.

    Parameters
    ----------
    store:
        The shared (already laid out) object store.
    budget_pages:
        Admission budget in pinnable pages.  Defaults to the store
        buffer's capacity when that is bounded, else unlimited.
    cache_capacity:
        Result-cache size in complex objects; ``0`` disables caching.
    max_waiting:
        Admission wait-queue capacity.
    span_recorder:
        Optional :class:`~repro.obs.spans.SpanRecorder` tracing every
        request's life (``request`` → ``queue-wait`` → ``assembly`` →
        per-slot/fetch spans) on the service clock.  The recorder is
        bound to the device server's resolution counter and shared with
        every query's operator; recording is strictly observational —
        results and :class:`ServiceMetrics` are bit-identical with or
        without it.  Export the recorder's spans with
        :func:`repro.obs.export.write_chrome_trace` or
        :func:`~repro.obs.export.write_jsonl`.
    reorg_policy:
        Optional :class:`~repro.cluster.reorg.ReorgPolicy` enabling
        online reorganization.  The device server feeds the affinity
        sketch from its resolution stream; whenever :meth:`run` drains
        the service (the pool-idle window) a migration round may
        execute, with its activity folded into ``metrics``
        (``reorg_rounds``, ``reorg_migrations``, ``reorg_io_ms``,
        ``reorg_cache_invalidations``).  ``None`` (default) leaves the
        service bit-identical to one built before this feature.
    """

    def __init__(
        self,
        store: ObjectStore,
        budget_pages: Optional[int] = None,
        cache_capacity: int = 256,
        max_waiting: int = 16,
        span_recorder: Optional[SpanRecorder] = None,
        reorg_policy=None,
    ) -> None:
        self.store = store
        if budget_pages is None:
            budget_pages = store.buffer.capacity
        self.spans = span_recorder
        self.server = DeviceServer(
            store, spans=span_recorder, reorg_policy=reorg_policy
        )
        if span_recorder is not None:
            # Through a weak proxy: the server holds the recorder, so a
            # clock over the service would cycle the whole stack.
            server = weakref.proxy(self.server)
            span_recorder.bind_clock(lambda: float(server.resolutions))
        self.admission = AdmissionController(
            budget_pages=budget_pages,
            max_waiting=max_waiting,
            buffer=store.buffer,
        )
        self.cache: Optional[AssembledObjectCache] = None
        if cache_capacity > 0:
            self.cache = AssembledObjectCache(cache_capacity)
            self.cache.wire(store)
        self.metrics = ServiceMetrics()
        self._requests: Dict[int, _Request] = {}
        #: query id -> request id of every RUNNING request.
        self._running: Dict[int, int] = {}
        #: ids of the requests the last :meth:`step` finished, ascending
        #: (one list, emptied at the start of every step).
        self.finished: List[int] = []
        self._next_request_id = 0

    # -- submission ----------------------------------------------------------

    @property
    def clock(self) -> int:
        """The service clock: global references resolved so far."""
        return self.server.resolutions

    def submit(
        self,
        roots: Iterable[Oid],
        template: Template,
        window_size: int = 8,
        retry_policy: Optional[RetryPolicy] = None,
        on_fault: str = FAIL_FAST,
    ) -> int:
        """Accept one assembly request; returns its request id.

        Roots already in the result cache are answered immediately (no
        admission, no disk); the rest go through admission control and,
        once granted, into the device server.  ``retry_policy`` and
        ``on_fault`` are the request's fault handling, as on
        :class:`~repro.core.assembly.Assembly`.  Raises
        :class:`~repro.errors.ServiceOverloadError` when the budget is
        exhausted and the wait queue is full,
        :class:`~repro.errors.UnknownOidError` for a root the store does
        not hold, :class:`~repro.errors.AssemblyError` for an unknown
        ``on_fault`` and :class:`~repro.errors.ServiceStateError` for a
        ``window_size`` below 1; a rejected submit leaves no trace in
        the service.
        """
        # Checked before anything is counted: a bad option found later
        # would leave a counted request behind, or fail inside another
        # client's step when the queued request starts.
        check_on_fault(on_fault)
        if window_size <= 0:
            raise ServiceStateError("window_size must be positive")
        roots = list(roots)
        for root in roots:
            self.store.directory.lookup(root)
        template = template.finalize()
        fingerprint = template.fingerprint()
        request_id = self._next_request_id
        self._next_request_id += 1
        metrics = self.metrics.open_request(request_id, self.clock)
        request = _Request(
            request_id, template, fingerprint, metrics, retry_policy, on_fault
        )
        self._requests[request_id] = request
        if self.spans is not None:
            request.span = self.spans.begin(
                "request", kind="request", request_id=request_id
            )

        for root in roots:
            cached = None
            if self.cache is not None:
                cached = self.cache.get(root, fingerprint)
                if cached is not None:
                    self.metrics.cache_hits += 1
                    metrics.cache_hits += 1
                else:
                    self.metrics.cache_misses += 1
            if cached is not None:
                request.results.append(cached)
            else:
                request.pending_roots.append(root)

        if not request.pending_roots:
            self._finish(request)
            return request_id

        # Admission may raise ServiceOverloadError: the request is then
        # dropped entirely (load shedding), not left half-registered.
        try:
            ticket = self.admission.submit(request_id, window_size, template)
        except ServiceOverloadError:
            del self._requests[request_id]
            del self.metrics.per_request[request_id]
            self.metrics.requests_submitted -= 1
            self.metrics.cache_hits -= metrics.cache_hits
            if self.cache is not None:
                self.metrics.cache_misses -= len(request.pending_roots)
            self.metrics.requests_rejected += 1
            if self.spans is not None and request.span is not None:
                self.spans.end(request.span, outcome="rejected")
                request.span = None
            raise
        request.ticket = ticket
        if ticket.waiting:
            self.metrics.requests_queued += 1
            if self.spans is not None:
                request.wait_span = self.spans.begin(
                    "queue-wait", parent=request.span, kind="queue-wait"
                )
            return request_id
        self._start(request)
        return request_id

    def _start(self, request: _Request) -> None:
        assert request.ticket is not None and not request.ticket.waiting
        if self.spans is not None:
            if request.wait_span is not None:
                self.spans.end(request.wait_span)
                request.wait_span = None
        request.query = self.server.register(
            request.pending_roots,
            request.template,
            window_size=request.ticket.window_size,
            retry_policy=request.retry_policy,
            on_fault=request.on_fault,
            parent_span=request.span,
        )
        request.status = RequestStatus.RUNNING
        self._running[request.query.query_id] = request.request_id
        request.metrics.started_at = self.clock
        request.metrics.window_size = request.ticket.window_size
        request.metrics.shrunk = request.ticket.shrunk
        if request.ticket.shrunk:
            self.metrics.requests_shrunk += 1
        self._collect(request)

    # -- progress ------------------------------------------------------------

    def step(self) -> bool:
        """Advance the service by one global resolution.

        Returns ``False`` when nothing is left to do: no pending
        references, no running queries, no admissible waiters.  The
        ids of the requests this step finished are in :attr:`finished`,
        ascending, until the next step.
        """
        server = self.server
        finished = self.finished
        if finished:
            finished.clear()
        advanced = server.step()
        # Only the queries the step collected can have output or be
        # finished: visit their requests in ascending id (docs/service.md,
        # the step contract).  A request started inside this sweep was
        # collected by _start and cannot be finished yet.
        touched = server.touched
        running = self._running
        if len(touched) == 1:
            request_ids = (running[touched[0]],)
        else:
            request_ids = sorted({running[query_id] for query_id in touched})
        for request_id in request_ids:
            request = self._requests[request_id]
            self._collect(request)
            if request.query.finished:
                self._finish(request)
                finished.append(request_id)
        return advanced or bool(finished)

    def run(self) -> None:
        """Step until every submitted request is done.

        With a ``reorg_policy`` attached, the drained service is the
        detected idle window: one reorganization round may run here,
        after the last request completed and before control returns to
        the client.  Without a policy this is exactly the old loop.
        """
        while self.step():
            pass
        stuck = sorted([*self._running.values(), *self.admission.waiting_ids()])
        if stuck:
            raise ServiceStateError(
                f"service idle with unfinished requests {stuck}"
            )
        if self.server.reorg is not None:
            self._run_reorg_round()

    def reorganize(self):
        """Run one reorganization round now; returns its report.

        Raises :class:`ServiceStateError` when the service was built
        without a ``reorg_policy``.  The round runs even below the
        policy's observation threshold — the operator asked for it
        explicitly.
        """
        if self.server.reorg is None:
            raise ServiceStateError(
                "reorganize() needs a service built with reorg_policy="
            )
        return self._run_reorg_round(force=True)

    def _run_reorg_round(self, force: bool = False):
        """Execute one round and fold its activity into the metrics.

        Cache invalidations are measured as the invalidation-counter
        delta across the round: migrations notify the store's write
        hooks, which is the same per-OID invalidation path ordinary
        writes take, so the delta is exactly the assemblies dropped
        because a member moved.
        """
        reorg = self.server.reorg
        assert reorg is not None
        invalidations_before = (
            self.cache.stats.invalidations if self.cache is not None else 0
        )
        report = reorg.run_round(force=force)
        self.metrics.reorg_rounds = reorg.rounds
        self.metrics.reorg_migrations += report.migrations
        self.metrics.reorg_pages_written += report.pages_touched
        self.metrics.reorg_io_ms += report.priced_ms
        if self.cache is not None:
            self.metrics.reorg_cache_invalidations += (
                self.cache.stats.invalidations - invalidations_before
            )
        return report

    def _collect(self, request: _Request) -> None:
        for assembled in request.query.take_results():
            request.results.append(assembled)
            # Degraded objects are never cached: a later fault-free run
            # must be able to produce the complete structure.
            if self.cache is not None and not assembled.degraded:
                self.cache.put(request.fingerprint, assembled)

    def _finish(self, request: _Request) -> None:
        if request.query is not None:
            self._collect(request)
            stats = request.query.stats
            self.metrics.objects_emitted += stats.emitted
            self.metrics.objects_aborted += stats.aborted
            self.metrics.objects_degraded += stats.degraded_emitted
            self.metrics.fault_retries += stats.fault_retries
            self.metrics.fault_aborts += stats.fault_skipped
            request.metrics.fetches = stats.fetches
            request.metrics.emitted = stats.emitted
            request.metrics.aborted = stats.aborted
            request.metrics.shared_links = stats.shared_links
            request.metrics.fault_retries = stats.fault_retries
            request.metrics.degraded = stats.degraded_emitted
            self.server.deregister(request.query.query_id)
            del self._running[request.query.query_id]
            # A finished request keeps its metrics and results, not
            # its operator (window, component iterator, scheduler).
            request.query = None
        request.status = RequestStatus.DONE
        request.metrics.completed_at = self.clock
        self.metrics.requests_completed += 1
        self.metrics.close_request(request.metrics)
        if self.spans is not None and request.span is not None:
            self.spans.end(
                request.span,
                outcome="done",
                emitted=request.metrics.emitted,
                cache_hits=request.metrics.cache_hits,
            )
            request.span = None
        if request.ticket is not None:
            for started in self.admission.release(request.ticket):
                self._start(self._requests[started.request_id])
            request.ticket = None

    # -- client API ----------------------------------------------------------

    def cancel(self, request_id: int) -> bool:
        """Abandon an unfinished request; ``True`` if it was live.

        A queued request leaves the admission wait queue; a running one
        is deregistered from the device server (its pending references
        retracted) and its granted budget released, which may start
        waiting requests.  Partial results are discarded — the caller
        asked for none.  Cancelling a finished (or already cancelled)
        request returns ``False`` and changes nothing; this is what
        makes hedged requests race-free: whichever copy finishes first
        wins, and cancelling the loser is always safe.
        """
        request = self._request(request_id)
        if request.status in (RequestStatus.DONE, RequestStatus.CANCELLED):
            return False
        if request.status is RequestStatus.RUNNING:
            assert request.query is not None
            self.server.deregister(request.query.query_id)
            del self._running[request.query.query_id]
            request.query = None
        if request.ticket is not None:
            if request.ticket.waiting:
                self.admission.cancel_waiting(request.ticket)
            else:
                for started in self.admission.release(request.ticket):
                    self._start(self._requests[started.request_id])
            request.ticket = None
        request.status = RequestStatus.CANCELLED
        self.metrics.requests_cancelled += 1
        if self.spans is not None:
            if request.wait_span is not None:
                self.spans.end(request.wait_span, outcome="cancelled")
                request.wait_span = None
            if request.span is not None:
                self.spans.end(request.span, outcome="cancelled")
                request.span = None
        return True

    def poll(self, request_id: int) -> RequestStatus:
        """Current lifecycle state of one request."""
        try:
            return self._requests[request_id].status
        except KeyError:
            raise ServiceStateError(
                f"unknown request id {request_id}"
            ) from None

    def result(self, request_id: int) -> List[AssembledComplexObject]:
        """Drive the service until ``request_id`` finishes; its objects.

        Cache-served objects come first, then assembled ones in
        completion order.  Aborted (predicate-rejected) objects are
        simply absent, as with the bare assembly operator.
        """
        request = self._request(request_id)
        if request.status is RequestStatus.CANCELLED:
            raise ServiceStateError(
                f"request {request_id} was cancelled; it has no result"
            )
        while request.status is not RequestStatus.DONE:
            if not self.step():
                raise ServiceStateError(
                    f"request {request_id} cannot finish: service is idle"
                )
        return list(request.results)

    def request_metrics(self, request_id: int) -> RequestMetrics:
        """Per-request metrics (final once the request is done)."""
        return self._request(request_id).metrics

    def _request(self, request_id: int) -> _Request:
        try:
            return self._requests[request_id]
        except KeyError:
            raise ServiceStateError(
                f"unknown request id {request_id}"
            ) from None
