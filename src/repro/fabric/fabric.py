"""The sharded service fabric: replicas, hedging, load shedding.

One :class:`~repro.service.server.AssemblyService` is a single device
server — the paper's §7 sketch stops there.  The fabric is the
million-user story on top: N independent *shards* (each with its own
disks, buffer pool, result cache, admission controller and metrics),
each shard served by one or more *replicas* holding identical copies
of the shard's partition, fed by open-loop traffic from
:mod:`repro.fabric.arrivals` through a consistent-hash
:class:`~repro.fabric.router.ConsistentHashRouter`.

Time model
----------
Every replica owns a millisecond clock advanced by the cost-model
price of the physical reads its service performs (captured through
the disk's additive I/O observer, plus any fault-injected delay).
The fabric multiplexes replicas the way the event engine multiplexes
devices: it always steps the busy replica with the *smallest* clock,
and delivers due events (arrivals, hedge timers) from a
:class:`~repro.storage.events.EventQueue` whenever no busy replica
lags behind the event.  Between two events the busy replicas sit on
a heap, and a step completes exactly the requests its service step
finished, so a step costs one resolution whatever the fleet's size
or backlog.  Idle replicas jump forward to the arrival
they receive.  Elapsed time is therefore ``max`` over replica
timelines, never ``sum`` — and the whole schedule is deterministic:
same specs, same seeds, bit-identical results, clocks and metrics.

Exactness anchor (property-tested): with one shard, one replica,
hedging off and every arrival at t=0, the fabric degenerates to
"submit everything in order, then run" — byte-identical results, disk
statistics and service-metrics snapshots to driving the underlying
:class:`AssemblyService` directly.

Hedging
-------
With replicas > 1 and a :class:`HedgePolicy`, each request schedules
a hedge timer at ``arrival + delay`` where the delay is priced from
the cost model (a multiple of the request's expected service time).
If the primary has not finished by then, a duplicate is issued to the
replica with the shortest queue among the others; whichever copy
finishes first wins and the loser is cancelled on the event clock
(its pending references retracted, its admission budget released).

Load shedding
-------------
With a :class:`SheddingPolicy`, each shard tracks its recent latency
tail in an :class:`~repro.obs.slo.SLOTracker`; while the windowed
p99 breaches the declared SLO, new arrivals are dropped at the door
instead of joining the admission queue — bounding the backlog the
existing admission controller would otherwise accumulate.  Admission
rejections (wait queue full) count as sheds too: either way the
fabric turned a request away under overload.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.template import Template
from repro.errors import FabricError, ServiceOverloadError
from repro.fabric.router import ConsistentHashRouter
from repro.obs.slo import SLOTracker
from repro.service.metrics import ServiceMetrics
from repro.service.server import AssemblyService, RequestStatus
from repro.storage.costmodel import CostModel, DeviceLedger
from repro.storage.events import EventQueue
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore

#: Expected fetches per complex object when pricing a hedge delay (the
#: ACOB template has 7 nodes).
HEDGE_READS_PER_OBJECT = 7
#: Typical positioning distance, in pages, of one clustered read.
HEDGE_SEEK_PAGES = 8


@dataclass(frozen=True)
class RequestSpec:
    """One open-loop request: what to assemble and when it arrives."""

    roots: Tuple[Oid, ...]
    arrival_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.roots:
            raise FabricError("a request needs at least one root")
        if self.arrival_ms < 0:
            raise FabricError("arrivals cannot precede time zero")


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a hedged duplicate.

    The hedge delay is priced from the fabric's cost model, not
    guessed in wall-clock units: a request for R roots is expected to
    cost about ``R * HEDGE_READS_PER_OBJECT`` positioned reads of
    ``HEDGE_SEEK_PAGES`` each, and the duplicate fires after
    ``multiplier`` times that — i.e. only once the primary is running
    conspicuously late, which is what keeps hedge overhead bounded.
    """

    multiplier: float = 1.5

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise FabricError("hedge multiplier must be positive")

    def delay_ms(self, n_roots: int, cost_model: CostModel) -> float:
        """Milliseconds after arrival before the duplicate is issued."""
        per_read = cost_model.run_service_time(HEDGE_SEEK_PAGES, 1)
        return self.multiplier * n_roots * HEDGE_READS_PER_OBJECT * per_read


@dataclass(frozen=True)
class SheddingPolicy:
    """Declared p99 latency SLO and the tracker window enforcing it."""

    target_ms: float
    window: int = 64
    min_samples: int = 8

    def make_tracker(self) -> SLOTracker:
        """A fresh per-shard tracker configured for this policy."""
        return SLOTracker(
            target_ms=self.target_ms,
            window=self.window,
            min_samples=self.min_samples,
        )


class ShardReplica:
    """One replica: a full service stack plus its private clock.

    A :class:`~repro.storage.costmodel.DeviceLedger` on the replica's
    disk prices every physical read its service performs; each
    submit/step is one ledger bracket, and ``clock`` advances by the
    bracket's priced reads (times ``speed_factor`` — heterogeneous
    replica hardware) plus any fault-injected delay.  A ledger only
    watches, so attaching it never changes the service's behavior.

    Every request asks the service's default window.  The attribute
    ``submit_kwargs`` (empty here) is applied to every
    ``service.submit`` on this replica: nothing in the library sets
    it; tests assign it to reach a ``window_size`` or a
    ``retry_policy`` / ``on_fault`` mode for a replica whose disk
    carries a fault injector.
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        store: ObjectStore,
        service: AssemblyService,
        cost_model: Optional[CostModel] = None,
        speed_factor: float = 1.0,
    ) -> None:
        if speed_factor <= 0:
            raise FabricError("speed_factor must be positive")
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.store = store
        self.service = service
        self._disk = store.disk
        self.ledger = DeviceLedger(self._disk.n_devices, cost_model)
        self.cost_model = self.ledger.cost_model
        self._disk.add_read_tap(self.ledger.record)
        self.speed_factor = speed_factor
        self.submit_kwargs: Dict[str, Any] = {}
        self.clock = 0.0
        #: service request id -> in-flight fabric request.
        self.outstanding: Dict[int, "FabricRequest"] = {}

    @property
    def depth(self) -> int:
        """Fabric requests outstanding here (queued or running)."""
        return len(self.outstanding)

    def advance_to(self, when: float) -> None:
        """Idle-jump the clock forward (never backward)."""
        if when > self.clock:
            self.clock = when

    def _charge(self, action: Callable[[], Any]) -> Any:
        """Run ``action`` and bill its priced I/O to the clock."""
        ledger = self.ledger
        injector = self._disk.fault_injector
        # Bracketed on the running total: the clock advances by the
        # total's growth, the same float difference it always has.
        before = ledger.total
        mark = ledger.mark(before, injector)
        try:
            return action()
        finally:
            _reads, _pages, after, injected = ledger.since(mark, injector)
            delta = after - before + injected
            if delta:
                self.clock += delta * self.speed_factor

    def submit(self, spec: RequestSpec, template: Template) -> int:
        """Submit one spec to this replica's service; its request id."""
        return self._charge(
            lambda: self.service.submit(
                list(spec.roots), template, **self.submit_kwargs
            )
        )

    def step(self) -> bool:
        """One service step, billed to the replica clock."""
        # _charge, inlined: this runs once per resolution.
        ledger = self.ledger
        injector = self._disk.fault_injector
        before = ledger.total
        mark = ledger.mark(before, injector)
        try:
            return self.service.step()
        finally:
            _reads, _pages, after, injected = ledger.since(mark, injector)
            delta = after - before + injected
            if delta:
                self.clock += delta * self.speed_factor

    def __repr__(self) -> str:
        return (
            f"ShardReplica({self.shard_id}.{self.replica_id}, "
            f"clock={self.clock:.1f}ms, depth={self.depth})"
        )


class Shard:
    """One shard: its replicas, roots, SLO tracker and metrics.

    ``metrics`` is a fabric-level :class:`ServiceMetrics` on the
    *millisecond* clock: ``requests_submitted`` counts arrivals routed
    here, ``latency_hist`` holds end-to-end latencies of served
    requests, and the shed/hedge counters live here.  The replicas'
    own tick-domain service metrics stay untouched underneath (and
    bit-identical to an unsharded run — the exactness property).
    """

    def __init__(
        self,
        shard_id: int,
        replicas: List[ShardReplica],
        roots: List[Oid],
        slo: Optional[SLOTracker] = None,
        placement: str = "shortest-queue",
    ) -> None:
        if not replicas:
            raise FabricError(f"shard {shard_id} has no replicas")
        # A request names its replicas by id (FabricRequest.attempts),
        # and the fabric finds one as ``replicas[replica_id]``.
        for position, replica in enumerate(replicas):
            if (replica.shard_id, replica.replica_id) != (shard_id, position):
                raise FabricError(
                    f"shard {shard_id}'s replica at position {position} is "
                    f"{replica.shard_id}.{replica.replica_id}"
                )
        if placement not in ("shortest-queue", "round-robin"):
            raise FabricError(
                f"unknown placement {placement!r} "
                "(want 'shortest-queue' or 'round-robin')"
            )
        self.shard_id = shard_id
        self.replicas = replicas
        self.roots = roots
        self.slo = slo
        self.placement = placement
        self.metrics = ServiceMetrics()
        self._round_robin = 0

    def pick_primary(self) -> ShardReplica:
        """Placement: where a fresh arrival goes."""
        if self.placement == "round-robin":
            replica = self.replicas[self._round_robin % len(self.replicas)]
            self._round_robin += 1
            return replica
        return min(
            self.replicas, key=lambda r: (r.depth, r.replica_id)
        )

    def pick_hedge_target(
        self, primary: ShardReplica
    ) -> Optional[ShardReplica]:
        """Shortest-queue replica other than the primary, if any."""
        others = [r for r in self.replicas if r is not primary]
        if not others:
            return None
        return min(others, key=lambda r: (r.depth, r.replica_id))

    def snapshot(self) -> Dict[str, object]:
        """Per-shard observability view (metrics + SLO state)."""
        view: Dict[str, object] = {"shard": self.shard_id}
        view.update(self.metrics.snapshot())
        view["slo"] = None if self.slo is None else self.slo.snapshot()
        view["replica_depths"] = [r.depth for r in self.replicas]
        view["replica_clocks"] = [r.clock for r in self.replicas]
        return view


class FabricRequest:
    """Fabric-side state of one open-loop request."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    SHED = "shed"

    def __init__(self, index: int, spec: RequestSpec) -> None:
        self.index = index
        self.spec = spec
        self.shard_id = -1
        self.status = self.PENDING
        #: (replica id, service request id) per issued copy, primary
        #: first; the replica is ``shards[shard_id].replicas[replica id]``.
        self.attempts: List[Tuple[int, int]] = []
        self.hedge_handle: Optional[int] = None
        self.hedged = False
        self.won_by_hedge = False
        self.shed_reason: Optional[str] = None
        self.complete_ms: Optional[float] = None
        self.results: List[Any] = []

    @property
    def latency_ms(self) -> Optional[float]:
        """Arrival-to-completion time; None until the request is done."""
        if self.complete_ms is None:
            return None
        return self.complete_ms - self.spec.arrival_ms


@dataclass
class FabricReport:
    """Everything one open-loop run produced."""

    requests: List[FabricRequest]
    #: merged shard-level metrics (ms domain): the fleet roll-up.
    fleet: ServiceMetrics
    #: merged replica service metrics (tick domain): device detail.
    replicas: ServiceMetrics
    per_shard: List[Dict[str, object]] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def served(self) -> List[FabricRequest]:
        """Requests that completed, in arrival order."""
        return [r for r in self.requests if r.status == FabricRequest.DONE]

    @property
    def shed(self) -> List[FabricRequest]:
        """Requests turned away (SLO or overload), in arrival order."""
        return [r for r in self.requests if r.status == FabricRequest.SHED]

    def latencies_ms(self) -> List[float]:
        """Served-request latencies, ascending."""
        return sorted(r.latency_ms for r in self.served)

    def percentile_latency_ms(self, fraction: float) -> Optional[float]:
        """Exact served-latency percentile over the whole run."""
        if not 0.0 < fraction <= 1.0:
            raise FabricError("fraction must be in (0, 1]")
        ordered = self.latencies_ms()
        if not ordered:
            return None
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def shed_fraction(self) -> float:
        """Requests turned away / requests offered."""
        if not self.requests:
            return 0.0
        return len(self.shed) / len(self.requests)


class ServiceFabric:
    """Routes open-loop traffic across shards; runs it to completion."""

    def __init__(
        self,
        shards: List[Shard],
        router: ConsistentHashRouter,
        template: Template,
        cost_model: Optional[CostModel] = None,
        hedging: Optional[HedgePolicy] = None,
        span_recorder: Optional[Any] = None,
    ) -> None:
        if router.n_shards != len(shards):
            raise FabricError(
                f"router spans {router.n_shards} shards but "
                f"{len(shards)} were built"
            )
        self.shards = shards
        self.router = router
        self.template = template.finalize()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.hedging = hedging
        self.spans = span_recorder
        self._now = 0.0
        self._events: Optional[EventQueue] = None
        if span_recorder is not None:
            # Through a weak proxy: a clock over ``self`` would put the
            # whole fleet in a cycle with the recorder it holds.
            fabric = weakref.proxy(self)
            span_recorder.bind_clock(lambda: fabric._now)

    # -- the run loop --------------------------------------------------------

    def run(self, specs: Iterable[RequestSpec]) -> FabricReport:
        """Deliver every spec at its arrival time; run until drained."""
        events = EventQueue()
        self._events = events
        requests = [
            FabricRequest(index, spec)
            for index, spec in enumerate(specs)
        ]
        for request in requests:
            events.schedule(request.spec.arrival_ms, ("arrival", request))
        replicas = sorted(
            (r for shard in self.shards for r in shard.replicas),
            key=lambda r: (r.shard_id, r.replica_id),
        )
        # The rank breaks clock ties: lowest (shard_id, replica_id) first.
        ranked = list(enumerate(replicas))
        next_event = events.next_time()
        while True:
            self._step_busy(
                ranked, math.inf if next_event is None else next_event
            )
            due = events.next_time()
            if due != next_event:
                # A completion cancelled the event the steps stopped at.
                next_event = due
                continue
            if due is None:
                break
            when, (kind, payload) = events.pop()
            self._now = max(self._now, when)
            if kind == "arrival":
                self._arrive(when, payload)
            else:
                self._fire_hedge(when, payload)
            next_event = events.next_time()
        self._events = None
        unfinished = [
            r.index
            for r in requests
            if r.status not in (FabricRequest.DONE, FabricRequest.SHED)
        ]
        if unfinished:
            raise FabricError(
                f"fabric drained with unfinished requests {unfinished}"
            )
        return self._report(requests)

    def _step_busy(
        self, ranked: List[Tuple[int, ShardReplica]], horizon: float
    ) -> None:
        """Step the earliest busy replica while its clock is below
        ``horizon``, until none is.

        Between two events the busy set only shrinks: a step moves only
        the stepped replica's clock, and a completion can only cancel
        events or leave another replica idle, never make one busy.  So
        the busy replicas go on a heap once, keyed by ``(clock, rank)``
        (``rank`` orders ``(shard_id, replica_id)``); the stepped one
        is re-keyed after each step, and one found idle at the top is
        dropped.  A cancelled event only makes ``horizon`` stop the
        steps early, and the caller resumes them.
        """
        heap = [
            (replica.clock, rank, replica)
            for rank, replica in ranked
            if replica.outstanding
        ]
        heapify(heap)
        step = self._step_replica
        while heap:
            clock, rank, replica = heap[0]
            if not replica.outstanding:
                heappop(heap)
            elif clock >= horizon:
                return
            else:
                step(replica)
                heapreplace(heap, (replica.clock, rank, replica))

    def _step_replica(self, replica: ShardReplica) -> None:
        advanced = replica.step()
        outstanding = replica.outstanding
        # Only a request the step finished can have become DONE; the
        # service lists them in ascending id, the order they were
        # submitted here.
        for request_id in replica.service.finished:
            self._complete(outstanding[request_id], replica, request_id)
        if not advanced and outstanding:
            raise FabricError(
                f"replica {replica.shard_id}.{replica.replica_id} idle "
                f"with {replica.depth} request(s) outstanding"
            )

    # -- event handlers ------------------------------------------------------

    def _arrive(self, when: float, request: FabricRequest) -> None:
        spec = request.spec
        shard_id = self.router.shard_of(spec.roots[0])
        for root in spec.roots[1:]:
            if self.router.shard_of(root) != shard_id:
                raise FabricError(
                    f"request {request.index} spans shards: {root} is not "
                    f"on shard {shard_id} (one request, one shard)"
                )
        shard = self.shards[shard_id]
        request.shard_id = shard_id
        shard.metrics.requests_submitted += 1
        # Door shedding bounds the *backlog*: a breached tracker with an
        # idle shard means the overload already drained, and admitting
        # is also what feeds the tracker the fast completions it needs
        # to recover — shedding an idle shard would latch the breach
        # forever (no completions, no new observations).
        backlogged = any(r.outstanding for r in shard.replicas)
        if shard.slo is not None and shard.slo.breached and backlogged:
            self._shed(shard, request, when, reason="slo")
            return
        primary = shard.pick_primary()
        if not primary.outstanding:
            primary.advance_to(when)
        try:
            request_id = primary.submit(spec, self.template)
        except ServiceOverloadError:
            self._shed(shard, request, when, reason="overload")
            return
        request.status = FabricRequest.RUNNING
        request.attempts.append((primary.replica_id, request_id))
        primary.outstanding[request_id] = request
        if primary.service.poll(request_id) is RequestStatus.DONE:
            # Served entirely from the result cache: done on arrival.
            self._complete(request, primary, request_id, at=when)
            return
        if self.hedging is not None and len(shard.replicas) > 1:
            delay = self.hedging.delay_ms(
                len(spec.roots), self.cost_model
            )
            assert self._events is not None
            request.hedge_handle = self._events.schedule(
                when + delay, ("hedge", request)
            )

    def _shed(
        self, shard: Shard, request: FabricRequest, when: float, reason: str
    ) -> None:
        request.status = FabricRequest.SHED
        request.shed_reason = reason
        shard.metrics.requests_shed += 1
        if self.spans is not None:
            self.spans.add(
                "fabric-shed",
                start=when,
                end=when,
                kind="fabric-shed",
                shard=shard.shard_id,
                request=request.index,
                reason=reason,
            )

    def _fire_hedge(self, when: float, request: FabricRequest) -> None:
        request.hedge_handle = None
        if request.status is not FabricRequest.RUNNING:
            return
        shard = self.shards[request.shard_id]
        primary_id, _request_id = request.attempts[0]
        target = shard.pick_hedge_target(shard.replicas[primary_id])
        if target is None:
            return
        if not target.outstanding:
            target.advance_to(when)
        try:
            duplicate_id = target.submit(request.spec, self.template)
        except ServiceOverloadError:
            return  # nowhere to hedge to; the primary keeps running
        request.hedged = True
        request.attempts.append((target.replica_id, duplicate_id))
        target.outstanding[duplicate_id] = request
        shard.metrics.hedge_fired += 1
        if self.spans is not None:
            self.spans.add(
                "fabric-hedge",
                start=when,
                end=when,
                kind="fabric-hedge",
                shard=shard.shard_id,
                request=request.index,
                replica=target.replica_id,
            )
        if target.service.poll(duplicate_id) is RequestStatus.DONE:
            self._complete(request, target, duplicate_id, at=when)

    # -- completion ----------------------------------------------------------

    def _complete(
        self,
        request: FabricRequest,
        winner: ShardReplica,
        winner_id: int,
        at: Optional[float] = None,
    ) -> None:
        complete_ms = winner.clock if at is None else at
        shard = self.shards[request.shard_id]
        request.results = winner.service.result(winner_id)
        del winner.outstanding[winner_id]
        request.status = FabricRequest.DONE
        request.complete_ms = complete_ms
        winner_attempt = (winner.replica_id, winner_id)
        request.won_by_hedge = (
            request.hedged and winner_attempt == request.attempts[-1]
        )
        if request.hedge_handle is not None:
            assert self._events is not None
            self._events.cancel(request.hedge_handle)
            request.hedge_handle = None
        for attempt in request.attempts:
            if attempt == winner_attempt:
                continue
            loser_replica, loser_id = attempt
            loser = shard.replicas[loser_replica]
            if loser_id in loser.outstanding:
                loser.service.cancel(loser_id)
                del loser.outstanding[loser_id]
        latency = request.latency_ms
        assert latency is not None
        shard.metrics.requests_completed += 1
        shard.metrics.latency_hist.record(latency)
        if request.won_by_hedge:
            shard.metrics.hedge_won += 1
        if shard.slo is not None:
            shard.slo.observe(latency)
        self._now = max(self._now, complete_ms)
        if self.spans is not None:
            self.spans.add(
                "fabric-request",
                start=request.spec.arrival_ms,
                end=complete_ms,
                kind="fabric-request",
                shard=request.shard_id,
                request=request.index,
                hedged=request.hedged,
                won_by_hedge=request.won_by_hedge,
            )

    # -- readout -------------------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        """Fleet wall time: the furthest replica clock."""
        return max(
            (r.clock for s in self.shards for r in s.replicas),
            default=0.0,
        )

    def fleet_metrics(self) -> ServiceMetrics:
        """Shard metrics rolled up (histogram merge, not averaging)."""
        return ServiceMetrics.merged(s.metrics for s in self.shards)

    def replica_metrics(self) -> ServiceMetrics:
        """All replicas' tick-domain service metrics, merged."""
        return ServiceMetrics.merged(
            r.service.metrics for s in self.shards for r in s.replicas
        )

    def _report(self, requests: List[FabricRequest]) -> FabricReport:
        fleet = self.fleet_metrics()
        fleet.elapsed_ms = self.elapsed_ms
        return FabricReport(
            requests=requests,
            fleet=fleet,
            replicas=self.replica_metrics(),
            per_shard=[s.snapshot() for s in self.shards],
            elapsed_ms=self.elapsed_ms,
        )
