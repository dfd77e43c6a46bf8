"""Closed-loop load benchmarks for the assembly service (Section 7).

The paper's server-per-device argument is about *concurrent* assembly:
independent operators each assume exclusive control of the device and
their elevator sweeps fight.  These drivers put a number on that with a
closed-loop load generator — every client keeps exactly one request in
flight, submitting the next the moment the previous completes — run in
two modes over identical request schedules:

* **naive per-client** — each client runs its own
  :class:`~repro.core.assembly.Assembly` with a private elevator queue
  against the shared disk (the broken exclusive-control assumption);
* **device server** — every client submits to one
  :class:`~repro.service.server.AssemblyService`, whose device server
  merges all references into a single global elevator sweep.

Seek distance is the paper's cost metric, so latency and throughput are
measured on the head-travel clock (pages of disk-head movement), which
is deterministic on the simulated disk: a request's latency is the head
travel that elapsed while it was in flight, and throughput is objects
assembled per 1000 pages of travel.  The service's own tick-based
p50/p95 (:class:`~repro.service.metrics.ServiceMetrics`) land in the
figure notes.

A separate driver measures the result cache on a repeated-hot-roots
workload against a buffer too small for the hot set: without the cache
every round re-faults the working set; with it, repeat rounds are
answered without touching the buffer at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentConfig, build_layout
from repro.bench.report import FigureResult
from repro.core.assembly import Assembly
from repro.core.template import Template
from repro.errors import ServiceStateError
from repro.service.server import AssemblyService, RequestStatus
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import make_template

#: Request schedule: ``schedule[client][request]`` is a list of roots.
Schedule = List[List[List[Oid]]]


def _client_schedule(
    roots: Sequence[Oid],
    n_clients: int,
    requests_per_client: int,
    roots_per_request: int,
) -> Schedule:
    """Deal roots to clients so concurrent requests span the disk.

    Roots are dealt round-robin across clients (wrapping if the
    database is smaller than the total demand), so at every moment the
    in-flight requests reference pages spread over the whole layout —
    the contention pattern the device server exists to fix.
    """
    needed = n_clients * requests_per_client * roots_per_request
    stream = [roots[i % len(roots)] for i in range(needed)]
    schedule: Schedule = [
        [[] for _ in range(requests_per_client)] for _ in range(n_clients)
    ]
    cursor = 0
    for request in range(requests_per_client):
        for _slot in range(roots_per_request):
            for client in range(n_clients):
                schedule[client][request].append(stream[cursor])
                cursor += 1
    return schedule


def _percentile(values: Sequence[float], fraction: float) -> float:
    """The value at ``fraction`` of the sorted sample (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return float(ordered[index])


class _LoadMetrics:
    """What one closed-loop run yields, on the head-travel clock."""

    def __init__(
        self,
        store: ObjectStore,
        latencies: List[float],
        emitted: int,
        notes: Optional[List[str]] = None,
    ) -> None:
        stats = store.disk.stats
        self.avg_seek = stats.avg_seek_per_read
        self.travel = stats.read_seek_total
        self.reads = stats.reads
        self.latencies = latencies
        self.emitted = emitted
        self.notes = notes or []

    @property
    def throughput(self) -> float:
        """Objects assembled per 1000 pages of head travel."""
        return self.emitted * 1000.0 / max(self.travel, 1)

    def p50(self) -> float:
        """Median request latency (pages of head travel in flight)."""
        return _percentile(self.latencies, 0.50)

    def p95(self) -> float:
        """95th-percentile request latency (pages of head travel)."""
        return _percentile(self.latencies, 0.95)


class _NaiveClient:
    """One closed-loop client running its own private assembly."""

    def __init__(self, requests: List[List[Oid]]) -> None:
        self.requests = requests
        self.cursor = 0
        self.operator: Optional[Assembly] = None
        self.submitted_travel = 0


def _run_naive(
    store: ObjectStore,
    template: Template,
    schedule: Schedule,
    window: int,
) -> _LoadMetrics:
    """Closed loop, naive mode: one private elevator per client.

    Clients are stepped round-robin, one emitted complex object per
    turn — the demand pattern a parallel query plan would generate —
    and a finished client immediately opens its next request.
    """
    disk = store.disk
    clients = [_NaiveClient(requests) for requests in schedule]
    latencies: List[float] = []
    emitted = 0

    def open_next(client: _NaiveClient) -> None:
        if client.cursor >= len(client.requests):
            client.operator = None
            return
        roots = client.requests[client.cursor]
        client.cursor += 1
        client.operator = Assembly(
            ListSource(roots),
            store,
            template,
            window_size=window,
            scheduler="elevator",
        )
        client.operator.open()
        client.submitted_travel = disk.stats.read_seek_total

    for client in clients:
        open_next(client)
    while True:
        progressed = False
        for client in clients:
            if client.operator is None:
                continue
            progressed = True
            row = client.operator.next()
            if row is None:
                latencies.append(
                    disk.stats.read_seek_total - client.submitted_travel
                )
                client.operator.close()
                open_next(client)
            else:
                emitted += 1
        if not progressed:
            break
    return _LoadMetrics(store, latencies, emitted)


def _run_service(
    store: ObjectStore,
    template: Template,
    schedule: Schedule,
    window: int,
    cache_capacity: int = 0,
) -> _LoadMetrics:
    """Closed loop, device-server mode: all clients share one service."""
    disk = store.disk
    service = AssemblyService(store, cache_capacity=cache_capacity)
    cursors = [0] * len(schedule)
    outstanding: Dict[int, int] = {}
    submitted_travel: Dict[int, int] = {}
    latencies: List[float] = []
    emitted = 0

    def submit_next(client: int) -> None:
        nonlocal emitted
        while cursors[client] < len(schedule[client]):
            roots = schedule[client][cursors[client]]
            cursors[client] += 1
            travel = disk.stats.read_seek_total
            request_id = service.submit(roots, template, window_size=window)
            if service.poll(request_id) is RequestStatus.DONE:
                # Fully cache-served: zero head travel, next request now.
                latencies.append(disk.stats.read_seek_total - travel)
                emitted += len(service.result(request_id))
                continue
            submitted_travel[request_id] = travel
            outstanding[client] = request_id
            return
        outstanding.pop(client, None)

    for client in range(len(schedule)):
        submit_next(client)
    while outstanding:
        if not service.step():
            raise ServiceStateError(
                "service went idle with outstanding closed-loop requests"
            )
        for client, request_id in list(outstanding.items()):
            if service.poll(request_id) is RequestStatus.DONE:
                latencies.append(
                    disk.stats.read_seek_total
                    - submitted_travel.pop(request_id)
                )
                emitted += len(service.result(request_id))
                submit_next(client)
    snapshot = service.metrics.snapshot()
    notes = [
        f"service ticks: p50={snapshot['p50_latency']} "
        f"p95={snapshot['p95_latency']} over "
        f"{snapshot['requests_completed']} requests"
    ]
    return _LoadMetrics(store, latencies, emitted, notes=notes)


def figure_service_scaling(
    db_size: int = 1000,
    client_counts: Sequence[int] = (1, 2, 4, 8),
    requests_per_client: int = 3,
    roots_per_request: int = 20,
    window: int = 8,
) -> List[FigureResult]:
    """Seek, throughput and latency vs client count, both modes.

    The acceptance claim lives in the first figure: at four or more
    concurrent clients the device server must beat naive per-client
    assembly on average seek distance per read.
    """
    seek = FigureResult(
        figure_id="Service S-1",
        title="closed-loop clients: naive per-client vs device server",
        x_label="clients",
        y_label="average seek distance per read (pages)",
    )
    throughput = FigureResult(
        figure_id="Service S-2",
        title="closed-loop throughput",
        x_label="clients",
        y_label="complex objects per 1000 pages of head travel",
    )
    latency = FigureResult(
        figure_id="Service S-3",
        title="closed-loop request latency",
        x_label="clients",
        y_label="head travel while in flight (pages)",
    )
    for count in client_counts:
        config = ExperimentConfig(
            n_complex_objects=db_size,
            clustering="inter-object",
            scheduler="elevator",
            window_size=window,
        )
        results: Dict[str, _LoadMetrics] = {}
        for mode in ("naive per-client", "device server"):
            database, layout = build_layout(config)
            template = make_template(database)
            schedule = _client_schedule(
                layout.root_order, count, requests_per_client,
                roots_per_request,
            )
            if mode == "naive per-client":
                run = _run_naive(layout.store, template, schedule, window)
            else:
                run = _run_service(layout.store, template, schedule, window)
            results[mode] = run
            seek.add_point(mode, count, run.avg_seek)
            throughput.add_point(mode, count, run.throughput)
            latency.add_point(f"{mode} p50", count, run.p50())
            latency.add_point(f"{mode} p95", count, run.p95())
            expected = count * requests_per_client * roots_per_request
            assert run.emitted == expected, (
                f"{mode} @ {count} clients: {run.emitted} != {expected}"
            )
            for note in run.notes:
                latency.notes.append(f"{count} clients, {mode}: {note}")

    naive_seek = seek.ys("naive per-client")
    server_seek = seek.ys("device server")
    contended = [
        i for i, count in enumerate(client_counts) if count >= 4
    ]
    seek.check(
        "device server beats naive per-client at >= 4 clients",
        bool(contended)
        and all(server_seek[i] < naive_seek[i] for i in contended),
    )
    seek.check(
        "naive per-client degrades as clients are added",
        naive_seek[-1] > naive_seek[0] * 1.1,
    )
    throughput.check(
        "device server sustains higher throughput at >= 4 clients",
        bool(contended)
        and all(
            throughput.ys("device server")[i]
            > throughput.ys("naive per-client")[i]
            for i in contended
        ),
    )
    latency.check(
        "device server p95 below naive p95 at max clients",
        latency.ys("device server p95")[-1]
        < latency.ys("naive per-client p95")[-1],
    )
    return [seek, throughput, latency]


def figure_service_cache(
    db_size: int = 600,
    hot_roots: int = 40,
    rounds: int = 4,
    window: int = 8,
    buffer_capacity: int = 64,
) -> FigureResult:
    """Repeated-hot-roots workload: page faults per round, ± cache.

    The buffer is sized well below the hot set's unclustered page
    footprint, so without the result cache every round re-faults the
    working set; with it, rounds after the first are served entirely
    from assembled results.  The acceptance claim: the cache cuts
    repeat-round page faults by at least 90%.
    """
    figure = FigureResult(
        figure_id="Service S-4",
        title="result cache on a repeated-hot-roots workload",
        x_label="round",
        y_label="buffer page faults during round",
    )
    repeat_faults: Dict[str, int] = {}
    for label, capacity in (("no cache", 0), ("with cache", hot_roots)):
        config = ExperimentConfig(
            n_complex_objects=db_size,
            clustering="unclustered",
            scheduler="elevator",
            window_size=window,
            buffer_capacity=buffer_capacity,
        )
        database, layout = build_layout(config)
        template = make_template(database)
        service = AssemblyService(layout.store, cache_capacity=capacity)
        hot = list(layout.root_order[:hot_roots])
        faults_after_warm = 0
        for round_number in range(1, rounds + 1):
            before = layout.store.buffer.stats.faults
            request_id = service.submit(hot, template, window_size=window)
            assembled = service.result(request_id)
            assert len(assembled) == hot_roots
            faults = layout.store.buffer.stats.faults - before
            figure.add_point(label, round_number, faults)
            if round_number > 1:
                faults_after_warm += faults
        repeat_faults[label] = faults_after_warm
        if capacity:
            figure.notes.append(
                f"cache hits {service.metrics.cache_hits}, "
                f"misses {service.metrics.cache_misses}"
            )
    figure.check(
        "warm round faults identical with and without cache",
        figure.ys("no cache")[0] == figure.ys("with cache")[0],
    )
    figure.check(
        "cache cuts repeat-round page faults by >= 90%",
        repeat_faults["with cache"]
        <= 0.10 * max(repeat_faults["no cache"], 1),
    )
    return figure


def figure_service() -> List[FigureResult]:
    """Figures S-1..S-4: device server vs per-client queues, result cache."""
    return figure_service_scaling() + [figure_service_cache()]
