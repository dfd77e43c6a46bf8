"""The touched-query ``step`` is the full-rescan ``step``, interleaving by interleaving.

``AssemblyService.step`` used to rescan every request the service had
ever accepted; it now visits only the requests whose queries the device
server collected during the step.  The old loop is kept here as the
oracle and both services are driven through the same generated submit /
step / cancel / result programs under an admission budget tight enough
that requests wait, start shrunk, and that a finishing request starts
waiters in the middle of a sweep.  Everything a client
or an operator can observe must agree after every single rule.

The device server's fairness has an oracle of its own: the per-query
``waited`` counters (bumped on every other pending query at each
resolution, scanned in full for the most starved) that the clock stamps
replaced.  Both servers run the same programs under a small starvation
bound, so overrides fire, and over a template whose predicate counts
promise one predicate more than the data decides: objects park their
deferred references until the pool runs dry, so queries wait at zero
pending while unfinished — the case where a stamp and a counter could
part.  Pop order, services per query and every query's wait must agree
after every rule.
"""

from __future__ import annotations

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_layout
from repro.errors import ServiceOverloadError, ServiceStateError
from repro.service.device_server import DeviceServer
from repro.service.server import AssemblyService, RequestStatus
from repro.workloads.acob import make_template, payload_predicate

N_OBJECTS = 24
#: pin_bound(4, 7-node template) = 25: one window-4 request fills the
#: budget, everything behind it queues and later starts shrunk.
TIGHT_BUDGET = 25
#: small enough that the starvation override fires in most programs.
STARVATION_BOUND = 3
#: room for several queries at once, so stamps tie and the override
#: has to pick among them.
FAIR_BUDGET = 64


class RescanService(AssemblyService):
    """The step this PR deleted: visit every request ever accepted."""

    def step(self) -> bool:
        advanced = self.server.step()
        finished_any = False
        for request in list(self._requests.values()):
            if request.status is RequestStatus.RUNNING:
                self._collect(request)
                if request.query is not None and request.query.finished:
                    self._finish(request)
                    finished_any = True
        return advanced or finished_any


class RecordingServer(DeviceServer):
    """A device server that logs every reference it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pops = []

    def _serve(self, ref):
        self.pops.append((ref.client, ref.oid))
        super()._serve(ref)


class CountingServer(RecordingServer):
    """The fairness the stamps replaced: a ``waited`` counter per query."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counters = {}

    def waited(self, query_id):
        return self.counters.get(query_id, 0)

    def _starved_query(self):
        worst_id = None
        worst_wait = self.starvation_bound - 1
        for query_id, query in self._queries.items():
            if query.finished or self._pending[query_id] == 0:
                continue
            if self.waited(query_id) > worst_wait:
                worst_id = query_id
                worst_wait = self.waited(query_id)
        return worst_id

    def _serve(self, ref):
        for other_id, other in self._queries.items():
            if other.finished or other_id == ref.client:
                continue
            if self._pending[other_id] > 0:
                self.counters[other_id] = self.waited(other_id) + 1
        self.counters[ref.client] = 0
        super()._serve(ref)


def parking_template(db):
    """``n1`` filters half the objects; ``n5`` is counted as a predicate
    node but carries none, so no surviving object ever decides its last
    predicate: each parks its deferred references until the whole pool
    runs dry and the server's safety valve releases them."""
    template = make_template(
        db, predicate_position=1, predicate=payload_predicate(0.5)
    )
    template.node("n5").predicate = payload_predicate(0.5)
    template.reannotate()
    template.node("n5").predicate = None  # stale on purpose
    return template


def build(service_class, server_class=None):
    """``(service, layout, template)``; with ``server_class`` the service
    runs on that device server under :data:`STARVATION_BOUND` and
    :data:`FAIR_BUDGET`, and the template is :func:`parking_template`."""
    config = ExperimentConfig(
        n_complex_objects=N_OBJECTS,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
        buffer_capacity=TIGHT_BUDGET if server_class is None else FAIR_BUDGET,
    )
    db, layout = build_layout(config)
    service = service_class(layout.store, max_waiting=5)
    if server_class is None:
        return service, layout, make_template(db)
    service.server = server_class(
        layout.store, starvation_bound=STARVATION_BOUND
    )
    return service, layout, parking_template(db)


def observe(service, layout, accepted):
    """Everything observable about ``service`` right now."""
    statuses = [service.poll(rid) for rid in accepted]
    return {
        "statuses": statuses,
        "results": [
            [
                (o.root_oid, o.fetches, o.shared_links, o.degraded)
                for o in service.result(rid)
            ]
            for rid, status in zip(accepted, statuses)
            if status is RequestStatus.DONE
        ],
        "metrics": service.metrics.snapshot(),
        "per_request": [
            asdict(service.request_metrics(rid)) for rid in accepted
        ],
        "cache": service.cache.stats,
        "disk": layout.store.disk.stats,
        "buffer": layout.store.buffer.stats,
        "clock": service.clock,
    }


def apply(rule, service, layout, template, accepted):
    """Run one rule; returns what the client saw (value or error type)."""
    kind = rule[0]
    try:
        if kind == "submit":
            _, picks, window = rule
            roots = [layout.root_order[i] for i in picks]
            rid = service.submit(roots, template, window_size=window)
            accepted.append(rid)
            return rid
        if kind == "resubmit":
            # The roots of a finished request again: served whole from
            # the result cache unless the LRU has dropped some since.
            done = [
                r for r in accepted
                if service.poll(r) is RequestStatus.DONE
            ]
            if not done:
                return None
            again = done[rule[1] % len(done)]
            roots = [o.root_oid for o in service.result(again)]
            rid = service.submit(roots, template, window_size=2)
            accepted.append(rid)
            return rid
        if kind == "step":
            return [service.step() for _ in range(rule[1])]
        if not accepted:
            return None
        rid = accepted[rule[1] % len(accepted)]
        if kind == "cancel":
            return service.cancel(rid)
        return len(service.result(rid))
    except (ServiceOverloadError, ServiceStateError) as exc:
        return type(exc)


def running_ids(service):
    """Request ids in the service's query-id -> request-id map, sorted."""
    return sorted(service._running.values())


def check_running_index(service, accepted):
    running = [
        rid for rid in accepted
        if service.poll(rid) is RequestStatus.RUNNING
    ]
    assert running_ids(service) == sorted(running)
    for query_id, rid in service._running.items():
        assert service._requests[rid].query.query_id == query_id


def fairness(service):
    """What the device server decided and how long each query waited."""
    server = service.server
    return {
        "pops": list(server.pops),
        "queries": {
            query.query_id: (query.served, server.waited(query.query_id))
            for query in server.active_queries()
        },
    }


submits = st.tuples(
    st.just("submit"),
    st.lists(
        st.integers(0, N_OBJECTS - 1), min_size=1, max_size=6, unique=True
    ),
    st.sampled_from([1, 2, 4, 8]),
)
rules = st.one_of(
    submits,
    submits,
    st.tuples(st.just("resubmit"), st.integers(0, 50)),
    st.tuples(st.just("step"), st.integers(1, 25)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("result"), st.integers(0, 50)),
)


@settings(max_examples=150)
@given(
    # An opening burst overfills the budget, so every program has
    # waiters in the queue before the free-form rules begin.
    burst=st.lists(submits, min_size=4, max_size=8),
    rest=st.lists(rules, max_size=25),
)
def test_live_index_step_equals_full_rescan(burst, rest):
    oracle, oracle_layout, template = build(RescanService)
    service, layout, _ = build(AssemblyService)
    oracle_ids, ids = [], []
    for rule in burst + rest + [("step", 400)]:
        expected = apply(rule, oracle, oracle_layout, template, oracle_ids)
        got = apply(rule, service, layout, template, ids)
        assert got == expected, rule
        assert ids == oracle_ids
        assert observe(service, layout, ids) == observe(
            oracle, oracle_layout, oracle_ids
        ), rule
        check_running_index(service, ids)
        check_running_index(oracle, oracle_ids)
    assert service._running == {}


@settings(max_examples=100, deadline=None)
@given(
    burst=st.lists(submits, min_size=4, max_size=8),
    rest=st.lists(rules, max_size=25),
)
def test_stamp_fairness_equals_waited_counters(burst, rest):
    oracle, oracle_layout, template = build(AssemblyService, CountingServer)
    service, layout, _ = build(AssemblyService, RecordingServer)
    oracle_ids, ids = [], []
    for rule in burst + rest + [("step", 400)]:
        expected = apply(rule, oracle, oracle_layout, template, oracle_ids)
        got = apply(rule, service, layout, template, ids)
        assert got == expected, rule
        assert fairness(service) == fairness(oracle), rule
        assert observe(service, layout, ids) == observe(
            oracle, oracle_layout, oracle_ids
        ), rule
    assert service._running == {}


def test_parked_queries_wait_at_zero_pending():
    """The fairness programs reach the case they exist for: an
    unfinished query with nothing pending, with overrides firing."""
    service, layout, template = build(AssemblyService, RecordingServer)
    roots = layout.root_order
    for index in range(3):
        service.submit(roots[index::3], template, window_size=1)
    server = service.server
    parked = overrides = 0
    while True:
        starved = server._starved_query()
        overrides += starved is not None
        if not service.step():
            break
        parked += sum(
            not query.finished and server.pending_of(query.query_id) == 0
            for query in server.active_queries()
        )
    assert parked > 0 and overrides > 0
    assert service._running == {}


def test_release_starts_a_higher_id_mid_sweep():
    """A finishing request starts waiters mid-sweep, pinned without
    hypothesis.

    Request 0 holds the whole budget; 1 and 2 queue.  When 0 finishes,
    its release starts 1 (asked for a window of 1) and then 2 (shrunk
    to fit beside it) inside the sweep that is finishing 0; both are
    RUNNING when the step returns.
    """
    service, layout, template = build(AssemblyService)
    roots = layout.root_order
    first = service.submit(roots[:4], template, window_size=4)
    small = service.submit(roots[4:8], template, window_size=1)
    large = service.submit(roots[8:12], template, window_size=4)
    assert running_ids(service) == [first]
    assert service.admission.waiting_ids() == [small, large]
    while service.poll(first) is not RequestStatus.DONE:
        assert service.step()
    assert not service.request_metrics(small).shrunk
    assert service.request_metrics(large).shrunk
    assert running_ids(service) == [small, large]
    service.run()
    assert service._running == {}
    for rid in (first, small, large):
        assert len(service.result(rid)) == 4
