"""The live-index ``step`` is the full-rescan ``step``, interleaving by interleaving.

``AssemblyService.step`` used to rescan every request the service had
ever accepted; it now sweeps a sorted index of the RUNNING ones.  The
old loop is kept here as the oracle and both services are driven
through the same generated submit / step / cancel / result programs
under an admission budget tight enough that low ids wait while higher
(priority) ids run and that a finishing request starts waiters in the
middle of a sweep.  Everything a client or an operator can observe must
agree after every single rule.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_layout
from repro.errors import ServiceOverloadError, ServiceStateError
from repro.service.server import AssemblyService, RequestStatus
from repro.workloads.acob import make_template

N_OBJECTS = 24
#: pin_bound(4, 7-node template) = 25: one window-4 request fills the
#: budget, everything behind it queues and later starts shrunk.
TIGHT_BUDGET = 25


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


def build(service_class):
    config = ExperimentConfig(
        n_complex_objects=N_OBJECTS,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
        buffer_capacity=TIGHT_BUDGET,
    )
    db, layout = build_layout(config)
    service = service_class(layout.store, max_waiting=5)
    return service, layout, make_template(db)


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
            service.request_metrics(rid).as_dict() for rid in accepted
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
            _, picks, window, priority = rule
            roots = [layout.root_order[i] for i in picks]
            rid = service.submit(
                roots, template, window_size=window, priority=priority
            )
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


def check_live_index(service, accepted):
    running = {
        rid for rid in accepted
        if service.poll(rid) is RequestStatus.RUNNING
    }
    assert set(service._live) == running
    assert service._live == sorted(service._live)


submits = st.tuples(
    st.just("submit"),
    st.lists(
        st.integers(0, N_OBJECTS - 1), min_size=1, max_size=6, unique=True
    ),
    st.sampled_from([1, 2, 4, 8]),
    st.booleans(),
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
    # waiters in both lanes before the free-form rules begin.
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
        check_live_index(service, ids)
        check_live_index(oracle, oracle_ids)
    assert service._live == []


def test_release_starts_a_higher_id_mid_sweep():
    """The case the sorted index exists for, pinned without hypothesis.

    Request 0 holds the whole budget; 1 (FIFO) and 2 (priority) queue.
    When 0 finishes, its release starts 2 (asked for a window of 1) and
    then 1 (shrunk to fit beside it) inside the sweep that is finishing
    0 — both have higher ids, so the same step visits them — and the
    index stays sorted although 2 was inserted first.
    """
    service, layout, template = build(AssemblyService)
    roots = layout.root_order
    first = service.submit(roots[:4], template, window_size=4)
    fifo = service.submit(roots[4:8], template, window_size=4)
    urgent = service.submit(
        roots[8:12], template, window_size=1, priority=True
    )
    assert service._live == [first]
    assert service.admission.waiting_ids() == [urgent, fifo]
    while service.poll(first) is not RequestStatus.DONE:
        assert service.step()
    assert service.request_metrics(fifo).shrunk
    assert service._live == [fifo, urgent]
    service.run()
    assert service._live == []
    for rid in (first, fifo, urgent):
        assert len(service.result(rid)) == 4
