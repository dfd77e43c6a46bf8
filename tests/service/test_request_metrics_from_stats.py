"""``AssemblyStats`` counts what the decision trace counts.

The service used to hang a tracer on every request and distil
``RequestMetrics.fetches/emitted/aborted/shared_links`` from its event
list; it now copies the four numbers from the query's
``AssemblyStats``.  These tests pin that the two sources agree wherever
they can differ — shared links, predicate aborts, degraded emissions
under a fault — and that the per-request metrics of the S-1 figure's
closed-loop workload are what the trace-derived ones were.  The trace
is :class:`~repro.core.trace.AssemblyTracer`'s view of the decision
spans an operator records on its ``spans=`` recorder; the fault cases
also pin the order of decisions after a fault.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentConfig, build_layout
from repro.bench.service import _client_schedule
from repro.core import trace
from repro.core.assembly import PARTIAL, Assembly
from repro.core.trace import AssemblyTracer
from repro.obs.spans import SpanRecorder
from repro.service.server import AssemblyService, RequestStatus
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.iterator import ListSource
from repro.workloads.acob import make_template, payload_predicate


def traced_counts(tracer):
    counts = tracer.counts()
    return {
        "fetches": counts.get(trace.FETCHED, 0),
        "emitted": counts.get(trace.EMITTED, 0),
        "aborted": counts.get(trace.ABORTED, 0),
        "shared_links": counts.get(trace.LINKED_SHARED, 0),
    }


def stats_counts(stats):
    return {
        "fetches": stats.fetches,
        "emitted": stats.emitted,
        "aborted": stats.aborted,
        "shared_links": stats.shared_links,
    }


def run_traced(
    sharing=0.0, selectivity=None, read_error_rate=0.0, sample_rate=1.0,
    **kwargs,
):
    """Run one traced engine over 60 objects; ``(stats, tracer)``."""
    db, layout = build_layout(
        ExperimentConfig(
            n_complex_objects=60,
            clustering="inter-object",
            scheduler="elevator",
            window_size=8,
            cluster_pages=64,
            sharing=sharing,
        )
    )
    if read_error_rate:
        FaultInjector(
            FaultConfig(seed=5, read_error_rate=read_error_rate)
        ).attach(layout.store.disk)
    template = make_template(
        db,
        sharing=sharing,
        predicate_position=None if selectivity is None else 1,
        predicate=None if selectivity is None
        else payload_predicate(selectivity),
    )
    tracer = AssemblyTracer(SpanRecorder(sample_rate=sample_rate))
    operator = Assembly(
        ListSource(layout.root_order),
        layout.store,
        template,
        window_size=8,
        scheduler="elevator",
        spans=tracer.recorder,
        **kwargs,
    )
    operator.execute()
    return operator.stats, tracer


class TestStatsEqualTrace:
    def test_plain(self):
        stats, tracer = run_traced()
        assert stats_counts(stats) == traced_counts(tracer)
        assert stats.emitted == 60 and stats.fetches == 7 * 60

    def test_shared_links(self):
        stats, tracer = run_traced(sharing=0.25)
        assert stats.shared_links > 0
        assert stats_counts(stats) == traced_counts(tracer)

    def test_predicate_aborts(self):
        stats, tracer = run_traced(selectivity=0.3)
        assert stats.aborted > 0 and stats.emitted > 0
        assert stats_counts(stats) == traced_counts(tracer)

    def test_partial_degradation_under_a_transient_fault(self):
        stats, tracer = run_traced(read_error_rate=0.1, on_fault=PARTIAL)
        assert stats.fault_events > 0 and stats.degraded_emitted > 0
        assert stats_counts(stats) == traced_counts(tracer)


def after_each_fault(tracer):
    """The kind of the next decision on each fault's own ``(owner, oid)``."""
    events = tracer.events
    following = []
    for at, event in enumerate(events):
        if event.kind == trace.FAULT:
            following.append(next(
                later.kind for later in events[at + 1:]
                if (later.owner, later.oid) == (event.owner, event.oid)
            ))
    return following


class TestDecisionOrderUnderFaults:
    """What the operator decides after a faulted fetch, in order."""

    def test_a_retried_fault_is_followed_by_its_fetch(self):
        stats, tracer = run_traced(
            read_error_rate=0.1, retry_policy=RetryPolicy(max_retries=3)
        )
        following = after_each_fault(tracer)
        assert len(following) == stats.fault_events == 29
        assert following.count(trace.FETCHED) == 28
        assert following.count(trace.FAULT) == 1
        assert stats_counts(stats) == traced_counts(tracer)

    def test_an_unretried_fault_degrades_or_aborts(self):
        stats, tracer = run_traced(read_error_rate=0.1, on_fault=PARTIAL)
        following = after_each_fault(tracer)
        assert len(following) == stats.fault_events == 26
        assert following.count(trace.DEGRADED) == 19
        assert following.count(trace.ABORTED) == 7
        assert stats.missing_components == 19

    def test_a_sampled_out_slot_takes_its_decisions_with_it(self):
        full = run_traced(read_error_rate=0.1, on_fault=PARTIAL)[1]
        _stats, tracer = run_traced(
            read_error_rate=0.1, on_fault=PARTIAL, sample_rate=0.25
        )
        recorder = tracer.recorder
        slots = {
            span.span_id: span.attrs["serial"]
            for span in recorder.of_kind("window-slot")
        }
        assert 0 < len(slots) < 60 and recorder.sampled_out > 0
        decisions = recorder.of_kind(trace.DECISION)
        # No orphans: every decision hangs under its owner's kept slot.
        assert decisions and all(
            slots.get(span.parent_id) == span.attrs["owner"]
            for span in decisions
        )
        assert tracer.events == [
            event for event in full.events if event.owner in slots.values()
        ]


def test_per_request_metrics_on_the_s1_workload():
    """Four closed-loop clients, the S-1 schedule: every request's
    metrics equal the counts of a tracer riding along on its query."""
    db, layout = build_layout(
        ExperimentConfig(
            n_complex_objects=120,
            clustering="inter-object",
            scheduler="elevator",
            window_size=8,
        )
    )
    template = make_template(db)
    schedule = _client_schedule(layout.root_order, 4, 3, 10)
    service = AssemblyService(layout.store, cache_capacity=0)
    tracers = {}
    cursors = [0] * len(schedule)
    outstanding = {}

    def submit_next(client):
        if cursors[client] == len(schedule[client]):
            outstanding.pop(client, None)
            return
        roots = schedule[client][cursors[client]]
        cursors[client] += 1
        tracer = AssemblyTracer(SpanRecorder())
        request_id = service.submit(
            roots, template, window_size=8, spans=tracer.recorder
        )
        tracers[request_id] = tracer
        outstanding[client] = request_id

    for client in range(len(schedule)):
        submit_next(client)
    while outstanding:
        assert service.step()
        for client, request_id in list(outstanding.items()):
            if service.poll(request_id) is RequestStatus.DONE:
                submit_next(client)

    assert len(tracers) == 12
    for request_id, tracer in tracers.items():
        metrics = service.metrics.per_request[request_id]
        assert stats_counts(metrics) == traced_counts(tracer)
        assert stats_counts(metrics) == {
            "fetches": 70, "emitted": 10, "aborted": 0, "shared_links": 0,
        }
