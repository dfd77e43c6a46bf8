"""Tests for assembly tracing."""

from repro.core import trace
from repro.core.assembly import Assembly
from repro.core.trace import AssemblyTracer, TraceEvent
from repro.storage.oid import Oid
from repro.iterator import ListSource
from repro.obs.spans import SpanRecorder
from repro.workloads.acob import generate_acob, make_template, payload_predicate

from tests.core.test_assembly import (
    figure4_database,
    figure4_template,
    lay_out_figure4,
)
from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore


def traced(scheduler="depth-first", window=2, n_objects=3):
    """The Figure 4 database assembled with a recorder; ``(builder,
    emitted, operator, tracer)``."""
    store = ObjectStore(SimulatedDisk())
    builder = figure4_database(n_objects)
    layout = lay_out_figure4(builder, store)
    tracer = AssemblyTracer(SpanRecorder())
    op = Assembly(
        ListSource(layout.root_order),
        store,
        figure4_template(),
        window_size=window,
        scheduler=scheduler,
        spans=tracer.recorder,
    )
    emitted = op.execute()
    return builder, emitted, op, tracer


class TestTracerBasics:
    """The view over a recorder that an ``Assembly`` filled."""

    def test_record_and_query(self):
        _builder, emitted, op, tracer = traced(n_objects=1)
        decisions = tracer.recorder.of_kind(trace.DECISION)
        assert len(tracer) == len(decisions) > 0
        assert [e.kind for e in tracer] == [span.name for span in decisions]
        first = decisions[0]
        assert first.start == first.end
        root = emitted[0].root_oid
        assert first.attrs == {
            "owner": 0, "oid": list(root), "label": "A",
            "page": op.store.directory.page_of(root),
        }
        assert len(tracer.fetch_order()) == op.stats.fetches
        kinds = [e.kind for e in tracer.per_owner(0)]
        assert (kinds[0], kinds[-1]) == (trace.ADMITTED, trace.EMITTED)
        assert tracer.counts() == {
            trace.ADMITTED: 1, trace.FETCHED: op.stats.fetches,
            trace.EMITTED: 1,
        }

    def test_event_str(self):
        event = TraceEvent(trace.FETCHED, 2, Oid(1, 5), label="B", page_id=9)
        text = str(event)
        assert "#2" in text and "fetched" in text and "@page 9" in text

    def test_summarize_truncates(self):
        _builder, _emitted, _op, tracer = traced()
        text = tracer.summarize(max_events=2)
        assert f"{len(tracer) - 2} more events" in text
        assert len(text.splitlines()) == 3


class TestTracedAssembly:
    def run_traced(self, scheduler="depth-first", window=2):
        builder, emitted, _op, tracer = traced(scheduler, window)
        return builder, emitted, tracer

    def test_fetch_order_matches_figure5(self):
        """The tracer replays Section 6.2's depth-first order."""
        builder, _emitted, tracer = self.run_traced()
        labels = [
            f"{builder.registry.by_id(oid.type_id).name}{oid.serial}"
            for oid in tracer.fetch_order()
        ]
        assert labels[:4] == ["A1", "B1", "D1", "C1"]

    def test_every_object_emits_once(self):
        _builder, emitted, tracer = self.run_traced()
        assert len(tracer.of_kind(trace.EMITTED)) == len(emitted) == 3

    def test_admissions_precede_fetches_per_owner(self):
        _builder, _emitted, tracer = self.run_traced()
        for owner in range(3):
            kinds = [e.kind for e in tracer.per_owner(owner)]
            assert kinds[0] == trace.ADMITTED
            assert kinds[-1] == trace.EMITTED

    def test_tracing_does_not_change_results(self):
        _builder, traced_out, _tracer = self.run_traced("elevator", 2)
        store = ObjectStore(SimulatedDisk())
        builder = figure4_database(3)
        layout = lay_out_figure4(builder, store)
        plain = Assembly(
            ListSource(layout.root_order), store, figure4_template(),
            window_size=2, scheduler="elevator",
        ).execute()
        assert {c.root_oid for c in traced_out} == {c.root_oid for c in plain}

    def test_reopen_clears_trace(self):
        """A recorder accumulates across re-opens: the second execution
        appends the same decisions again."""
        store = ObjectStore(SimulatedDisk())
        builder = figure4_database(2)
        layout = lay_out_figure4(builder, store)
        tracer = AssemblyTracer(SpanRecorder())
        op = Assembly(
            ListSource(layout.root_order), store, figure4_template(),
            window_size=1, spans=tracer.recorder,
        )
        op.execute()
        first = tracer.events
        op.execute()
        assert tracer.events == first + first


class TestPredicateAndSharingEvents:
    def test_predicate_events_and_aborts(self):
        db = generate_acob(30, seed=3)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(db.complex_objects, store, Unclustered())
        tracer = AssemblyTracer(SpanRecorder())
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(
                db, predicate_position=1, predicate=payload_predicate(0.5)
            ),
            window_size=4,
            spans=tracer.recorder,
        )
        emitted = op.execute()
        counts = tracer.counts()
        assert counts[trace.PREDICATE_PASSED] == len(emitted)
        assert counts[trace.PREDICATE_FAILED] == op.stats.aborted
        assert counts[trace.ABORTED] == op.stats.aborted
        assert counts.get(trace.DEFERRED, 0) > 0
        # Every emitted object's deferred refs were activated.
        assert counts.get(trace.ACTIVATED, 0) == counts[trace.DEFERRED] - sum(
            1
            for owner in range(30)
            if any(
                e.kind == trace.ABORTED for e in tracer.per_owner(owner)
            )
            for e in tracer.per_owner(owner)
            if e.kind == trace.DEFERRED
        )

    def test_shared_link_events(self):
        db = generate_acob(20, sharing=0.25, seed=4)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        tracer = AssemblyTracer(SpanRecorder())
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db, sharing=0.25),
            window_size=5,
            spans=tracer.recorder,
        )
        op.execute()
        assert len(tracer.of_kind(trace.LINKED_SHARED)) == op.stats.shared_links
        # Resolution order interleaves fetches and links.
        assert len(tracer.resolution_order()) == (
            op.stats.fetches + op.stats.shared_links
        )
