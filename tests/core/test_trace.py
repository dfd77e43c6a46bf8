"""Tests for assembly tracing."""

import pytest

from repro.core import trace
from repro.core.assembly import Assembly
from repro.core.trace import AssemblyTracer, TraceEvent
from repro.errors import AssemblyError
from repro.storage.oid import Oid
from repro.iterator import ListSource
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


class TestTracerBasics:
    def test_record_and_query(self):
        tracer = AssemblyTracer()
        tracer.record(trace.FETCHED, 0, Oid(1, 1), label="A", page_id=3)
        tracer.record(trace.EMITTED, 0, Oid(1, 1))
        assert len(tracer) == 2
        assert tracer.fetch_order() == [Oid(1, 1)]
        assert [e.kind for e in tracer.per_owner(0)] == [
            trace.FETCHED, trace.EMITTED,
        ]
        assert tracer.counts() == {trace.FETCHED: 1, trace.EMITTED: 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(AssemblyError):
            AssemblyTracer().record("teleported", 0, Oid(1, 1))

    def test_event_str(self):
        event = TraceEvent(trace.FETCHED, 2, Oid(1, 5), label="B", page_id=9)
        text = str(event)
        assert "#2" in text and "fetched" in text and "@page 9" in text

    def test_summarize_truncates(self):
        tracer = AssemblyTracer()
        for serial in range(5):
            tracer.record(trace.EMITTED, serial, Oid(1, serial + 1))
        text = tracer.summarize(max_events=2)
        assert "3 more events" in text

    def test_clear(self):
        tracer = AssemblyTracer()
        tracer.record(trace.EMITTED, 0, Oid(1, 1))
        tracer.clear()
        assert len(tracer) == 0


class TestTracedAssembly:
    def run_traced(self, scheduler="depth-first", window=2):
        store = ObjectStore(SimulatedDisk())
        builder = figure4_database(3)
        layout = lay_out_figure4(builder, store)
        tracer = AssemblyTracer()
        op = Assembly(
            ListSource(layout.root_order),
            store,
            figure4_template(),
            window_size=window,
            scheduler=scheduler,
            tracer=tracer,
        )
        emitted = op.execute()
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
        store = ObjectStore(SimulatedDisk())
        builder = figure4_database(2)
        layout = lay_out_figure4(builder, store)
        tracer = AssemblyTracer()
        op = Assembly(
            ListSource(layout.root_order), store, figure4_template(),
            window_size=1, tracer=tracer,
        )
        op.execute()
        first_len = len(tracer)
        op.execute()
        assert len(tracer) == first_len  # cleared, then refilled


class TestPredicateAndSharingEvents:
    def test_predicate_events_and_aborts(self):
        db = generate_acob(30, seed=3)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(db.complex_objects, store, Unclustered())
        tracer = AssemblyTracer()
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(
                db, predicate_position=1, predicate=payload_predicate(0.5)
            ),
            window_size=4,
            tracer=tracer,
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
        tracer = AssemblyTracer()
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db, sharing=0.25),
            window_size=5,
            tracer=tracer,
        )
        op.execute()
        assert len(tracer.of_kind(trace.LINKED_SHARED)) == op.stats.shared_links
        # Resolution order interleaves fetches and links.
        assert len(tracer.resolution_order()) == (
            op.stats.fetches + op.stats.shared_links
        )
