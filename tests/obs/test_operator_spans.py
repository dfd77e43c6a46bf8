"""Operator-level spans: observability flows through the plan layer.

The assembly operator is the engine, span recorder included — so a
plan-wrapped assembly is observable exactly like the bare driver, and
a parallel assembly whose partition engines share a recorder records
one assembly span per partition.  The non-interference contract from the
obs layer must hold at operator level too: recording spans leaves row
output and disk accounting bit-identical.
"""

from __future__ import annotations

import functools
from unittest import mock

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.obs.spans import SpanRecorder
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.volcano import assembly as volcano_assembly
from repro.volcano.assembly import AssemblyOperator, ParallelAssembly
from repro.volcano.filters import Filter
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def laid_out_store():
    db = generate_acob(10, seed=11)
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=32),
        shared=db.shared_pool,
    )
    return db, store, layout


def stats_tuple(disk):
    stats = disk.stats
    return (
        stats.reads,
        stats.pages_read,
        stats.read_seek_total,
        stats.run_reads,
        stats.busy_ms,
    )


class TestOperatorSpans:
    def test_plan_wrapped_assembly_records_spans(self):
        db, store, layout = laid_out_store()
        recorder = SpanRecorder()
        plan = Filter(
            AssemblyOperator(
                ListSource(layout.root_order),
                store,
                make_template(db),
                window_size=2,
                spans=recorder,
            ),
            lambda _row: True,
        )
        rows = plan.execute()
        assert len(rows) == 10
        assert recorder.of_kind("assembly")
        assert recorder.open_spans() == []

    def test_reopen_records_a_fresh_assembly_span(self):
        db, store, layout = laid_out_store()
        recorder = SpanRecorder()
        operator = AssemblyOperator(
            ListSource(layout.root_order),
            store,
            make_template(db),
            window_size=2,
            spans=recorder,
        )
        operator.execute()
        operator.execute()
        assert len(recorder.of_kind("assembly")) == 2

    def test_parallel_assembly_spans_one_per_partition(self):
        db, _store, layout = laid_out_store()
        replicas = [laid_out_store()[1] for _ in range(3)]
        recorder = SpanRecorder()
        parallel = ParallelAssembly(
            ListSource(layout.root_order),
            replicas,
            make_template(db),
            window_size=2,
        )
        # The recorder reaches each partition's engine through the
        # engine class the fragments are built from.
        with mock.patch.object(
            volcano_assembly,
            "Assembly",
            functools.partial(Assembly, spans=recorder),
        ):
            rows = parallel.execute()
        assert len(rows) == 10
        assert len(recorder.of_kind("assembly")) == 3
        assert recorder.open_spans() == []

    def test_recording_does_not_perturb_rows_or_stats(self):
        def run(recorder):
            db, store, layout = laid_out_store()
            kwargs = dict(window_size=2)
            if recorder is not None:
                kwargs["spans"] = recorder
            rows = AssemblyOperator(
                ListSource(layout.root_order),
                store,
                make_template(db),
                **kwargs,
            ).execute()
            return (
                [row.root_oid for row in rows],
                stats_tuple(store.disk),
            )

        assert run(None) == run(SpanRecorder())
