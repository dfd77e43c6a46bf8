"""Every way of driving the engine runs the same resolution step.

``Assembly.next()`` pops a reference (or a batch) itself; the device
server pops and hands back one reference through ``resolve_external``;
the completion loop pops a per-device batch, pins its ``fetch_pages``
and hands it back through ``resolve_external_batch``.  All three end in
one body, so driving the same operator each way — over a template with
a shared border, a predicate (aborts, deferred-then-activated
references) and a partially pre-assembled border — must give the same
rows in the same order, the same counters, the same disk accounting
and the same trace.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.bench.harness import ExperimentConfig, build_layout
from repro.core import trace
from repro.core.assembly import Assembly
from repro.core.template import Template, TemplateNode
from repro.iterator import ListSource
from repro.obs.spans import SpanRecorder
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import RIGHT_SLOT, make_template, payload_predicate

from tests.core.test_assembly import (
    figure4_database,
    figure4_template,
    lay_out_figure4,
)
from tests.integration.test_batch_equivalence import fingerprint_object

CONFIG = ExperimentConfig(
    n_complex_objects=40, clustering="intra-object", sharing=0.25
)
SCHEDULERS = ("depth-first", "breadth-first", "elevator")
#: None = deferral on (the template has a predicate): predicate-blind
#: references wait and are activated when the predicate passes.  False
#: = eager: siblings are queued beside the predicate node, so an abort
#: lands while they are already popped in the same batch.
SELECTIVE = (None, False)


def build(scheduler, selective, batch_pages=1, spans=None, config=CONFIG):
    """A fresh store and an operator over it: ``(operator, store, tracer)``.

    ``tracer`` is the decision view of ``spans``, or ``None`` when the
    operator runs without a recorder.

    The right subtree (``n2``) of every other complex object arrives
    pre-assembled — its root only, re-keyed to the full template, so
    linking it exposes the two leaves below (one of them the shared
    border) as remaining references.
    """
    database, layout = build_layout(config)
    store = layout.store
    template = make_template(
        database,
        sharing=config.sharing,
        predicate_position=1,
        predicate=payload_predicate(0.5),
    )
    borders = [
        store.fetch(root).refs[RIGHT_SLOT] for root in layout.root_order[::2]
    ]
    lower = Assembly(
        ListSource(borders), store, Template(TemplateNode("n2")), window_size=4
    )
    preassembled = {}
    for row in lower.rows():
        row.root.node = template.node("n2")
        preassembled[row.root_oid] = row.root
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        template,
        window_size=8,
        scheduler=scheduler,
        selective=selective,
        preassembled=preassembled,
        batch_pages=batch_pages,
        spans=spans,
    )
    tracer = None if spans is None else trace.AssemblyTracer(spans)
    return operator, store, tracer


def drive_next(operator, store):
    """The operator pops for itself."""
    operator.open()
    rows = list(iter(operator.next, None))
    operator.close()
    return rows


def drive_external(operator, store, batch_pages=None, resolve_share=1.0):
    """Pop the operator's pool by hand and feed the references back.

    ``batch_pages=None`` hands back one reference at a time through
    ``resolve_external`` (the device server's way); otherwise sweep
    batches go through ``fetch_pages`` + ``resolve_external_batch``
    behind this driver's own prefetch pins (the completion loop's way),
    with the tail beyond ``resolve_share`` of each batch requeued
    instead of resolved.  Returns the rows, this driver's ``(prefetch
    batches, prefetch pages)`` and how many references it handed back.
    """
    operator.open()
    scheduler = operator.scheduler
    rows = []
    prefetches = [0, 0]
    handed_back = 0
    while True:
        rows.extend(operator.drain_emitted())
        if len(scheduler) == 0:
            if operator.is_drained():
                break
            operator.release_stuck_deferred()
        elif batch_pages is None:
            handed_back += 1
            operator.resolve_external(scheduler.pop())
        else:
            batch = scheduler.pop_batch(batch_pages)
            keep = max(1, int(len(batch) * resolve_share))
            batch, unserved = batch[:keep], batch[keep:]
            handed_back += len(batch)
            pages = operator.fetch_pages(batch)
            if len(pages) < 2:
                pages = []
            else:
                store.buffer.fix_many(pages)
                prefetches[0] += 1
                prefetches[1] += len(pages)
            try:
                operator.resolve_external_batch(batch)
            finally:
                for page_id in pages:
                    store.buffer.unfix(page_id)
            operator.requeue(unserved)
    operator.close()
    return rows, tuple(prefetches), handed_back


def observed(rows, operator, store, tracer):
    """Everything one drive leaves behind, in comparable form (the
    decision list only when ``tracer`` is given)."""
    assert store.buffer.pinned_pages == 0
    result = {
        "rows": [(row.root_oid, fingerprint_object(row.root)) for row in rows],
        "stats": asdict(operator.stats),
        "disk": store.disk.stats,
    }
    if tracer is not None:
        result["events"] = tracer.events
    return result


def drive_untraced(scheduler, selective, batch_pages=None):
    """The external drive without a recorder, observed."""
    operator, store, _ = build(scheduler, selective)
    rows, _, _ = drive_external(operator, store, batch_pages=batch_pages)
    return observed(rows, operator, store, None)


@pytest.mark.parametrize("selective", SELECTIVE)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_reference_at_a_time_drives_are_identical(scheduler, selective):
    operator, store, tracer = build(scheduler, selective, spans=SpanRecorder())
    reference = observed(drive_next(operator, store), operator, store, tracer)
    # The scenario has everything the step branches on.
    kinds = tracer.counts()
    assert kinds[trace.LINKED_SHARED] and kinds[trace.LINKED_PREASSEMBLED]
    assert kinds[trace.ABORTED] and kinds[trace.EMITTED]
    if selective is None:
        assert kinds[trace.DEFERRED] and kinds[trace.ACTIVATED]

    operator, store, tracer = build(scheduler, selective, spans=SpanRecorder())
    rows, _, handed_back = drive_external(operator, store)
    assert observed(rows, operator, store, tracer) == reference
    # An abort retracts the owner's pool entries, so nothing stale is popped.
    assert handed_back == operator.stats.refs_resolved
    # Without a recorder: the same rows, counters and disk accounting.
    del reference["events"]
    assert drive_untraced(scheduler, selective) == reference


@pytest.mark.parametrize("selective", SELECTIVE)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_batch_drives_are_identical(scheduler, selective):
    operator, store, tracer = build(
        scheduler, selective, batch_pages=4, spans=SpanRecorder()
    )
    reference = observed(drive_next(operator, store), operator, store, tracer)
    prefetches = (
        reference["stats"].pop("prefetch_batches"),
        reference["stats"].pop("prefetch_pages"),
    )

    operator, store, tracer = build(scheduler, selective, spans=SpanRecorder())
    rows, driver_prefetches, handed_back = drive_external(
        operator, store, batch_pages=4
    )
    external = observed(rows, operator, store, tracer)
    # The pins belong to whoever popped the batch, and so do their counters.
    assert external["stats"].pop("prefetch_batches") == 0
    assert external["stats"].pop("prefetch_pages") == 0
    assert driver_prefetches == prefetches
    assert external == reference
    if selective is False and scheduler == "elevator":
        # Eager queuing puts same-page siblings in the batch that
        # aborts their owner: the step skipped them, at their turn.
        assert handed_back > operator.stats.refs_resolved
    # Without a recorder: the same rows, counters and disk accounting.
    untraced = drive_untraced(scheduler, selective, batch_pages=4)
    for key in ("prefetch_batches", "prefetch_pages"):
        del untraced["stats"][key]
    del external["events"]
    assert untraced == external


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_requeued_references_are_resolved_later(scheduler):
    """A driver that serves half of every batch and requeues the rest
    changes the order, never the result."""
    operator, store, tracer = build(scheduler, None)
    reference = drive_next(operator, store)
    aborted = operator.stats.aborted

    operator, store, tracer = build(scheduler, None)
    rows, _, _ = drive_external(
        operator, store, batch_pages=4, resolve_share=0.5
    )
    assert store.buffer.pinned_pages == 0
    assert operator.stats.aborted == aborted
    assert sorted(
        (row.root_oid, fingerprint_object(row.root)) for row in rows
    ) == sorted(
        (row.root_oid, fingerprint_object(row.root)) for row in reference
    )


def test_partial_input_admission_is_traced():
    """A partially assembled input starts its traced life at admission,
    like an OID root (Section 4's "partially assembled sub-object")."""
    store = ObjectStore(SimulatedDisk())
    layout = lay_out_figure4(figure4_database(4), store)
    a_only = TemplateNode("A", type_name="A")
    a_only.child(1, "C", type_name="C")
    partials = Assembly(
        ListSource(layout.root_order),
        store,
        Template(a_only).finalize(),
        window_size=2,
    ).execute()
    full = figure4_template()
    for partial in partials:
        partial.root.node = full.root
        partial.root.children[1].node = full.node("C")

    tracer = trace.AssemblyTracer(SpanRecorder())
    completed = Assembly(
        ListSource(partials), store, full, window_size=2,
        spans=tracer.recorder,
    ).execute()
    assert len(completed) == 4
    counts = tracer.counts()
    assert counts[trace.ADMITTED] == counts[trace.EMITTED] == 4
    for serial, partial in enumerate(partials):
        first = tracer.per_owner(serial)[0]
        assert (first.kind, first.oid) == (trace.ADMITTED, partial.root_oid)
        assert (first.label, first.page_id) == ("A", -1)
