"""A one-page batch skips the prefetch planner and changes nothing.

``Assembly._resolve_batch`` used to route every reference of a batch
through ``fetch_pages`` before the step routed it again.  Only a
prefetch (two or more pages) or, with spans on, the ``batch`` span
reads that page list, and a scheduler batch lists each page once, in
sweep order — so a batch whose first and last reference share a page
spans one page and now skips the routing pass.

The old ``_resolve_batch`` is kept here as the oracle.  Under the
elevator (the one scheduler with a batched pick), with spans on and
off, over a template with a shared border, a predicate whose aborts retract
references popped in the same batch (eager queuing), and a partially
pre-assembled border, ``Assembly(batch_pages=4)`` must give the same
rows, ``AssemblyStats``, ``DiskStats`` and (spans on) decision trace
and spans either way; and a variant that never prefetches must be told
apart.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.bench.harness import ExperimentConfig
from repro.core import trace
from repro.core.assembly import Assembly
from repro.errors import BufferFullError, FaultError
from repro.obs.spans import SpanRecorder

from tests.core.test_resolution_step import build, drive_next, observed

SCHEDULERS = ("elevator",)
SELECTIVE = (None, False)


def oracle_resolve_batch(self, refs) -> None:
    """``Assembly._resolve_batch`` as it was: ``fetch_pages`` always."""
    fetch_pages = self.fetch_pages(refs)
    prefetched: List[int] = []
    batch_span = None
    if self._spans is not None and fetch_pages:
        batch_span = self._spans.begin(
            "batch",
            parent=self._assembly_span,
            kind="batch",
            refs=len(refs),
            pages=len(fetch_pages),
        )
    if len(fetch_pages) > 1:
        try:
            self._store.buffer.fix_many(fetch_pages)
            prefetched = fetch_pages
            self.stats.prefetch_batches += 1
            self.stats.prefetch_pages += len(fetch_pages)
        except BufferFullError:
            prefetched = []
        except FaultError:
            self.stats.fault_events += 1
            prefetched = []
    try:
        self._resolve(refs)
    finally:
        for page_id in prefetched:
            self._store.buffer.unfix(page_id)
        if batch_span is not None:
            self._spans.end(batch_span, prefetched=len(prefetched))


def never_prefetch(self, refs) -> None:
    """A broken variant: every batch degrades to per-reference fetches."""
    self._resolve(refs)


#: Enough objects that some sweep batches span several pages.
CONFIG = ExperimentConfig(
    n_complex_objects=120, clustering="intra-object", sharing=0.25
)


def run(step, scheduler, selective, with_spans):
    """One ``next()`` drive at ``batch_pages=4`` with ``step`` as
    ``_resolve_batch``; everything it leaves, plus the batch shapes."""
    shapes = {"one_page": 0, "multi_page": 0, "popped": 0}

    def counted(self, refs):
        pages = len({ref.page_id for ref in refs})
        shapes["one_page" if pages == 1 else "multi_page"] += 1
        shapes["popped"] += len(refs)
        step(self, refs)

    spans = SpanRecorder() if with_spans else None
    operator, store, tracer = build(
        scheduler, selective, batch_pages=4, spans=spans, config=CONFIG
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Assembly, "_resolve_batch", counted)
        rows = drive_next(operator, store)
    result = observed(rows, operator, store, tracer)
    if spans is not None:
        assert spans.open_spans() == []
        result["spans"] = [span.to_dict() for span in spans.spans]
    return result, shapes


@pytest.mark.parametrize("with_spans", (False, True))
@pytest.mark.parametrize("selective", SELECTIVE)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_one_page_batches_match_the_old_step(scheduler, selective, with_spans):
    current, shapes = run(
        Assembly._resolve_batch, scheduler, selective, with_spans
    )
    reference, _ = run(oracle_resolve_batch, scheduler, selective, with_spans)
    assert current == reference
    # The scenario has what the batch path branches on: one-page and
    # prefetched multi-page batches, shared links and aborts.
    assert shapes["one_page"] and shapes["multi_page"]
    assert reference["stats"]["prefetch_batches"] > 0
    assert reference["stats"]["aborted"] and reference["stats"]["shared_links"]
    if selective is False:
        # Eager queuing: an abort retracts siblings popped in its batch.
        assert shapes["popped"] > reference["stats"]["refs_resolved"]
    if with_spans:
        assert any(span["kind"] == "batch" for span in reference["spans"])
        kinds = {event.kind for event in reference["events"]}
        assert {trace.ABORTED, trace.LINKED_SHARED} <= kinds


@pytest.mark.parametrize("with_spans", (False, True))
def test_a_step_that_never_prefetches_is_caught(with_spans):
    reference, _ = run(oracle_resolve_batch, "elevator", None, with_spans)
    broken, _ = run(never_prefetch, "elevator", None, with_spans)
    assert broken["stats"] != reference["stats"]
    assert broken["disk"] != reference["disk"]
