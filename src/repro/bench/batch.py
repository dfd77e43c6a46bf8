"""Batched I/O figures B-1..B-3: what page-coalesced fetching buys.

The paper's §4 cost argument — "a single disk access per page" — is
about *logical* redundancy: never read a page twice for two references
it satisfies.  The batch engine extends that argument physically: when
the elevator sweep passes a page, every pending reference on it (and on
physically adjacent pages) is serviced by **one** positioning operation.
These figures quantify the three layers of that win:

* **B-1** — average seek distance per page read vs batch size.  The
  denominator is pages *transferred*, which batching leaves invariant,
  so the series isolates pure head-movement savings.  (Seek per
  *physical read* would mechanically rise under batching: coalescing
  removes cheap one-page seeks from numerator and denominator alike.)
* **B-2** — physical read operations vs batch size, with checks that
  the assembled output (emitted objects, logical fetches, pages
  transferred) is bit-for-bit invariant — batching changes *how* pages
  arrive, never *what* is assembled.
* **B-3** — reference-pool maintenance ops (footnote 5's "CPU cost of
  set-oriented assembly") on a selective workload, comparing the
  owner-indexed pool against a replica of the original O(n) sorted-list
  pool, across batch sizes.

All drivers accept size overrides so the test suite can run them at
reduced scale; defaults match the other Section 6 figures.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    PREDICATE_POSITION,
    ExperimentConfig,
    ExperimentResult,
    build_layout,
    run_experiment,
)
from repro.bench.report import FigureResult
from repro.cluster.policies import CLUSTERINGS
from repro.core.assembly import Assembly
from repro.core.schedulers import ReferenceScheduler, UnresolvedReference
from repro.iterator import ListSource
from repro.workloads.acob import make_template, payload_predicate

#: Batch sizes swept by every figure (1 = the paper's unbatched loop).
BATCH_SIZES = (1, 2, 4, 8)


class _LegacyElevatorScheduler(ReferenceScheduler):
    """The pre-index elevator pool, preserved for the B-3 comparison.

    A faithful replica of the original implementation: one sorted list
    of ``(page_id, -rejection, seq, ref)`` entries, ``insort`` on add,
    ``pop`` via bisect, and ``remove_owner`` rebuilding the whole list —
    charging ``len(entries)`` ops, the O(n) scan the owner index
    eliminates.  Kept here (not in :mod:`repro.core.schedulers`) so the
    production registry only ever offers the indexed pool.
    """

    name = "legacy-elevator"

    def __init__(self, head_fn: Optional[Callable[[], int]] = None) -> None:
        super().__init__()
        self._head_fn = head_fn if head_fn is not None else (lambda: 0)
        self._entries: List[
            Tuple[int, float, int, UnresolvedReference]
        ] = []
        self._direction = 1

    def add(self, ref: UnresolvedReference) -> None:
        self.ops += 1
        insort(self._entries, (ref.page_id, -ref.rejection, ref.seq, ref))

    def pop(self) -> UnresolvedReference:
        self.require_nonempty()
        self.ops += 1
        split = bisect_left(
            self._entries,
            (self._head_fn(), float("-inf"), -1, None),  # type: ignore[arg-type]
        )
        if self._direction > 0:
            if split < len(self._entries):
                index = split
            else:
                self._direction = -1
                index = len(self._entries) - 1
        elif split > 0:
            index = split - 1
        else:
            self._direction = 1
            index = 0
        return self._entries.pop(index)[3]

    def remove_owner(self, owner: int) -> List[UnresolvedReference]:
        removed = [e[3] for e in self._entries if e[3].owner == owner]
        if removed:
            self.ops += len(self._entries)
            self._entries = [
                e for e in self._entries if e[3].owner != owner
            ]
        return removed

    def __len__(self) -> int:
        return len(self._entries)


def _batch_sweep(
    db_size: int,
    window: int,
    batch_sizes: Sequence[int],
) -> Dict[str, Dict[int, ExperimentResult]]:
    """One elevator run per clustering x batch size."""
    results: Dict[str, Dict[int, ExperimentResult]] = {}
    for clustering in CLUSTERINGS:
        results[clustering] = {}
        for batch in batch_sizes:
            results[clustering][batch] = run_experiment(
                ExperimentConfig(
                    n_complex_objects=db_size,
                    clustering=clustering,
                    scheduler="elevator",
                    window_size=window,
                    batch_pages=batch,
                )
            )
    return results


def _seek_total(result: ExperimentResult) -> int:
    """Total head movement of a run, reconstructed from its average."""
    return round(result.avg_seek * result.pages_read)


def figure_batch(
    db_size: int = 1000,
    window: int = 50,
    batch_sizes: Sequence[int] = BATCH_SIZES,
    selectivity: float = 0.5,
) -> List[FigureResult]:
    """Figures B-1..B-3: the batched I/O engine vs the unbatched loop."""
    sweep = _batch_sweep(db_size, window, batch_sizes)
    unbatched = batch_sizes[0]
    batched = [b for b in batch_sizes if b > unbatched]

    # -- B-1: seek distance per page transferred ---------------------------
    b1 = FigureResult(
        figure_id="Figure B-1",
        title=f"seek distance vs batch size, elevator, window={window}",
        x_label="batch size (pages per scheduler batch)",
        y_label="average seek distance per page read (pages)",
    )
    for clustering in CLUSTERINGS:
        for batch in batch_sizes:
            b1.add_point(clustering, batch, sweep[clustering][batch].avg_seek)
        totals = ", ".join(
            f"b={batch}: {_seek_total(sweep[clustering][batch])}"
            for batch in batch_sizes
        )
        b1.notes.append(f"{clustering} total seek distance — {totals}")
    b1.notes.append(
        "denominator is pages transferred (invariant across batch sizes); "
        "seek per *physical read* rises under batching because coalescing "
        "removes cheap adjacent seeks from numerator and denominator alike"
    )
    for clustering in ("intra-object", "unclustered"):
        base = sweep[clustering][unbatched].avg_seek
        b1.check(
            f"{clustering}: seek per page strictly lower at every batch >= 2",
            all(sweep[clustering][b].avg_seek < base for b in batched),
        )
    inter_base = sweep["inter-object"][unbatched].avg_seek
    b1.check(
        "inter-object: batching never hurts (within 1%)",
        all(
            sweep["inter-object"][b].avg_seek <= inter_base * 1.01
            for b in batched
        ),
    )

    # -- B-2: physical read operations -------------------------------------
    b2 = FigureResult(
        figure_id="Figure B-2",
        title=f"physical reads vs batch size, elevator, window={window}",
        x_label="batch size (pages per scheduler batch)",
        y_label="physical read operations",
    )
    for clustering in CLUSTERINGS:
        for batch in batch_sizes:
            b2.add_point(clustering, batch, sweep[clustering][batch].reads)
    for clustering in ("intra-object", "unclustered"):
        base = sweep[clustering][unbatched].reads
        b2.check(
            f"{clustering}: strictly fewer physical reads at every batch >= 2",
            all(sweep[clustering][b].reads < base for b in batched),
        )
    b2.check(
        "assembled output invariant (emitted and logical fetches)",
        all(
            sweep[c][b].emitted == sweep[c][unbatched].emitted
            and sweep[c][b].fetches == sweep[c][unbatched].fetches
            for c in CLUSTERINGS
            for b in batched
        ),
    )
    b2.check(
        "pages transferred invariant (unbounded buffer)",
        all(
            sweep[c][b].pages_read == sweep[c][unbatched].pages_read
            for c in CLUSTERINGS
            for b in batched
        ),
    )

    # -- B-3: reference-pool maintenance ops --------------------------------
    # Deferred (selective) assembly keeps predicate-blind references out
    # of the pool, so aborts remove nothing and remove_owner is free by
    # construction.  The pool-maintenance stress is *eager* queuing
    # (``selective=False``): every abort must retract the owner's whole
    # pending frontier, which the legacy pool pays for with a full-list
    # scan per abort.
    b3 = FigureResult(
        figure_id="Figure B-3",
        title=(
            f"pool maintenance ops vs batch size, abort-heavy assembly "
            f"({selectivity:.0%} pass, eager queuing), intra-object, "
            f"window={window}"
        ),
        x_label="batch size (pages per scheduler batch)",
        y_label="reference pool operations",
    )
    base_config = ExperimentConfig(
        n_complex_objects=db_size,
        clustering="intra-object",
        scheduler="elevator",
        window_size=window,
        selectivity=selectivity,
    )

    def selective_run(scheduler, batch: int) -> Tuple[int, int]:
        """(pool ops, emitted) of one abort-heavy run."""
        database, layout = build_layout(base_config)
        template = make_template(
            database,
            sharing=base_config.sharing,
            predicate_position=PREDICATE_POSITION,
            predicate=payload_predicate(selectivity),
        )
        if scheduler is None:
            scheduler = _LegacyElevatorScheduler(
                head_fn=lambda: layout.store.disk.head_position
            )
        operator = Assembly(
            ListSource(layout.root_order),
            layout.store,
            template,
            window_size=window,
            scheduler=scheduler,
            selective=False,
            batch_pages=batch,
        )
        emitted = sum(1 for _ in operator.rows())
        return operator.stats.scheduler_ops, emitted

    indexed_ops: Dict[int, int] = {}
    indexed_emitted: Dict[int, int] = {}
    for batch in batch_sizes:
        ops, emitted = selective_run("elevator", batch)
        indexed_ops[batch] = ops
        indexed_emitted[batch] = emitted
        b3.add_point("owner-indexed pool", batch, ops)
        b3.notes.append(
            f"owner-indexed pool, b={batch}: {ops} ops, {emitted} emitted"
        )

    # The legacy pool knows nothing of batches; its single run anchors a
    # flat comparison line at the unbatched operation count.
    legacy_ops, legacy_emitted = selective_run(None, 1)
    for batch in batch_sizes:
        b3.add_point("legacy list pool (unbatched)", batch, legacy_ops)
    b3.notes.append(
        f"legacy list pool, b=1: {legacy_ops} ops, {legacy_emitted} emitted"
    )
    b3.check(
        "owner-indexed pool strictly below the legacy list pool",
        indexed_ops[unbatched] < legacy_ops,
    )
    b3.check(
        "batching strictly reduces pool ops at every batch >= 2",
        all(indexed_ops[b] < indexed_ops[unbatched] for b in batched),
    )
    b3.check(
        "legacy and indexed pools assemble the same objects",
        legacy_emitted == indexed_emitted[unbatched],
    )
    return [b1, b2, b3]
