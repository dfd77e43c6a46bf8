"""Batched assembly is an optimization, never a semantic change.

The batch engine may reorder *physical* page fetches (coalescing,
contiguous runs, resident-first service) and therefore the order in
which complete objects surface, but must emit byte-identical assembled
complex objects with the same logical fetch counts as the unbatched
reference loop — across every scheduler and clustering policy, and
through predicate aborts that land while sibling references from the
same page are in flight.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.harness import (
    PREDICATE_POSITION,
    ExperimentConfig,
    build_assembly,
    build_layout,
)
from repro.core.assembly import Assembly
from repro.iterator import ListSource
from repro.workloads.acob import make_template, payload_predicate

SCHEDULERS = ("depth-first", "breadth-first", "elevator", "adaptive")
CLUSTERINGS = ("inter-object", "intra-object", "unclustered")


def fingerprint_object(obj):
    """Canonical recursive form of one assembled storage object."""
    return (
        obj.oid,
        obj.ints,
        obj.ref_oids,
        tuple(
            (slot, fingerprint_object(child))
            for slot, child in sorted(obj.children.items())
        ),
    )


def run(config: ExperimentConfig):
    """(emitted fingerprints keyed by root, fetches) of one full run."""
    database, layout = build_layout(config)
    operator = build_assembly(config, database, layout)
    emitted = sorted(
        (row.root_oid, fingerprint_object(row.root))
        for row in operator.rows()
    )
    assert len({root for root, _ in emitted}) == len(emitted)
    assert layout.store.buffer.pinned_pages == 0
    return emitted, operator.stats.fetches, operator.stats.aborted


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("clustering", CLUSTERINGS)
def test_batched_output_identical(scheduler, clustering):
    base = ExperimentConfig(
        n_complex_objects=40,
        clustering=clustering,
        scheduler=scheduler,
        window_size=8,
    )
    reference = run(base)
    for batch in (2, 4):
        assert run(replace(base, batch_pages=batch)) == reference


@pytest.mark.parametrize("scheduler", ("elevator", "adaptive"))
def test_batched_output_identical_selective(scheduler):
    base = ExperimentConfig(
        n_complex_objects=60,
        clustering="intra-object",
        scheduler=scheduler,
        window_size=10,
        selectivity=0.5,
    )
    reference = run(base)
    assert reference[2] > 0  # the workload actually aborts objects
    for batch in (2, 4):
        assert run(replace(base, batch_pages=batch)) == reference


def test_abort_mid_batch_skips_inflight_siblings():
    """A predicate abort retracts same-page siblings already batched.

    Eager (non-deferred) queuing puts both children of a root in the
    pool at once; intra-object clustering puts them on the same page,
    so one pop_batch carries the predicate node *and* its sibling.
    When the predicate fails, the sibling is already in flight and must
    be dropped by the per-reference liveness re-check — without leaking
    the prefetch pins.
    """

    def eager_run(batch_pages):
        config = ExperimentConfig(
            n_complex_objects=60,
            clustering="intra-object",
            scheduler="elevator",
            window_size=10,
            selectivity=0.4,
        )
        database, layout = build_layout(config)
        template = make_template(
            database,
            predicate_position=PREDICATE_POSITION,
            predicate=payload_predicate(0.4),
        )
        operator = Assembly(
            ListSource(layout.root_order),
            layout.store,
            template,
            window_size=config.window_size,
            scheduler="elevator",
            selective=False,
            batch_pages=batch_pages,
        )
        emitted = sorted(
            (row.root_oid, fingerprint_object(row.root))
            for row in operator.rows()
        )
        assert layout.store.buffer.pinned_pages == 0
        return emitted, operator.stats

    plain_emitted, plain_stats = eager_run(1)
    batch_emitted, batch_stats = eager_run(4)
    assert plain_stats.aborted > 0
    assert batch_emitted == plain_emitted
    assert batch_stats.aborted == plain_stats.aborted
    # Eager queuing wastes fetches on doomed objects; the batch carries
    # the predicate node alongside its siblings, so the abort lands no
    # later than unbatched and never costs extra fetches.
    assert batch_stats.fetches <= plain_stats.fetches
    # The batch path really ran (coalesced prefetches happened).
    assert batch_stats.prefetch_batches > 0


def test_batch_equivalence_under_bounded_buffer():
    base = ExperimentConfig(
        n_complex_objects=60,
        clustering="intra-object",
        scheduler="elevator",
        window_size=10,
        buffer_capacity=24,
    )
    reference = run(base)
    for batch in (2, 4):
        assert run(replace(base, batch_pages=batch)) == reference
