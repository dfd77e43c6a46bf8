"""Safety properties of online reorganization, pinned by hypothesis.

Three contracts from :mod:`repro.cluster.reorg`, tested across service
configurations (clustering × window × fault rate) the way the chaos suite pins the fault machinery:

* **Reorg off is bit-identical** — a service built with
  ``reorg_policy=None`` produces the same results, the same
  :class:`DiskStats` and the same ``ServiceMetrics.snapshot()`` as a
  service built without the kwarg at all.  The feature leaves zero
  footprint when disabled.
* **Reorg on is content-equal** — with an aggressive policy migrating
  eagerly, every assembled object is byte-equal to the unreorganized
  run's.  Migrations move bytes, never change them — even while
  transient read faults are being retried underneath.
* **Migration I/O stays inside idle windows** — the idle tracker's
  busy/migration interval ledgers never overlap, and the check is
  non-vacuous whenever objects actually moved.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_layout
from repro.cluster.policies import CLUSTERINGS
from repro.cluster.reorg import ReorgPolicy
from repro.service.server import AssemblyService
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.workloads.acob import make_template

DB_SIZE = 24
BATCH = 4
ROUNDS = 2

#: Eager enough to migrate at toy scale within two schedule rounds.
AGGRESSIVE = ReorgPolicy(
    decay=0.5,
    min_weight=0.5,
    min_observations=1,
    max_migrations_per_round=64,
)


def content_of(cobj):
    """Byte-level identity of one assembled object (placement-free)."""
    return tuple(
        (obj.oid, obj.ints, obj.ref_oids, tuple(sorted(obj.children)))
        for obj in cobj.root.walk()
    )


def run_service(
    clustering,
    window,
    rate,
    fault_seed,
    reorg_policy=None,
    pass_kwarg=True,
):
    """Replay the deterministic recurring-batch schedule on one service.

    Roots are chunked into fixed batches and every batch is submitted
    ``ROUNDS`` times (recurrence feeds the affinity sketch), with
    ``service.run()`` draining between submissions — the idle window
    where reorg rounds may fire.  Returns the service and a dict of
    root → assembled content.
    """
    database, layout = build_layout(
        ExperimentConfig(
            n_complex_objects=DB_SIZE,
            clustering=clustering,
            scheduler="elevator",
            window_size=window,
        )
    )
    template = make_template(database)
    store = layout.store
    kwargs = {"cache_capacity": 0}
    if pass_kwarg:
        kwargs["reorg_policy"] = reorg_policy
    service = AssemblyService(store, **kwargs)
    retry = None
    if rate:
        FaultInjector(
            FaultConfig(
                seed=fault_seed,
                read_error_rate=rate,
                max_consecutive_failures=2,
            )
        ).attach(store.disk)
        retry = RetryPolicy(max_retries=2)
    roots = layout.root_order
    batches = [
        roots[start : start + BATCH]
        for start in range(0, len(roots), BATCH)
    ]
    content = {}
    for _round in range(ROUNDS):
        for batch in batches:
            kwargs = {"retry_policy": retry} if retry is not None else {}
            request_id = service.submit(
                list(batch), template, window_size=window, **kwargs
            )
            for cobj in service.result(request_id):
                content[cobj.root.oid] = content_of(cobj)
            service.run()
    return service, content


@settings(max_examples=10, deadline=None)
@given(
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=8),
    rate=st.sampled_from((0.0, 0.15)),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_reorg_off_is_bit_identical_to_no_kwarg(
    clustering, window, rate, fault_seed
):
    off, off_content = run_service(
        clustering, window, rate, fault_seed,
        reorg_policy=None, pass_kwarg=True,
    )
    plain, plain_content = run_service(
        clustering, window, rate, fault_seed,
        pass_kwarg=False,
    )
    assert off_content == plain_content
    assert off.store.disk.stats == plain.store.disk.stats
    assert off.metrics.snapshot() == plain.metrics.snapshot()
    assert off.server.reorg is None


@settings(max_examples=10, deadline=None)
@given(
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=8),
    rate=st.sampled_from((0.0, 0.15)),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_reorg_on_assembles_byte_equal_objects(
    clustering, window, rate, fault_seed
):
    plain, plain_content = run_service(
        clustering, window, rate, fault_seed,
        pass_kwarg=False,
    )
    reorg, reorg_content = run_service(
        clustering, window, rate, fault_seed,
        reorg_policy=AGGRESSIVE,
    )
    assert reorg_content == plain_content
    assert reorg.store.buffer.pinned_pages == 0
    snapshot = reorg.metrics.snapshot()
    assert snapshot["reorg_rounds"] == reorg.server.reorg.rounds
    assert (
        snapshot["reorg_migrations"]
        == reorg.server.reorg.migrations_total
    )


@settings(max_examples=10, deadline=None)
@given(
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=8),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_migration_io_never_overlaps_serving_io(
    clustering, window, fault_seed
):
    service, _content = run_service(
        clustering, window, 0.0, fault_seed,
        reorg_policy=AGGRESSIVE,
    )
    reorg = service.server.reorg
    tracker = reorg.tracker
    assert tracker.overlaps() == []
    if reorg.migrations_total:
        # Non-vacuous: the rounds that ran really priced intervals
        # into the migration ledger, on some device's timeline.
        assert any(tracker.migration_intervals)
        assert service.metrics.reorg_io_ms > 0
