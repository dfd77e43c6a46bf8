"""The observability layer's contract: watching changes nothing.

Property-tested the way the chaos suite tests fault tolerance: for
every scheduler, clustering, window size and fault rate, a run with a
span recorder attached (full or sampled) emits **bit-identical**
complex objects and leaves **bit-identical** disk statistics compared
to the bare run — and at the service level,
``ServiceMetrics.snapshot()`` (histograms included) is equal with
observability off, on, or sampled.
"""

from __future__ import annotations

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_layout, run_experiment
from repro.cluster.layout import layout_database
from repro.core.assembly import Assembly
from repro.core.schedulers import make_scheduler
from repro.obs.spans import SpanRecorder
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template

from tests.faults.test_chaos_property import (
    SCHEDULERS,
    CLUSTERINGS,
    fingerprint,
    make_policy,
)


def run_once(n, clustering, scheduler, window, recorder=None, fault_rate=0.0,
             fault_seed=0):
    """One assembly run, optionally instrumented and/or fault-injected.

    Returns ``(fingerprint, disk_stats)`` — everything observable.
    """
    db = generate_acob(n, seed=2)
    disk = CostedDisk(n_pages=4096)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, make_policy(clustering),
        shared=db.shared_pool,
    )
    retry = RetryPolicy(max_retries=2) if fault_rate else None
    if fault_rate:
        FaultInjector(
            FaultConfig(
                seed=fault_seed,
                read_error_rate=fault_rate,
                max_consecutive_failures=2,
            )
        ).attach(disk)
    kwargs = {}
    if recorder is not None:
        recorder.bind_clock(lambda: float(disk.stats.pages_read))
        kwargs["spans"] = recorder
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window,
        scheduler=make_scheduler(
            scheduler,
            head_fn=lambda: disk.head_position,
            resident_fn=store.buffer.is_resident,
        ),
        retry_policy=retry,
        **kwargs,
    )
    return fingerprint(operator.execute()), disk.stats


@settings(max_examples=10, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=10),
    n=st.integers(min_value=10, max_value=30),
    fault_rate=st.sampled_from((0.0, 0.15)),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_tracing_never_changes_results_or_disk_stats(
    scheduler, clustering, window, n, fault_rate, fault_seed
):
    bare, bare_stats = run_once(
        n, clustering, scheduler, window,
        fault_rate=fault_rate, fault_seed=fault_seed,
    )
    full = SpanRecorder(sample_rate=1.0)
    traced, traced_stats = run_once(
        n, clustering, scheduler, window, recorder=full,
        fault_rate=fault_rate, fault_seed=fault_seed,
    )
    sampled = SpanRecorder(sample_rate=0.3)
    thinned, thinned_stats = run_once(
        n, clustering, scheduler, window, recorder=sampled,
        fault_rate=fault_rate, fault_seed=fault_seed,
    )
    # Bit-identical emissions and head movement, off / on / sampled.
    assert traced == bare and thinned == bare
    assert traced_stats == bare_stats and thinned_stats == bare_stats
    # The recorder actually observed the run, and sampling thinned it.
    assert full.of_kind("window-slot")
    assert len(sampled.of_kind("window-slot")) < len(
        full.of_kind("window-slot")
    )
    assert full.open_spans() == [] and sampled.open_spans() == []


def service_snapshot(recorder=None):
    """One deterministic multi-request service run; its observables."""
    config = ExperimentConfig(
        n_complex_objects=24,
        clustering="inter-object",
        scheduler="elevator",
        window_size=4,
        cluster_pages=64,
    )
    db, layout = build_layout(config)
    service = AssemblyService(layout.store, span_recorder=recorder)
    template = make_template(db)
    roots = layout.root_order
    first = service.submit(roots[:8], template, window_size=4)
    second = service.submit(roots[8:16], template, window_size=4)
    third = service.submit(roots[:8], template, window_size=4)  # cache path
    results = [
        fingerprint(service.result(request_id))
        for request_id in (first, second, third)
    ]
    per_request = [
        asdict(service.request_metrics(request_id))
        for request_id in (first, second, third)
    ]
    return (
        results,
        per_request,
        service.metrics.snapshot(),
        layout.store.disk.stats,
    )


def test_service_snapshot_identical_off_on_sampled():
    """`ServiceMetrics.snapshot()` — streaming histograms included — is
    equal whether observability is off, fully on, or sampled down."""
    off = service_snapshot()
    on = service_snapshot(SpanRecorder(sample_rate=1.0))
    sampled = service_snapshot(SpanRecorder(sample_rate=0.25))
    assert on == off
    assert sampled == off
    snapshot = off[2]
    assert snapshot["latency_hist"]["count"] == 3
    assert snapshot["p99_latency"] is not None


def test_run_experiment_metrics_identical_with_recorder():
    """The bench harness path keeps the guarantee end to end."""
    config = ExperimentConfig(
        n_complex_objects=40, window_size=6, scheduler="elevator"
    )
    bare = run_experiment(config)
    recorder = SpanRecorder()
    traced = run_experiment(config, spans=recorder)
    assert traced == bare
    assert recorder.of_kind("assembly") and recorder.open_spans() == []
