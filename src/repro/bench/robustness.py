"""Robustness figures R-1..R-2: assembly under injected faults.

The paper's experiments assume a dedicated, perfectly reliable disk;
the fault-injection layer (:mod:`repro.storage.faults`) drops that
assumption.  These figures measure what reliability costs:

* **R-1** — elapsed milliseconds vs transient-fault rate, pipelined
  assembly over a declustered layout under the event-driven engine.
  Each read may fail transiently (retried with priced backoff) or
  suffer a latency spike; the retry budget covers the injector's
  consecutive-failure bound, so every run still assembles the full
  database.  The anchors: at rate 0 the attached-but-idle injector
  changes *nothing* — elapsed time is bit-identical to a run without
  an injector — and elapsed time never decreases as the fault rate
  rises.
* **R-2** — abort rate vs transient-fault rate for the synchronous
  operator under the ``skip_object`` degradation mode with an
  *unbounded* consecutive-failure config and a deliberately small
  retry budget: some fetches exhaust their retries, and the operator
  abandons exactly those complex objects.  The accounting must close:
  every root is either emitted or fault-skipped, rate 0 skips nothing,
  and the highest rate skips something.

All drivers accept size overrides so the test suite can run them at
reduced scale; defaults match the other Section 6 figures.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.bench.elapsed import pipelined_run
from repro.bench.harness import ExperimentConfig, build_layout
from repro.bench.report import FigureResult
from repro.core.assembly import SKIP_OBJECT, Assembly, AssemblyStats
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.iterator import ListSource
from repro.workloads.acob import make_template

#: Transient-fault rates swept by R-1 and R-2 (0 = the clean baseline).
FAULT_RATES = (0.0, 0.02, 0.05, 0.1)
#: Injector seed shared by every swept run (determinism anchor).
FAULT_SEED = 11


def _skipping_run(
    db_size: int, window: int, cluster_pages: int, fault_rate: float
) -> Tuple[AssemblyStats, int]:
    """Synchronous assembly that abandons objects on exhausted retries."""
    disk = SimulatedDisk(n_pages=7 * cluster_pages + cluster_pages + 88)
    db, layout = build_layout(
        ExperimentConfig(
            n_complex_objects=db_size, seed=2, cluster_pages=cluster_pages
        ),
        disk,
    )
    if fault_rate > 0.0:
        FaultInjector(
            FaultConfig(
                seed=FAULT_SEED,
                read_error_rate=fault_rate,
                max_consecutive_failures=None,
            )
        ).attach(disk)
    operator = Assembly(
        ListSource(layout.root_order),
        layout.store,
        make_template(db),
        window_size=window,
        scheduler="elevator",
        retry_policy=RetryPolicy(max_retries=1),
        on_fault=SKIP_OBJECT,
    )
    emitted = sum(1 for _ in operator.rows())
    return operator.stats, emitted


def figure_robustness(
    db_size: int = 1000,
    window_per_device: int = 50,
    cluster_pages: int = 512,
    fault_rates: Sequence[float] = FAULT_RATES,
    n_devices: int = 4,
) -> List[FigureResult]:
    """Figures R-1..R-2: elapsed time and abort rate under faults."""

    # -- R-1: elapsed time vs transient-fault rate -------------------------
    r1 = FigureResult(
        figure_id="Figure R-1",
        title=(
            f"elapsed time vs fault rate, {n_devices} devices, "
            f"retries cover the consecutive-failure bound"
        ),
        x_label="transient fault rate (per read)",
        y_label="elapsed milliseconds (event clock)",
    )
    baseline_engine, _, _, baseline_emitted = pipelined_run(
        db_size, n_devices, window_per_device, cluster_pages,
        issue_depth=2, batch_pages=4,
    )
    elapsed_by_rate: List[float] = []
    retries_at_max = 0
    emitted_ok = baseline_emitted == db_size
    for rate in fault_rates:
        engine, pipeline, operator, emitted = pipelined_run(
            db_size, n_devices, window_per_device, cluster_pages,
            issue_depth=2, batch_pages=4,
            faults=FaultConfig(
                seed=FAULT_SEED,
                read_error_rate=rate,
                latency_spike_rate=rate,
                max_consecutive_failures=2,
            ),
        )
        emitted_ok = emitted_ok and emitted == db_size
        retries = (
            pipeline.stats.fault_retries + operator.stats.fault_retries
        )
        r1.add_point("pipelined elapsed (ms)", rate, engine.elapsed)
        r1.add_point("fault retries", rate, retries)
        elapsed_by_rate.append(engine.elapsed)
        if rate == max(fault_rates):
            retries_at_max = retries
    r1.check(
        "every run assembles the full database despite faults", emitted_ok
    )
    r1.check(
        "idle injector is free: rate 0 elapsed bit-identical to the "
        "no-injector baseline",
        elapsed_by_rate[0] == baseline_engine.elapsed,
    )
    r1.check(
        "elapsed time never decreases as the fault rate rises",
        all(b >= a for a, b in zip(elapsed_by_rate, elapsed_by_rate[1:])),
    )
    r1.check(
        "the highest rate actually exercises the retry path",
        retries_at_max > 0,
    )
    r1.notes.append(
        f"clean elapsed {elapsed_by_rate[0]:.3f} ms grows to "
        f"{elapsed_by_rate[-1]:.3f} ms at rate {max(fault_rates)} "
        f"({retries_at_max} retries priced through the cost model)"
    )

    # -- R-2: abort rate vs transient-fault rate ---------------------------
    r2 = FigureResult(
        figure_id="Figure R-2",
        title=(
            "abort rate vs fault rate, skip_object degradation, "
            "unbounded consecutive failures, 1 retry"
        ),
        x_label="transient fault rate (per read)",
        y_label="complex objects abandoned (of total)",
    )
    accounting_ok = True
    skips_by_rate: List[int] = []
    for rate in fault_rates:
        stats, emitted = _skipping_run(
            db_size, window_per_device, cluster_pages, rate
        )
        r2.add_point("fault-skipped objects", rate, stats.fault_skipped)
        accounting_ok = accounting_ok and (
            emitted + stats.fault_skipped == db_size
            and stats.fault_skipped == stats.aborted
        )
        skips_by_rate.append(stats.fault_skipped)
    r2.check(
        "accounting closes: every root is emitted or fault-skipped",
        accounting_ok,
    )
    r2.check("a fault-free run skips nothing", skips_by_rate[0] == 0)
    r2.check(
        "the highest fault rate forces at least one skip",
        skips_by_rate[-1] > 0,
    )
    r2.check(
        "more faults never mean fewer skipped objects",
        all(b >= a for a, b in zip(skips_by_rate, skips_by_rate[1:])),
    )
    return [r1, r2]
