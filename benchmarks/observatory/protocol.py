"""The run protocol: one workload, measured on both clocks.

Every workload goes through the same steps (``run_workload``):

1. **Set-up** — generate from the seed, lay out, snapshot; repeated
   several times and reported as the median ``setup_s``.
2. **Warm-up pass** — untimed; its exact counters become the reference
   every later pass must reproduce (pass-to-pass determinism).
3. **Timed passes** — fixed work per pass.  Each pass restores a fresh
   disk/buffer/store from the snapshot *outside* the timed region,
   ``gc.collect()``s, and times only the driver call with
   ``perf_counter`` (wall) and ``process_time`` (CPU).  The pass count
   is either given (``passes``) or as many as fit in ``seconds``;
   either way the work *per pass* never changes, so every count
   repeats exactly and only the precision of the medians depends on
   the duration.
4. **Counted pass** — call count under ``cProfile`` (the C
   ``sys.setprofile`` hook) and ``tracemalloc`` peak.
5. **Traced pass** — wrappers from :mod:`tracing` around every layer.

Tracing and counting are off during timed passes.

**The reference clock.**  This sandbox shares its cores: for a minute
at a time every Python statement runs 20–45 % slower (CPU time rises
with wall time — the process is not descheduled, it executes slower),
then recovers.  A fixed pure-Python kernel is therefore run right
before and right after every timed call; its duration, relative to
:data:`REFERENCE_KERNEL_S`, is the machine's slow-down at that moment,
and the gated host-clock values are the measured times divided by it —
seconds on a machine that runs the kernel in the reference time.  Raw
times are kept and printed beside them.  Simulated-clock values (seek
pages, cost-model ms) need none of this: they are exact for a seed,
which is how a host-side optimisation is shown to be invisible to the
paper's figures.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from tracing import DRIVER, SCHEDULERS, VOLCANO, Tracer
from workloads import Workload

#: Timed passes when only the per-layer metrics are wanted: enough for
#: the determinism check and the untraced median the overhead needs.
LAYER_RUN_PASSES = 3
MIN_PASSES = 3

#: Set-up repeats: at least 5, more (up to 12) while they stay cheap.  A
#: 40 ms set-up measured three times is at the mercy of one slow moment.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 12
SETUP_BUDGET_S = 1.5

#: The calibration kernel: dict inserts, tuple and list allocation, a
#: sort and a scan — the statement mix of the simulator, in miniature.
KERNEL_ITEMS = 12_000
KERNEL_REPEATS = 16
#: What one kernel measurement takes on this sandbox in a quiet moment.
#: Only a scale: it makes reference seconds equal raw seconds there.
REFERENCE_KERNEL_S = 0.048


def kernel_s() -> Tuple[float, float]:
    """``(wall, cpu)`` seconds of the calibration kernel right now.

    Collection is off inside: the kernel makes no cycles, and a
    generation-2 sweep would make its time depend on how large a heap
    the workload happens to hold.
    """
    gc.disable()
    try:
        cpu = time.process_time()
        wall = time.perf_counter()
        for _repeat in range(KERNEL_REPEATS):
            table = {}
            for i in range(KERNEL_ITEMS):
                key = (i * 7919) % 10007
                table[key] = (i, key, [i, key])
            total = 0
            for first, second, pair in sorted(table.values()):
                total += first + second + pair[0]
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()


class Timing(NamedTuple):
    """One timed call: raw host times and the slow-down beside them."""

    wall_s: float
    cpu_s: float
    #: kernel time around the call ÷ reference kernel time (wall, CPU).
    wall_slowdown: float
    cpu_slowdown: float

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds on the reference clock."""
        return self.wall_s / self.wall_slowdown

    @property
    def ref_cpu_s(self) -> float:
        """CPU seconds on the reference clock."""
        return self.cpu_s / self.cpu_slowdown


def timed(call: Callable[[], Any]) -> Tuple[Any, Timing]:
    """Time ``call`` between two measurements of the kernel."""
    before = kernel_s()
    cpu = time.process_time()
    wall = time.perf_counter()
    result = call()
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    after = kernel_s()
    return result, Timing(
        wall,
        cpu,
        (before[0] + after[0]) / 2.0 / REFERENCE_KERNEL_S,
        (before[1] + after[1]) / 2.0 / REFERENCE_KERNEL_S,
    )


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def gc_collections() -> int:
    """Collections run so far, all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


class PassRecord:
    """Exact, repeatable facts of one pass (the determinism record)."""

    def __init__(self, workload: Workload, stack, outcome) -> None:
        self.objects = outcome.objects
        self.sim_elapsed_ms = outcome.sim_elapsed_ms
        self.counters = workload.counters(stack, outcome)
        self.extra = outcome.extra

    def same_as(self, other: "PassRecord") -> bool:
        """Identical simulated counters, object count and sim clock?"""
        return (
            self.objects == other.objects
            and self.sim_elapsed_ms == other.sim_elapsed_ms
            and self.counters == other.counters
        )


def plain(drive):
    """A pass with nothing around the driver call (the warm-up)."""
    return drive(), None


class Run:
    """State of one workload's run through the protocol."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.prepared = None
        self.reference: Optional[PassRecord] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.restore_s: List[float] = []

    def one_pass(self, label: str, around=plain) -> Tuple[PassRecord, Any]:
        """Restore, collect garbage, drive, check.

        ``around(drive)`` runs the driver call under whatever the pass
        kind needs (a stopwatch, a profiler, the root span) and returns
        ``(outcome, measurement)``.
        """
        workload = self.workload
        started = time.perf_counter()
        stack = workload.fresh(self.prepared)
        self.restore_s.append(time.perf_counter() - started)
        gc.collect()
        outcome, measurement = around(lambda: workload.drive(stack))
        record = PassRecord(workload, stack, outcome)
        offered = self.prepared.offered
        self.attempted += offered
        wrong = workload.check(self.prepared, outcome)
        if wrong:
            self.problems.append(f"{label}: {wrong} objects failed the oracle")
        if self.reference is None:
            self.reference = record
        elif not record.same_as(self.reference):
            # State leaked between passes (or tracing interfered): no
            # number from this pass can be trusted.
            self.problems.append(
                f"{label}: simulated counters differ from the warm-up pass"
            )
            wrong = offered
        self.failed += min(wrong, offered)
        return record, measurement


def stopwatch(drive):
    """Timing and gc collections of one driver call."""
    collections = gc_collections()
    outcome, timing = timed(drive)
    return outcome, (timing, gc_collections() - collections)


def counted(drive):
    """Function calls (Python and C) and allocation peak of one call."""
    profiler = cProfile.Profile()
    tracemalloc.start()
    try:
        profiler.enable()
        try:
            outcome = drive()
        finally:
            profiler.disable()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return outcome, (calls, peak)


def repeat_setup(run: Run, seed: int, fixed: bool) -> List[Timing]:
    """Set up several times, timing each; the last one is kept.

    ``fixed`` (a run with a fixed pass count) fixes this count too.
    """
    timings: List[Timing] = []
    while len(timings) < SETUP_MIN_REPEATS or (
        not fixed
        and len(timings) < SETUP_MAX_REPEATS
        and sum(t.wall_s for t in timings) < SETUP_BUDGET_S
    ):
        run.prepared = None
        gc.collect()
        run.prepared, timing = timed(lambda: run.workload.setup(seed))
        timings.append(timing)
    return timings


def timed_passes(
    run: Run, seconds: float, passes: Optional[int]
) -> Tuple[List[Timing], List[int]]:
    """``passes`` timed passes, or as many as fit in ``seconds``."""
    timings: List[Timing] = []
    collections: List[int] = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if passes is not None:
            return len(timings) < passes
        return len(timings) < MIN_PASSES or time.perf_counter() < deadline

    while more():
        _record, (timing, collected) = run.one_pass(
            f"timed pass {len(timings) + 1}", stopwatch
        )
        timings.append(timing)
        collections.append(collected)
    return timings, collections


def counted_and_traced(
    run: Run, untraced_wall_s: float, trace_file: Optional[Path], pass_id: str
) -> Tuple[Dict[str, float], Dict[str, Dict[str, Any]]]:
    """The counted pass, then the traced one: per-layer metrics and the
    per-function table."""
    objects = run.reference.objects
    _record, (calls, alloc_peak) = run.one_pass("counted pass", counted)
    metrics = {
        "host.py_calls_per_object": calls / objects,
        "host.alloc_peak_kb": alloc_peak / 1024.0,
    }
    # The wrappers go in before the stack is built (objects keep bound
    # methods); the root span drops whatever the restore recorded.
    tracer = Tracer()
    tracer.install()
    try:

        run.one_pass(
            "traced pass", lambda drive: (tracer.run_root(pass_id, drive), None)
        )
    finally:
        tracer.remove()
    functions = tracer.functions()
    metrics.update(layer_metrics(functions, tracer.wall_s(), untraced_wall_s))
    if trace_file is not None:
        tracer.write_chrome_trace(trace_file, pass_id)
    return metrics, dict(sorted(functions.items()))


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    passes: Optional[int] = None,
    end_to_end: bool = True,
    layers: bool = True,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one workload through the protocol; returns its result document.

    ``end_to_end=False`` (the driver's ``--trace 1``) keeps the timed
    passes to :data:`LAYER_RUN_PASSES`; ``layers=False`` (``--trace 0``)
    skips the counted and traced passes.
    """
    run = Run(workload)
    setups = repeat_setup(run, seed, fixed=passes is not None)
    # The warm-up pass fills lazy caches and fixes the reference counters.
    reference, _ = run.one_pass("warm-up")
    if passes is None and not end_to_end:
        passes = LAYER_RUN_PASSES
    timings, collections = timed_passes(run, seconds, passes)
    # Read before the counted and traced passes, whose bookkeeping would
    # raise the high-water mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    objects = reference.objects
    counters = reference.counters
    pages = counters["storage.disk.pages_read"]
    walls = [t.wall_s for t in timings]
    wall_q1, wall_median, wall_q3 = quartiles(walls)
    cpu_median = statistics.median(t.cpu_s for t in timings)
    setup_median = statistics.median(t.wall_s for t in setups)
    # The gated values: the same medians on the reference clock.
    ref_wall = quartiles([t.ref_wall_s for t in timings])
    ref_cpu = quartiles([t.ref_cpu_s for t in timings])
    ref_setup = quartiles([t.ref_wall_s for t in setups])
    document: Dict[str, Any] = {
        "workload": workload.name,
        "loop": workload.loop,
        "seed": seed,
        "passes": len(timings),
        "objects_per_pass": objects,
        "pass_timings": [list(t) for t in timings],
        "setup_timings": [list(t) for t in setups],
        "end_to_end": {
            "objects_per_s": objects / ref_wall[1],
            "cpu_ms_per_object": ref_cpu[1] * 1000.0 / objects,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": ref_setup[1],
            "sim_seek_per_page": counters["storage.disk.seek_total"] / pages,
            "sim_pages_per_object": pages / objects,
            "sim_elapsed_ms": reference.sim_elapsed_ms,
            # Served-request latency from arrival; only fabric_open has
            # an arrival schedule, so these are null everywhere else.
            "sim_latency_p50_ms": reference.extra.get("latency_p50_ms"),
            "sim_latency_p99_ms": reference.extra.get("latency_p99_ms"),
        },
        # (q1, median, q3) of the same quantities over the passes, in
        # the metric's unit: for the printed line and compare.py.
        "quartiles": {
            "objects_per_s": sorted(objects / wall for wall in ref_wall),
            "cpu_ms_per_object": [cpu * 1000.0 / objects for cpu in ref_cpu],
            "setup_s": list(ref_setup),
        },
        # What the host's own clocks said, before any scaling.
        "raw": {
            "objects_per_s": objects / wall_median,
            "cpu_ms_per_object": cpu_median * 1000.0 / objects,
            "setup_s": setup_median,
        },
    }

    if layers:
        kernel_median_s = REFERENCE_KERNEL_S * statistics.median(
            t.wall_slowdown for t in timings
        )
        per_layer = dict(counters)
        per_layer.update(
            {
                "cluster.layout.build_s": run.prepared.build_s,
                "cluster.layout.restore_s": statistics.median(run.restore_s),
                "cluster.layout.pages_spanned": run.prepared.pages_spanned,
                "volcano.plan.rewrite_s": reference.extra.get("rewrite_s", 0.0),
                "host.passes": len(timings),
                "host.pass_wall_s_p50": wall_median,
                "host.pass_wall_s_iqr": wall_q3 - wall_q1,
                "host.pass_wall_s_max": max(walls),
                "host.pages_per_wall_s": pages / wall_median,
                "host.gc_collections": statistics.median(collections),
                "host.calibration_ops_per_s": KERNEL_ITEMS
                * KERNEL_REPEATS
                / kernel_median_s,
            }
        )
        per_layer.update(
            {f"host.raw_{name}": value for name, value in document["raw"].items()}
        )
        trace_file = None
        if trace_out is not None:
            trace_file = trace_out / f"{workload.name}.trace.json"
            document["trace_file"] = str(trace_file)
        metrics, document["functions"] = counted_and_traced(
            run, wall_median, trace_file,
            pass_id=f"{workload.name}/seed{seed}/traced",
        )
        per_layer.update(metrics)
        document["per_layer"] = per_layer

    # Every pass counts: warm-up, timed, counted and traced alike.
    failed_frac = run.failed / run.attempted
    document["end_to_end"]["failed_frac"] = failed_frac
    if layers:
        document["per_layer"]["host.failed_frac"] = failed_frac
    document.update(
        attempted=run.attempted, failed=run.failed, problems=run.problems
    )
    return document


def layer_metrics(
    functions: Dict[str, Dict[str, Any]],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer self times and span-derived counts of the traced pass."""
    metrics: Dict[str, float] = {DRIVER: 0.0}
    for entry in functions.values():
        metric = entry["metric"]
        metrics[metric] = metrics.get(metric, 0.0) + entry["self_s"]

    def calls(metric: str, *methods: str, key: str = "calls") -> int:
        suffixes = tuple("." + method for method in methods)
        return sum(
            entry[key]
            for name, entry in functions.items()
            if entry["metric"] == metric and name.endswith(suffixes)
        )

    adds = calls(SCHEDULERS, "add", key="outermost")
    pops = calls(SCHEDULERS, "pop", key="outermost")
    batch_pops = calls(SCHEDULERS, "pop_batch", key="outermost")
    removals = calls(SCHEDULERS, "remove_owner", key="outermost")
    metrics.update(
        {
            "host.traced_pass_wall_s": traced_wall_s,
            "host.trace_overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
            "core.schedulers.adds": adds,
            "core.schedulers.pops": pops,
            "core.schedulers.batch_pops": batch_pops,
            "core.schedulers.owner_removals": removals,
            "core.schedulers.ops": adds + pops + batch_pops + removals,
            "core.component_iterator.materializations": calls(
                "core.component_iterator.self_s", "materialize"
            ),
            "storage.store.fetches": calls(
                "storage.store.self_s", "fetch", "fetch_pinned"
            ),
            "storage.store.migrations": calls(
                "storage.store.write_self_s", "migrate"
            ),
            "service.device_server.steps": calls(
                "service.device_server.self_s", "step"
            ),
            "fabric.replica.steps": calls("fabric.replica.self_s", "step"),
            "volcano.next_calls": calls(VOLCANO, "next"),
        }
    )
    return metrics
