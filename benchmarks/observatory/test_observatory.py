"""Self-test of the observatory at ``--scale smoke`` (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/observatory -q

Checks the benchmark, not the program: that what the command prints is
what ``BENCHMARK.json`` declares, that the simulated clock and every
count repeat exactly, and that tracing neither stays installed nor
changes what it observes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # the benchmark's modules are plain siblings

import compare  # noqa: E402
import tracing  # noqa: E402
from protocol import run_workload  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: Per-layer metrics read off the host clock or the allocator; every
#: other one must repeat exactly from run to run.
HOST_NOISY = {
    "host.passes", "host.pages_per_wall_s", "host.alloc_peak_kb",
    "host.gc_collections", "host.trace_overhead_frac",
    "host.calibration_ops_per_s", "host.raw_objects_per_s",
    "host.raw_cpu_ms_per_object",
}


def exact_layer_metrics(per_layer):
    """The per-layer values that are counts or simulated quantities."""
    return {
        name: value
        for name, value in per_layer.items()
        if PER_LAYER[name]["unit"] != "s" and name not in HOST_NOISY
    }


def smoke_run():
    """Every workload once, in this process, at smoke scale."""
    return {
        name: run_workload(
            make_workload(name, "smoke"), seed=11, seconds=0.0, passes=2
        )
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def runs():
    """Two complete smoke runs of the same seed."""
    return smoke_run(), smoke_run()


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]


def test_command_prints_exactly_the_declared_metrics():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "plan_pushdown",
         "--scale", "smoke", "--passes", "2"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert completed.returncode == 0
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END) | set(PER_LAYER)
    for name, entry in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        declared = END_TO_END.get(name) or PER_LAYER[name]
        assert entry["unit"] == declared["unit"]
        assert isinstance(entry["value"], (int, float))
        # ...and the human-readable report names it too.
        assert f" {name} " in completed.stdout


def test_every_declared_layer_metric_is_produced(runs):
    first, _second = runs
    produced = set()
    for document in first.values():
        assert set(document["per_layer"]) <= set(PER_LAYER)
        produced |= set(document["per_layer"])
    assert produced == set(PER_LAYER)


def test_no_operation_fails_and_tracing_does_not_interfere(runs):
    # The traced and the counted pass are held to the warm-up pass's
    # simulated counters by the protocol itself; a difference would be
    # listed as a problem and counted as failures.
    for run in runs:
        for document in run.values():
            assert document["problems"] == []
            assert document["failed"] == 0 and document["attempted"] > 0


def test_simulated_clock_and_counts_repeat_exactly(runs):
    first, second = runs
    for name in WORKLOADS:
        a, b = first[name], second[name]
        for metric in ("sim_seek_per_page", "sim_pages_per_object",
                       "sim_elapsed_ms", "sim_latency_p50_ms",
                       "sim_latency_p99_ms", "failed_frac"):
            assert a["end_to_end"][metric] == b["end_to_end"][metric], metric
        assert exact_layer_metrics(a["per_layer"]) == exact_layer_metrics(
            b["per_layer"]
        )


def test_layer_self_times_add_up_to_the_traced_pass(runs):
    first, _second = runs
    for document in first.values():
        layers = document["per_layer"]
        total = sum(v for k, v in layers.items() if k.endswith("self_s"))
        assert total == pytest.approx(
            layers["host.traced_pass_wall_s"], rel=1e-6
        )


def test_isolation_counters(runs):
    first, _second = runs
    for name, document in first.items():
        layers = document["per_layer"]
        # Pool entries are retracted by predicate aborts and, in the
        # fabric, when a hedge loser is cancelled mid-flight.
        assert (layers["core.schedulers.owner_removals"] > 0) == (
            name in ("plan_pushdown", "fabric_open")
        )
        # run.py reports 0 for a layer the workload never enters.
        assert (layers.get("cluster.reorg.migrations", 0) > 0) == (
            name == "reorg_shift"
        )
        assert (layers.get("storage.events.issues", 0) > 0) == (
            name == "piped_4dev"
        )
        assert (layers.get("fabric.served", 0) > 0) == (name == "fabric_open")


def wrapped_methods():
    """Every wrapper still in place on the instrumented classes."""
    points = [(cls, methods) for cls, methods, _metric in tracing.POINTS]
    points.append((tracing.VolcanoIterator, tracing.VOLCANO_METHODS))
    return [
        (cls.__name__, method)
        for base, methods in points
        for cls in tracing.with_subclasses(base)
        for method in methods
        if hasattr(cls.__dict__.get(method), "__wrapped__")
    ]


def test_wrappers_are_fully_removed(runs):
    assert wrapped_methods() == []
    tracer = tracing.Tracer()
    originals = {
        (cls, method): cls.__dict__[method]
        for cls, methods, _metric in tracing.POINTS
        for method in methods
        if method in cls.__dict__
    }
    tracer.install()
    try:
        assert wrapped_methods()
    finally:
        tracer.remove()
    assert wrapped_methods() == []
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original


def test_compare_verdicts(runs):
    first, second = runs
    environment = {"commit": "test"}
    a = {"environment": environment, "workloads": first}
    b = {"environment": environment, "workloads": second}
    rows, _regressed = compare.compare(a, b, BENCHMARK)
    assert len(rows) == len(WORKLOADS) * len(first["asm_clustered"]["end_to_end"])
    by_key = {(row[0], row[1]): row[5] for row in rows}
    # Two passes of a few milliseconds say nothing about the host
    # clock; the exact metrics must not have moved at all.
    assert not [
        key for key, result in by_key.items()
        if compare.exact(key[1]) and result.startswith("regressed")
    ]
    assert by_key[("asm_clustered", "sim_elapsed_ms")] == "identical"
    assert by_key[("asm_clustered", "sim_latency_p99_ms")] == "not defined here"
    assert by_key[("fabric_open", "sim_latency_p99_ms")] == "identical"
    # A slower change: throughput halves on one workload, exactly.
    slower = json.loads(json.dumps(second))
    document = slower["plan_pushdown"]
    document["end_to_end"]["objects_per_s"] /= 2
    document["quartiles"]["objects_per_s"] = [
        q / 2 for q in document["quartiles"]["objects_per_s"]
    ]
    document["end_to_end"]["sim_elapsed_ms"] += 1.0
    rows, regressed = compare.compare(
        a, {"environment": environment, "workloads": slower}, BENCHMARK
    )
    by_key = {(row[0], row[1]): row[5] for row in rows}
    assert by_key[("plan_pushdown", "sim_elapsed_ms")].startswith("regressed")
    assert regressed >= 1
