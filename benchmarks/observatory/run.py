#!/usr/bin/env python3
"""Observatory: the repo's benchmark, one command.

    python3 benchmarks/observatory/run.py [--workload W ...] [--seed 7]
        [--seconds S | --passes N] [--trace 0|1|all] [--out FILE]
        [--trace-out DIR]

Runs the requested workloads (default: all seven) one at a time, each in
a fresh single-threaded subprocess with ``PYTHONHASHSEED=0`` (so never
more than one busy process), checks every output against an oracle, and
prints every metric by name with its unit.  ``BENCHMARK.json`` at the
repo root names the metrics, units, directions and regression bounds;
``README.md`` beside this file defines them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics (timed passes only), with
``--trace 1`` the per-layer metrics (three timed passes, then the
counted and the traced pass), with ``--trace all`` (default) both.
The exit status is non-zero when any operation failed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

#: A workload's subprocess is killed (and the run fails) after this long.
CHILD_TIMEOUT_S = 170


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions, bounds."""
    with (REPO / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]], benchmark: Dict[str, Any]):
    """The command line; workload names come from ``BENCHMARK.json``."""
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=names, metavar="W",
        help=f"workload to run (repeatable; default all): {', '.join(names)}",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="how long the timed passes of one workload may take "
        "(at least 3 passes are always run)",
    )
    parser.add_argument(
        "--passes", type=int, default=None,
        help="run exactly this many timed passes instead of --seconds",
    )
    parser.add_argument("--trace", choices=("0", "1", "all"), default="all")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="write every result as JSON")
    parser.add_argument(
        "--trace-out", type=Path,
        help="write each traced pass as Chrome trace_event JSON here",
    )
    parser.add_argument(
        "--in-process", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


# -- the workload's own process ---------------------------------------------


def run_in_process(args, benchmark: Dict[str, Any]) -> int:
    """Child mode: one workload, here; prints its document as JSON."""
    sys.path.insert(0, str(SRC))
    from protocol import run_workload
    from workloads import make_workload

    document = run_workload(
        make_workload(args.workload[0], args.scale),
        seed=args.seed,
        seconds=args.seconds,
        passes=args.passes,
        end_to_end=args.trace != "1",
        layers=args.trace != "0",
        trace_out=args.trace_out,
    )
    if "per_layer" in document:
        # A layer the workload never enters reports 0, not nothing.
        for metric in benchmark["per_layer"]:
            document["per_layer"].setdefault(metric["name"], 0)
    print(json.dumps(document))
    return 0


def spawn(args, workload: str) -> Dict[str, Any]:
    """Run one workload in a fresh subprocess and wait for it."""
    command = [
        sys.executable, str(HERE / "run.py"), "--in-process",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--scale", args.scale,
    ]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    if args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # run() kills the child and waits for it when the timeout expires.
    completed = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"workload {workload} exited with status {completed.returncode}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


# -- reporting ----------------------------------------------------------------


def environment(args) -> Dict[str, Any]:
    """Where and how these numbers were measured."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": args.passes,
        "scale": args.scale,
        "trace": args.trace,
    }


#: End-to-end metrics of the result documents that BENCHMARK.json cannot
#: bound (always 0, or defined on one workload only); see README.md.
UNBOUNDED_END_TO_END = {
    "failed_frac": "fraction",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
}


def fmt(value: Any) -> str:
    """A value for the human-readable report."""
    if value is None:
        return "null"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def print_report(document: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    """Every metric of one workload by name, with its unit."""
    print(
        f"== {document['workload']}: seed {document['seed']}, "
        f"{document['passes']} timed passes of "
        f"{document['objects_per_pass']} objects"
    )
    print(f"   load: {document['loop']}")
    reasons = {w["name"]: w["why"] for w in benchmark["workloads"]}
    print(f"   why:  {reasons[document['workload']]}")
    quartiles = document["quartiles"]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units.update(UNBOUNDED_END_TO_END)
    print("   end to end")
    for name, value in document["end_to_end"].items():
        line = f"     {name:<24} {fmt(value):>12} {units[name]}"
        if name in quartiles:
            q1, _median, q3 = quartiles[name]
            line += (
                f"   (reference clock: median over {document['passes']} "
                f"passes, quartiles {fmt(q1)} .. {fmt(q3)}; "
                f"raw {fmt(document['raw'][name])})"
            )
        print(line)
    if "per_layer" not in document:
        return
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    print("   per layer")
    for name in sorted(document["per_layer"]):
        value = document["per_layer"][name]
        print(f"     {name:<44} {fmt(value):>14} {units.get(name, '?')}")
    shares = layer_shares(document["per_layer"])
    print("   share of the traced pass (self time)")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        if share:
            print(f"     {layer:<28} {share:7.1%}")
    for problem in document["problems"]:
        print(f"   PROBLEM: {problem}")


def layer_shares(per_layer: Dict[str, float]) -> Dict[str, float]:
    """Each layer's self time as a share of the traced pass."""
    wall = per_layer["host.traced_pass_wall_s"]
    shares: Dict[str, float] = {}
    for name, value in per_layer.items():
        if name.endswith("self_s"):
            # storage.store.self_s + storage.store.write_self_s -> one
            # layer; service.server.{submit,step,poll}_self_s likewise.
            layer = name.rsplit(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + value / wall
    return shares


def contract_metrics(
    document: Dict[str, Any], benchmark: Dict[str, Any], trace: str
) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` declares, as ``{value, unit}``."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace != "1":
        for metric in benchmark["end_to_end"]:
            value = document["end_to_end"][metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if trace != "0":
        for metric in benchmark["per_layer"]:
            value = document["per_layer"].get(metric["name"], 0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    """Run the requested workloads; 0 when every output was correct."""
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.in_process:
        return run_in_process(args, benchmark)

    documents = []
    for workload in args.workload:
        document = spawn(args, workload)
        print_report(document, benchmark)
        documents.append(document)
    attempted = sum(d["attempted"] for d in documents)
    failed = sum(d["failed"] for d in documents)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w") as handle:
            json.dump(
                {
                    "claim": None,
                    "environment": environment(args),
                    "workloads": {d["workload"]: d for d in documents},
                },
                handle, indent=1,
            )
        print(f"wrote {args.out}")
    summary: Dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if len(documents) == 1:
        summary["metrics"] = contract_metrics(
            documents[0], benchmark, args.trace
        )
    else:
        # One flat namespace for several workloads: "<workload>/<metric>".
        summary["metrics"] = {
            f"{d['workload']}/{name}": entry
            for d in documents
            for name, entry in contract_metrics(
                d, benchmark, args.trace
            ).items()
        }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
