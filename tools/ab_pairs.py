#!/usr/bin/env python3
"""Alternating parent/change pairs of one observatory workload.

    python3 tools/ab_pairs.py PARENT CHANGE --workload piped_4dev \\
        --pairs 10 --seed 4401

``PARENT`` and ``CHANGE`` are two checkouts side by side, made the
same way (say, ``cp -r`` of a parent clone and of the working tree):
on ``service_closed`` a ``git clone`` against a ``cp -r`` copy of the
same commit read ``objects_per_s`` 0.961 × in an A/A run of ten pairs.
Pair ``i`` runs ``benchmarks/observatory/run.py --workload W --seed
SEED+i --trace 0`` once in each, parent first on even pairs and change
first on odd ones, so drift over the session falls on both sides
alike.  Every run uses its own checkout's benchmark code; the metric
list and each metric's direction come from ``CHANGE``'s
``BENCHMARK.json``.

For each end-to-end metric it prints both sides' median and quartiles,
the ratio of the medians (change / parent), the pairs the change won
and the no-regression verdict of :func:`bounded_verdict`:
``benchmarks/observatory/compare.py``'s rule (loaded from ``CHANGE``)
over the two sides' medians and quartiles, with the metric's ``bound``
from ``BENCHMARK.json``.  Then it prints the gain verdict of
:func:`verdict` for ``--metric``: at least nine tenths of the pairs won
(ties count for neither side) and a median gap wider than the parent's
interquartile range.  Run nothing else alongside: wall-clock metrics
here drift between minutes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Optional, Sequence, Tuple

RUNNER = Path("benchmarks") / "observatory" / "run.py"
COMPARE = Path("benchmarks") / "observatory" / "compare.py"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, as the observatory computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> str:
    """``median [q1 .. q3]`` of one side's runs."""
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g} .. {q3:.5g}]"


@dataclass(frozen=True)
class Verdict:
    """How the change's runs of one metric compare with the parent's."""

    #: pairs in which the change read better (ties count for neither).
    wins: int
    pairs: int
    #: change median minus parent median, signed so that > 0 is better.
    gap: float
    #: the parent's own spread: its third quartile minus its first.
    parent_iqr: float

    @property
    def gain(self) -> bool:
        """At least 9/10 of the pairs won, by more than the spread."""
        return 10 * self.wins >= 9 * self.pairs and self.gap > self.parent_iqr


def verdict(
    parent: Sequence[float], change: Sequence[float], higher_is_better: bool
) -> Verdict:
    """Compare pair ``i`` of ``parent`` with pair ``i`` of ``change``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(
        1 for before, after in zip(parent, change)
        if sign * (after - before) > 0
    )
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    return Verdict(wins=wins, pairs=len(parent), gap=gap, parent_iqr=q3 - q1)


def load_compare(checkout: Path) -> ModuleType:
    """``checkout``'s ``benchmarks/observatory/compare.py``, imported."""
    spec = importlib.util.spec_from_file_location(
        "observatory_compare", checkout / COMPARE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bounded_verdict(
    compare: ModuleType,
    metric: str,
    better: str,
    bound: float,
    parent: Sequence[float],
    change: Sequence[float],
) -> str:
    """``compare.verdict`` over the pairs: each side's runs stand in for
    one observatory file's passes (median and quartiles).  Both sides
    ran the same seeds, so the exact metrics compare by equality."""
    documents = []
    for values in (parent, change):
        q1, median, q3 = quartiles(values)
        documents.append({
            "seed": "pairs",
            "end_to_end": {metric: median},
            "quartiles": {metric: [q1, median, q3]},
        })
    return compare.verdict(metric, better, bound, *documents)


def run_once(
    checkout: Path, workload: str, seed: int, out: Path
) -> Dict[str, Optional[float]]:
    """One untraced observatory run in ``checkout``; its end-to-end row."""
    subprocess.run(
        [
            sys.executable, str(RUNNER), "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--out", str(out),
        ],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())["workloads"][workload]["end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the pairs, print the table and the verdict of ``--metric``;
    exit 0 when that verdict is a gain, else 1."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=4401)
    parser.add_argument("--metric", default="objects_per_s")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    compare = load_compare(args.change)
    runs: Dict[str, List[Dict[str, Optional[float]]]] = {
        "parent": [], "change": []
    }
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent"
            )
            for side in order:
                out = Path(scratch) / f"{side}-{pair}.json"
                runs[side].append(
                    run_once(getattr(args, side), args.workload, seed, out)
                )
            print(f"pair {pair + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr)
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':<20}{'parent median [q1 .. q3]':>34}"
          f"{'change median [q1 .. q3]':>34}{'ratio':>8}{'wins':>8}"
          "  no-regression verdict")
    verdicts: Dict[str, Verdict] = {}
    for name, direction in better.items():
        parent = [row[name] for row in runs["parent"]]
        change = [row[name] for row in runs["change"]]
        if any(v is None for v in parent + change):
            continue  # the workload does not report this metric
        verdicts[name] = verdict(parent, change, direction == "higher")
        base, after = statistics.median(parent), statistics.median(change)
        ratio = f"{after / base:.3f}" if base else "-"
        bounded = bounded_verdict(
            compare, name, direction, bounds[name], parent, change
        )
        print(f"{name:<20}{spread(parent):>34}{spread(change):>34}"
              f"{ratio:>8}{verdicts[name].wins:>5}/{args.pairs}  {bounded}")
    claimed = verdicts[args.metric]
    print(
        f"verdict on {args.metric}: {claimed.wins}/{claimed.pairs} pairs won, "
        f"median gap {claimed.gap:.4g} against a parent IQR of "
        f"{claimed.parent_iqr:.4g}: "
        + ("a gain" if claimed.gain else "no gain")
    )
    return 0 if claimed.gain else 1


if __name__ == "__main__":
    sys.exit(main())
