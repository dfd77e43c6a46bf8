#!/usr/bin/env python3
"""Compare two observatory result files, metric by metric.

    python3 benchmarks/observatory/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``run.py --out``.  One row per (workload, end-to-end metric)
with both medians, their quartiles over the passes, the ratio B/A with
its base, and a verdict:

* simulated-clock metrics (``sim_*``) and ``failed_frac`` are exact for
  a given seed, so they compare by equality: ``identical``, or
  ``improved`` / ``regressed`` on any difference at all (and
  ``unresolved`` when the two files used different seeds);
* host-clock metrics (on the reference clock, see ``protocol.py``) use
  the bound ``BENCHMARK.json`` fixes:
  ``regressed`` when B is worse than A by more than the bound,
  ``unresolved`` when the spread of either side (distance between its
  quartiles, as a share of its median) is wider than the bound — the
  measurement cannot tell — ``improved`` when B is better than A by
  more than A's own spread, else ``unchanged``.

Exit status 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent.parent


def exact(metric: str) -> bool:
    """Is this a metric that repeats bit-for-bit for one seed?"""
    return metric.startswith("sim_") or metric == "failed_frac"


def spread(document: Dict[str, Any], metric: str) -> float:
    """Quartile distance of one side as a share of its median."""
    if metric not in document["quartiles"]:
        return 0.0
    q1, median, q3 = document["quartiles"][metric]
    return abs(q3 - q1) / abs(median)


def verdict(
    metric: str,
    better: str,
    bound: float,
    a: Dict[str, Any],
    b: Dict[str, Any],
) -> str:
    """The guide's rule for one (workload, metric) row."""
    va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
    if va is None and vb is None:
        return "not defined here"
    if va is None or vb is None:
        return "regressed (defined on one side only)"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (vb - va)  # > 0 when B is worse
    if exact(metric):
        if a["seed"] != b["seed"]:
            return "unresolved (seeds differ)"
        if va == vb:
            return "identical"
        return "regressed (exact metric moved)" if worse_by > 0 else "improved"
    widest = max(spread(a, metric), spread(b, metric))
    if widest > bound:
        return f"unresolved (spread {widest:.1%} > bound {bound:.0%})"
    if worse_by > bound * abs(va):
        return f"regressed beyond bound {bound:.0%}"
    if -worse_by > spread(a, metric) * abs(va):
        return "improved"
    return "unchanged"


def cell(document: Dict[str, Any], metric: str) -> str:
    """``median [q1 .. q3]`` of one side."""
    value = document["end_to_end"][metric]
    if value is None:
        return "null"
    text = f"{value:.6g}"
    if metric in document["quartiles"]:
        q1, _median, q3 = document["quartiles"][metric]
        text += f" [{q1:.6g} .. {q3:.6g}]"
    return text


def compare(
    a: Dict[str, Any], b: Dict[str, Any], benchmark: Dict[str, Any]
) -> Tuple[List[List[str]], int]:
    """Table rows and the number of regressed rows."""
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    rows: List[List[str]] = []
    regressed = 0
    for workload, doc_a in a["workloads"].items():
        doc_b: Optional[Dict[str, Any]] = b["workloads"].get(workload)
        if doc_b is None:
            rows.append([workload, "*", "", "", "", "regressed (missing in B)"])
            regressed += 1
            continue
        for metric in doc_a["end_to_end"]:
            entry = declared.get(metric, {"better": "lower", "bound": 0.0})
            result = verdict(
                metric, entry["better"], entry["bound"], doc_a, doc_b
            )
            va, vb = doc_a["end_to_end"][metric], doc_b["end_to_end"][metric]
            ratio = (
                f"{vb / va:.4f} x A={va:.6g}" if va and vb is not None else "-"
            )
            rows.append(
                [workload, metric, cell(doc_a, metric), cell(doc_b, metric),
                 ratio, result]
            )
            regressed += result.startswith("regressed")
    return rows, regressed


def main(argv: Optional[List[str]] = None) -> int:
    """Print the table; 1 when anything regressed."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with (REPO / "BENCHMARK.json").open() as handle:
        benchmark = json.load(handle)
    header = ["workload", "metric", "A median [q1 .. q3]",
              "B median [q1 .. q3]", "B/A (base)", "verdict"]
    rows, regressed = compare(a, b, benchmark)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(text.ljust(width) for text, width in zip(row, widths)))
    print(
        f"A: commit {a['environment']['commit']}, "
        f"B: commit {b['environment']['commit']}; "
        f"{regressed} regressed row(s)"
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
