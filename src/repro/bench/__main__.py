"""Command-line entry point: ``python -m repro.bench [figure ...]``.

Without arguments, every figure and ablation runs (a few minutes at the
paper's full parameters).  Name figures to run a subset, e.g.::

    python -m repro.bench fig11 fig14
    python -m repro.bench --list
    python -m repro.bench --trace-out trace.json   # instrumented run
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.bench.export import write_csv, write_json
from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import ExperimentConfig, trace_experiment
from repro.bench.report import FigureResult, render


def main(argv: List[str] = None) -> int:
    """Parse arguments, run the requested figures, export if asked."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the figures of 'Efficient Assembly of "
        "Complex Objects' (SIGMOD 1991).",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help=f"figures to run (default: all). Known: {', '.join(ALL_FIGURES)}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list known figures and exit"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write one CSV per figure into DIR",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write all figures (series, notes, checks) to FILE",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="run one instrumented benchmark point and write its span "
        "trace to FILE as Chrome trace_event JSON (tracing never "
        "changes any benchmark number)",
    )
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(name) for name in ALL_FIGURES)
        for name, driver in ALL_FIGURES.items():
            summary = driver.__doc__.strip().splitlines()[0]
            print(f"{name:<{width}}  {summary}")
        return 0

    # --trace-out alone traces one run without sweeping every figure.
    names = args.figures or ([] if args.trace_out else list(ALL_FIGURES))
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figures: {', '.join(unknown)}")

    failures = 0
    collected: List[FigureResult] = []
    for name in names:
        start = time.time()
        produced = ALL_FIGURES[name]()
        elapsed = time.time() - start
        figures = produced if isinstance(produced, list) else [produced]
        for figure in figures:
            print(render(figure))
            print()
            failures += len(figure.violations)
        collected.extend(figures)
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    if args.csv:
        paths = write_csv(collected, args.csv)
        print(f"wrote {len(paths)} CSV file(s) to {args.csv}")
    if args.json:
        print(f"wrote {write_json(collected, args.json)}")
    if args.trace_out:
        config = ExperimentConfig(n_complex_objects=100, window_size=8)
        result, path = trace_experiment(config, args.trace_out)
        print(
            f"wrote {path} (traced {result.emitted} objects, "
            f"{result.reads} reads)"
        )
    if failures:
        print(f"{failures} shape check(s) FAILED")
        return 1
    print("all shape checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
