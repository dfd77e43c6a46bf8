#!/usr/bin/env python3
"""Scheduling playground: every scheduler × clustering × window size.

A compact interactive version of the paper's Section 6.3 sweep.  Edit
the parameter lists below (or pass a database size) to explore how the
three scheduling algorithms respond to data placement — the core
trade-off the assembly operator exploits.

Run:  python examples/scheduling_playground.py [n_complex_objects]
"""

import sys

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.cluster.policies import CLUSTERINGS

SCHEDULERS = ("depth-first", "breadth-first", "elevator")
WINDOWS = (1, 10, 50)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    print(f"average seek distance per read (pages), {n} complex objects")
    print()
    header = f"{'clustering':>14s} {'window':>7s}" + "".join(
        f"{s:>16s}" for s in SCHEDULERS
    )
    print(header)
    print("-" * len(header))
    for clustering in CLUSTERINGS:
        for window in WINDOWS:
            cells = []
            for scheduler in SCHEDULERS:
                result = run_experiment(
                    ExperimentConfig(
                        n_complex_objects=n,
                        clustering=clustering,
                        scheduler=scheduler,
                        window_size=window,
                    )
                )
                cells.append(f"{result.avg_seek:16.1f}")
            print(f"{clustering:>14s} {window:>7d}" + "".join(cells))
        print()
    print("Expected shapes (paper Section 6.3):")
    print("  * depth-first is identical at every window (object-at-a-time)")
    print("  * breadth-first thrashes on inter-object clustering")
    print("  * elevator + window >= 50 wins under every clustering")


if __name__ == "__main__":
    main()
