#!/usr/bin/env python3
"""Size a memory claim: RSS and live objects per protocol phase.

    python3 tools/memory_phases.py CHECKOUT --workload fabric_open \\
        [--seed 7] [--passes 3] [--cycles]

Runs one observatory workload of ``CHECKOUT`` (a checkout of this
repository, say a ``cp -r`` copy of a parent clone or of the working
tree) through the protocol's own sequence in this process: the
set-ups, the warm-up pass and ``--passes`` timed passes, each kept in
a local until the next one replaces it, as ``protocol.timed_passes``
keeps it.  After each phase it prints the current RSS, the peak RSS
(what ``peak_rss_mb`` reads) and the live ``SimulatedDisk``,
``BufferManager`` and ``ObjectStore`` counts (``gc.get_objects()``).
Components still alive after the pass that built them are what a
kept result, or a reference cycle waiting for the collector, holds.

``--cycles`` instead drives one pass, drops its stack and outcome and
collects under ``gc.DEBUG_SAVEALL`` with automatic collection off: it
prints the cyclic garbage that stack left, by type (0 when every stack
is freed by reference counting).

Run each checkout in its own process, one after the other, with
nothing else running: RSS is the process's, and both modes import the
checkout's own ``src`` and ``benchmarks/observatory``.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
from collections import Counter
from pathlib import Path


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mb() -> float:
    """Peak RSS so far, as the observatory reads it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    """Print the phase table, or the cyclic garbage of one pass."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--cycles", action="store_true")
    args = parser.parse_args()
    root = args.checkout.resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "benchmarks" / "observatory"))
    from protocol import Run, repeat_setup, stopwatch
    from workloads import make_workload

    from repro.storage.buffer import BufferManager
    from repro.storage.disk import SimulatedDisk
    from repro.storage.store import ObjectStore

    workload = make_workload(args.workload)
    run = Run(workload)
    repeat_setup(run, args.seed, fixed=True)

    if args.cycles:
        gc.collect()
        gc.disable()
        try:
            outcome = workload.drive(workload.fresh(run.prepared))
            objects = outcome.objects
            del outcome
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = Counter(type(obj).__qualname__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        print(f"{args.workload}: {objects} objects, "
              f"{sum(found.values())} objects of cyclic garbage")
        for name, count in found.most_common(12):
            print(f"  {count:7d}  {name}")
        return 0

    def live(cls) -> int:
        return sum(isinstance(obj, cls) for obj in gc.get_objects())

    def report(label: str) -> None:
        print(
            f"{label:14s} rss {rss_mb():6.1f}  peak {peak_rss_mb():6.1f}  "
            f"disks {live(SimulatedDisk):3d}  "
            f"buffers {live(BufferManager):3d}  "
            f"stores {live(ObjectStore):3d}",
            flush=True,
        )

    report("set-ups")
    _record = run.one_pass("warm-up")
    report("warm-up pass")
    for index in range(args.passes):
        _record = run.one_pass(f"timed pass {index + 1}", stopwatch)
        report(f"timed pass {index + 1}")
    if run.problems:
        print("\n".join(run.problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
