#!/usr/bin/env python3
"""Traffic map: which functions under ``src/repro`` does served traffic call?

    python3 tools/traffic_map.py > results/traffic/uncalled.txt

Runs everything the repository serves — every figure of
``python -m repro.bench`` (with ``--json`` and ``--csv``), the exact
regression gate over that run, ``repro.bench --trace-out``,
``repro.obs render | summarize | diff``, every script in ``examples/``
and all seven observatory workloads (``run.py --trace 0 --passes 1``:
one timed pass calls what many do) — under a ``sys.setprofile``
recorder, and prints every function no command called, with its line
count, per module and in total.  Tests are not
traffic: a function listed here is reachable, if at all, only from
``tests/``.

The recorder is a ``sitecustomize`` module written to a temporary
directory that leads ``PYTHONPATH``, so the subprocesses the commands
start (one per observatory workload) are recorded too.  Everything runs
from a copy of the tree in that temporary directory: the checkout gains
no ``__pycache__`` and no output file.  Standard library only; about
six minutes under the hook, so this is a documented command, not a
test or a CI job.

A function's line count is ``end_lineno - lineno + 1`` of its ``def``
(a nested ``def`` is a function of its own and also lies inside its
parent's span).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

#: The recorder.  One file of ``path:firstlineno:name`` lines per process.
HOOK = '''\
import atexit, os, sys, threading

_ROOT = os.environ["TRAFFIC_MAP_SRC"]
_OUT = os.environ["TRAFFIC_MAP_CALLS"]
_seen = {}  # id(code) -> code; holding the code keeps its id unique


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    with open(os.path.join(_OUT, "%d.calls" % os.getpid()), "a") as out:
        for code in list(_seen.values()):
            if code.co_filename.startswith(_ROOT):
                out.write("%s:%d:%s\\n" % (
                    os.path.relpath(code.co_filename, _ROOT),
                    code.co_firstlineno, code.co_name))


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''

SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"
)


def traffic(tree: Path, out: Path) -> List[List[str]]:
    """The commands the repository serves, run from ``tree``."""
    python = sys.executable
    full = str(out / "figures.json")
    spans = str(out / "service.jsonl")
    commands = [
        [python, "-m", "repro.bench", "--json", full,
         "--csv", str(out / "csv")],
        [python, "-m", "repro.bench.regression", "results/results.json", full],
        [python, "-m", "repro.bench", "--trace-out",
         str(out / "bench_trace.json")],
        [python, "-m", "repro.obs", "render", "-o",
         str(out / "service_trace.json"), "--jsonl", spans],
        [python, "-m", "repro.obs", "summarize", spans],
        [python, "-m", "repro.obs", "diff", spans, spans],
    ]
    commands += [
        [python, str(example)]
        for example in sorted((tree / "examples").glob("*.py"))
    ]
    commands.append(
        [python, "benchmarks/observatory/run.py", "--trace", "0",
         "--passes", "1", "--out", str(out / "observatory.json")]
    )
    return commands


def functions(src: Path) -> Dict[str, List[Tuple[int, int, str, int]]]:
    """``module -> [(def line, first line, name, line count)]``.

    A code object's first line is its first decorator's when it has
    one; the recorder reports that line, the listing the ``def`` line.
    """
    found: Dict[str, List[Tuple[int, int, str, int]]] = {}
    for path in sorted(src.rglob("*.py")):
        rows = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [node.lineno] + [d.lineno for d in node.decorator_list]
                )
                rows.append((
                    node.lineno, first, node.name,
                    node.end_lineno - node.lineno + 1,
                ))
        found[str(path.relative_to(src))] = sorted(rows)
    return found


def report(
    found: Dict[str, List[Tuple[int, int, str, int]]],
    called: Set[Tuple[str, int, str]],
) -> None:
    """Print the uncalled functions, per module and in total."""
    total = uncalled_total = 0
    for module, rows in found.items():
        module_lines = sum(row[3] for row in rows)
        total += module_lines
        uncalled = [
            row for row in rows if (module, row[1], row[2]) not in called
        ]
        if not uncalled:
            continue
        uncalled_lines = sum(row[3] for row in uncalled)
        uncalled_total += uncalled_lines
        print(f"{module}  {uncalled_lines} / {module_lines}")
        for lineno, _first, name, lines in uncalled:
            print(f"    {lineno:5d}  {name}  {lines}")
    share = 100.0 * uncalled_total / total if total else 0.0
    print(
        f"TOTAL  {uncalled_total} / {total} function lines under "
        f"src/repro never called ({share:.1f} %)"
    )


def main(argv=None) -> int:
    """Copy the tree, run the traffic under the recorder, print the map."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout to map (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="traffic_map_"))
    try:
        tree = scratch / "tree"
        shutil.copytree(args.root, tree, ignore=SKIP)
        hook, calls, out = scratch / "hook", scratch / "calls", scratch / "out"
        for directory in (hook, calls, out):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        src = tree / "src" / "repro"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(hook), str(tree / "src")]),
            PYTHONDONTWRITEBYTECODE="1",
            TRAFFIC_MAP_SRC=str(src) + os.sep,
            TRAFFIC_MAP_CALLS=str(calls),
        )
        failed = 0
        for command in traffic(tree, out):
            done = subprocess.run(
                command, cwd=tree, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                failed += 1
                print(
                    f"exit {done.returncode}: {' '.join(command)}\n"
                    f"{done.stderr[-2000:]}",
                    file=sys.stderr,
                )
        called: Set[Tuple[str, int, str]] = set()
        for log in calls.glob("*.calls"):
            for line in log.read_text().splitlines():
                module, lineno, name = line.rsplit(":", 2)
                called.add((module, int(lineno), name))
        report(functions(src), called)
        return 1 if failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
