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
six minutes under the hook, so this is not a tier-1 test: the weekly
``traffic map`` CI workflow fails when its output differs from the
committed ``results/traffic/uncalled.txt`` (so a newly uncalled or
unowned function fails it).

A function's line count is ``end_lineno - lineno + 1`` of its ``def``
(a nested ``def`` is a function of its own and also lies inside its
parent's span).  Each is listed by its qualified name (``Class.method``,
``function.inner``), with its owner beside it: the reason it is kept,
read from ``results/traffic/owners.txt`` (one ``module:Qualified.name
owner`` line per function).  That file's header fixes the vocabulary:
``item N: ...`` (an open ROADMAP item and what it does with the
function), ``interface`` (an abstract declaration whose overrides are
called), ``tracer name`` (a name the observatory's frozen tracer wraps)
or ``safety: ...`` (the misuse or input it guards against).  A
function with no owner prints as ``UNOWNED``; the listing ends with the
line total of each kind of owner.  ``tests/test_traffic.py`` checks
the committed listing and table against each other and the ROADMAP.
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
    """``module -> [(def line, first line, qualified name, line count)]``.

    A code object's first line is its first decorator's when it has
    one; the recorder reports that line, the listing the ``def`` line.
    """
    found: Dict[str, List[Tuple[int, int, str, int]]] = {}
    for path in sorted(src.rglob("*.py")):
        rows = []
        stack = [(ast.parse(path.read_text()), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    name = prefix + child.name
                    rows.append((
                        child.lineno, first, name,
                        child.end_lineno - child.lineno + 1,
                    ))
                    name += "."
                elif isinstance(child, ast.ClassDef):
                    name = prefix + child.name + "."
                stack.append((child, name))
        found[str(path.relative_to(src))] = sorted(rows)
    return found


def owners(table: Path) -> Dict[str, str]:
    """``module:Qualified.name -> owner`` from the owner table (empty
    when ``table`` does not exist); ``#`` lines are its header."""
    if not table.exists():
        return {}
    found = {}
    for line in table.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, owner = line.split(None, 1)
            found[key] = owner.strip()
    return found


def kind(owner: str) -> str:
    """What an owner totals under: ``item N``, ``interface``, ``tracer
    name``, ``safety`` or ``UNOWNED``."""
    return owner.split(":", 1)[0]


def report(
    found: Dict[str, List[Tuple[int, int, str, int]]],
    called: Set[Tuple[str, int, str]],
    owned: Dict[str, str],
) -> None:
    """Print the uncalled functions with their owners, per module, then
    the line total of each kind of owner and in all."""
    total = uncalled_total = 0
    by_kind: Dict[str, int] = {}
    for module, rows in found.items():
        module_lines = sum(row[3] for row in rows)
        total += module_lines
        uncalled = [
            row for row in rows
            if (module, row[1], row[2].rpartition(".")[2]) not in called
        ]
        if not uncalled:
            continue
        uncalled_lines = sum(row[3] for row in uncalled)
        uncalled_total += uncalled_lines
        print(f"{module}  {uncalled_lines} / {module_lines}")
        for lineno, _first, name, lines in uncalled:
            owner = owned.get(f"{module}:{name}", "UNOWNED")
            by_kind[kind(owner)] = by_kind.get(kind(owner), 0) + lines
            print(f"    {lineno:5d}  {name}  {lines}  {owner}")
    for owner_kind in sorted(
        by_kind,
        key=lambda k: (0, int(k[5:]), "")
        if k.startswith("item ")
        else (1, 0, k),
    ):
        print(f"OWNER  {owner_kind}  {by_kind[owner_kind]}")
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
        report(
            functions(src), called,
            owners(args.root / "results" / "traffic" / "owners.txt"),
        )
        return 1 if failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
