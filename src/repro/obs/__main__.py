"""Command-line trace tooling: ``python -m repro.obs``.

Three subcommands over recorded span logs::

    python -m repro.obs render [TRACE.jsonl] [-o OUT.json]
    python -m repro.obs summarize TRACE.jsonl
    python -m repro.obs diff A.jsonl B.jsonl [--timing]

``render`` converts a JSONL span log to Chrome ``trace_event`` JSON
(open it in ``chrome://tracing`` or https://ui.perfetto.dev).  With no
input file it runs the built-in instrumented demo service workload
(:mod:`repro.obs.demo`) and renders *that* — a one-command way to get
a real, valid trace out of the system.  ``--jsonl`` additionally
archives the demo's span log so it can be summarized or diffed later.

``summarize`` prints a per-span-name table (count, total, p50/p90/p99
durations); ``diff`` compares two logs structurally and exits non-zero
when they differ — the command-line face of the determinism guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.demo import demo_service_run
from repro.obs.export import (
    diff_spans,
    read_jsonl,
    render_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


def _render(args: argparse.Namespace) -> int:
    """The ``render`` subcommand."""
    if args.trace is not None:
        spans = read_jsonl(args.trace)
        source = args.trace
    else:
        recorder, _service = demo_service_run(sample_rate=args.sample_rate)
        spans = recorder.spans
        source = "demo service run"
        if args.jsonl:
            print(f"wrote {write_jsonl(spans, args.jsonl)}")
    path = write_chrome_trace(spans, args.out)
    problems = validate_chrome_trace(json.loads(path.read_text()))
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({len(spans)} spans from {source})")
    return 0


def _summarize(args: argparse.Namespace) -> int:
    """The ``summarize`` subcommand."""
    spans = read_jsonl(args.trace)
    print(render_summary(spans))
    return 0


def _diff(args: argparse.Namespace) -> int:
    """The ``diff`` subcommand."""
    differences = diff_spans(
        read_jsonl(args.a), read_jsonl(args.b), with_timing=args.timing
    )
    if not differences:
        print("traces are structurally equivalent")
        return 0
    for line in differences:
        print(line)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render, summarize and diff assembly traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    render = commands.add_parser(
        "render",
        help="JSONL span log (or the built-in demo run) -> Chrome trace",
    )
    render.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL span log (omit to run the instrumented demo service)",
    )
    render.add_argument(
        "-o", "--out", default="trace.json",
        help="output Chrome trace path (default: trace.json)",
    )
    render.add_argument(
        "--jsonl", metavar="FILE", default=None,
        help="with the demo run, also archive the JSONL span log here",
    )
    render.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="demo run span sampling rate (default: 1.0)",
    )
    render.set_defaults(func=_render)

    summarize = commands.add_parser(
        "summarize", help="per-span-name duration percentiles"
    )
    summarize.add_argument("trace", help="JSONL span log")
    summarize.set_defaults(func=_summarize)

    diff = commands.add_parser(
        "diff", help="structural comparison of two span logs"
    )
    diff.add_argument("a", help="baseline JSONL span log")
    diff.add_argument("b", help="candidate JSONL span log")
    diff.add_argument(
        "--timing", action="store_true",
        help="also require identical clock stamps",
    )
    diff.set_defaults(func=_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
