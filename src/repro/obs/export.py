"""Trace exporters: Chrome ``trace_event`` JSON and flat JSONL.

Two formats, two purposes:

* **Chrome trace JSON** (:func:`write_chrome_trace`) renders a
  recorded execution in ``chrome://tracing`` / Perfetto: one complete
  ("ph": "X") event per finished span, timestamps in microseconds,
  tracks (tid) by device for I/O spans and by span kind otherwise.
  This is the Figure 5 walkthrough as an interactive timeline.
* **JSONL span log** (:func:`write_jsonl` / :func:`read_jsonl`) is the
  machine format: one :meth:`~repro.obs.spans.Span.to_dict` object per
  line, round-tripping losslessly so traces can be archived, diffed
  (:func:`diff_spans`) and re-rendered later.

The simulated clocks are unitless-but-consistent within a trace;
Chrome's viewer assumes microseconds, so :data:`SCALE_US` (clock
milliseconds) positions spans sensibly without changing their relative
structure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.errors import ReproError

from repro.obs.histograms import StreamingHistogram
from repro.obs.spans import Span

#: Required keys of a Chrome complete event (validators check these).
CHROME_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")
#: Chrome microseconds per clock unit: the clocks count milliseconds.
SCALE_US = 1000.0
#: Difference lines :func:`diff_spans` reports before it summarizes.
DIFF_LIMIT = 20


def span_to_trace_event(span: Span) -> Dict[str, object]:
    """One finished span as a Chrome complete ("ph": "X") event."""
    if not span.finished:
        raise ReproError(
            f"span {span.span_id} ({span.name}) is still open; "
            f"only finished spans export"
        )
    track = span.device if span.device >= 0 else 0
    args: Dict[str, object] = dict(span.attrs)
    args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    return {
        "name": span.name,
        "cat": span.kind or "span",
        "ph": "X",
        "ts": span.start * SCALE_US,
        "dur": span.duration * SCALE_US,
        "pid": 1,
        "tid": track,
        "args": args,
    }


def chrome_trace_document(spans: Iterable[Span]) -> Dict[str, object]:
    """The full Chrome trace JSON object for a set of spans.

    Open spans are skipped (their count lands in ``otherData`` so a
    truncated trace is visible, not silent).
    """
    finished = [span for span in spans if span.finished]
    skipped = sum(1 for span in spans if not span.finished)
    return {
        "traceEvents": [
            span_to_trace_event(span) for span in finished
        ],
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "spans": len(finished),
            "open_spans_skipped": skipped,
        },
    }


def write_chrome_trace(spans: Iterable[Span], path: Union[str, Path]) -> Path:
    """Write the Chrome trace JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace_document(list(spans))
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    return path


def validate_chrome_trace(document: Dict[str, object]) -> List[str]:
    """Problems with a Chrome trace document (empty list = valid)."""
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for position, event in enumerate(events):
        for key in CHROME_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {position} missing {key!r}")
        if event.get("ph") == "X" and event.get("dur", 0) < 0:
            problems.append(f"event {position} has negative duration")
    return problems


# -- JSONL span log ----------------------------------------------------------


def write_jsonl(spans: Iterable[Span], path: Union[str, Path]) -> Path:
    """Write one span per line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[Span]:
    """Parse a JSONL span log back into :class:`Span` objects."""
    spans: List[Span] = []
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise ReproError(
                    f"{path}:{line_number}: not a span record ({exc})"
                ) from exc
    return spans


# -- summaries and diffs -----------------------------------------------------


def summarize_spans(spans: Sequence[Span]) -> Dict[str, Dict[str, object]]:
    """Per-name rollup: count and duration percentiles.

    Durations stream through a :class:`StreamingHistogram`, so the
    summary of a million-span trace costs buckets, not a sort.
    """
    histograms: Dict[str, StreamingHistogram] = {}
    open_counts: Dict[str, int] = {}
    for span in spans:
        if span.finished:
            histograms.setdefault(span.name, StreamingHistogram()).record(
                span.duration
            )
        else:
            open_counts[span.name] = open_counts.get(span.name, 0) + 1
    out: Dict[str, Dict[str, object]] = {}
    for name in sorted(set(histograms) | set(open_counts)):
        entry: Dict[str, object] = {"open": open_counts.get(name, 0)}
        histogram = histograms.get(name)
        if histogram is not None:
            entry.update(histogram.snapshot())
        else:
            entry.update(StreamingHistogram().snapshot())
        out[name] = entry
    return out


def render_summary(spans: Sequence[Span]) -> str:
    """Human-readable table of :func:`summarize_spans`."""
    summary = summarize_spans(spans)
    if not summary:
        return "(no spans)"
    header = (
        f"{'span':24} {'count':>6} {'open':>5} {'total':>10} "
        f"{'p50':>9} {'p90':>9} {'p99':>9} {'max':>9}"
    )
    lines = [header, "-" * len(header)]

    def fmt(value: object) -> str:
        if value is None:
            return "-"
        return f"{value:.2f}"

    for name, entry in summary.items():
        lines.append(
            f"{name:24} {entry['count']:>6} {entry['open']:>5} "
            f"{fmt(entry['total']):>10} {fmt(entry['p50']):>9} "
            f"{fmt(entry['p90']):>9} {fmt(entry['p99']):>9} "
            f"{fmt(entry['max']):>9}"
        )
    return "\n".join(lines)


def _structure(
    spans: Sequence[Span], with_timing: bool
) -> List[tuple]:
    """Comparable shape of a trace: (name, kind, device, depth) rows.

    Span ids are allocation order, so they are deliberately excluded:
    two traces are structurally equal when the same tree of named spans
    was recorded, whatever ids the recorders handed out.
    """
    by_id = {span.span_id: span for span in spans}

    def depth(span: Span) -> int:
        steps = 0
        current = span
        while current.parent_id is not None:
            parent = by_id.get(current.parent_id)
            if parent is None:
                break
            current = parent
            steps += 1
        return steps

    rows = []
    for span in spans:
        row: tuple = (span.name, span.kind, span.device, depth(span))
        if with_timing:
            row = row + (span.start, span.end)
        rows.append(row)
    return rows


def diff_spans(
    a: Sequence[Span],
    b: Sequence[Span],
    with_timing: bool = False,
) -> List[str]:
    """Structural differences between two traces (empty = equivalent).

    Compares span-by-span in recording order: name, kind, device and
    tree depth (plus stamps when ``with_timing``).  Returns
    human-readable difference lines, capped at :data:`DIFF_LIMIT`.
    """
    rows_a = _structure(a, with_timing)
    rows_b = _structure(b, with_timing)
    differences: List[str] = []
    for position, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if row_a != row_b:
            differences.append(f"span {position}: {row_a} != {row_b}")
    if len(rows_a) != len(rows_b):
        differences.append(
            f"span count differs: {len(rows_a)} != {len(rows_b)}"
        )
    if len(differences) > DIFF_LIMIT:
        overflow = len(differences) - DIFF_LIMIT
        differences = differences[:DIFF_LIMIT]
        differences.append(f"... {overflow} more difference(s)")
    return differences
