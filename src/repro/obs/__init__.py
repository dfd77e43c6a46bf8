"""End-to-end observability: spans, histograms, timelines, exporters.

The paper's entire argument is observational — Figure 5 is literally a
trace of the sliding window, and every Section 6 result is a per-read
statistic.  This package supplies the unified layer the counters alone
cannot: hierarchical :class:`~repro.obs.spans.Span` records stamped on
the *simulated* clock (the event clock, the service resolution counter,
or a disk-operation counter — never wall time), streaming
:class:`~repro.obs.histograms.StreamingHistogram` percentiles, and
per-device :class:`~repro.obs.devices.DeviceIOTimeline` samples
distilled from the disk's read tap.

Everything here is **strictly observational**: enabling a recorder, a
timeline, or an exporter never changes assembly results, fetch order,
disk accounting or service metrics — the ``tests/obs`` non-interference
suite property-tests exactly that, bit for bit.

Exporters render spans to Chrome ``trace_event`` JSON (load it in
``chrome://tracing`` or Perfetto) and to a flat JSONL span log that
round-trips losslessly; ``python -m repro.obs`` renders, summarizes and
diffs traces from the command line.
"""

from repro.obs.devices import DeviceIOTimeline, IOSample
from repro.obs.export import (
    chrome_trace_document,
    diff_spans,
    read_jsonl,
    summarize_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.histograms import StreamingHistogram
from repro.obs.slo import SLOTracker
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder

__all__ = [
    "DeviceIOTimeline",
    "IOSample",
    "NULL_SPAN",
    "SLOTracker",
    "Span",
    "SpanRecorder",
    "StreamingHistogram",
    "chrome_trace_document",
    "diff_spans",
    "read_jsonl",
    "summarize_spans",
    "write_chrome_trace",
    "write_jsonl",
]
