"""Tests for the trace exporters, summaries, diffs, and the obs CLI."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.export import (
    chrome_trace_document,
    diff_spans,
    read_jsonl,
    render_summary,
    span_to_trace_event,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spans import Span, SpanRecorder


def sample_spans():
    recorder = SpanRecorder()
    request = recorder.begin("request", kind="request")
    recorder.end(recorder.begin("fetch", parent=request, kind="fetch"))
    recorder.end(request)
    recorder.add("io", start=1.0, end=4.0, kind="device-io", device=2,
                 pages=3)
    recorder.begin("dangling")  # stays open
    return recorder.spans


class TestChromeExport:
    def test_event_shape(self):
        span = Span(name="s", span_id=4, parent_id=2, start=2.0, end=5.0,
                    kind="fetch", attrs={"oid": "A1"})
        event = span_to_trace_event(span)
        assert event["ph"] == "X"
        assert event["ts"] == 2000.0 and event["dur"] == 3000.0
        assert event["cat"] == "fetch" and event["tid"] == 0
        assert event["args"] == {"oid": "A1", "span_id": 4, "parent_id": 2}

    def test_device_becomes_track(self):
        span = Span(name="io", span_id=0, parent_id=None, start=0.0,
                    end=1.0, device=3)
        assert span_to_trace_event(span)["tid"] == 3

    def test_open_span_refuses_event_export(self):
        span = Span(name="open", span_id=0, parent_id=None, start=0.0)
        with pytest.raises(ReproError):
            span_to_trace_event(span)

    def test_document_skips_open_spans_visibly(self):
        document = chrome_trace_document(sample_spans())
        assert len(document["traceEvents"]) == 3
        assert document["otherData"]["open_spans_skipped"] == 1
        assert validate_chrome_trace(document) == []

    def test_write_and_validate_round_trip(self, tmp_path):
        path = write_chrome_trace(sample_spans(), tmp_path / "t.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []

    def test_validator_reports_problems(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
        broken = {"traceEvents": [{"ph": "X", "dur": -1}]}
        problems = validate_chrome_trace(broken)
        assert any("missing" in p for p in problems)
        assert any("negative duration" in p for p in problems)


class TestJsonl:
    def test_round_trip_is_lossless(self, tmp_path):
        spans = sample_spans()
        path = write_jsonl(spans, tmp_path / "t.jsonl")
        assert read_jsonl(path) == spans

    def test_blank_lines_skipped_garbage_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n" + json.dumps(
            Span(name="s", span_id=0, parent_id=None, start=0.0,
                 end=1.0).to_dict()
        ) + "\n")
        assert len(read_jsonl(path)) == 1
        path.write_text("{not json}\n")
        with pytest.raises(ReproError, match="not a span record"):
            read_jsonl(path)


class TestSummaries:
    def test_summarize_counts_and_open(self):
        summary = summarize_spans(sample_spans())
        assert summary["request"]["count"] == 1
        assert summary["dangling"]["open"] == 1
        assert summary["dangling"]["count"] == 0
        assert summary["io"]["p50"] == 3.0

    def test_render_summary_table(self):
        text = render_summary(sample_spans())
        assert "request" in text and "dangling" in text
        assert render_summary([]) == "(no spans)"


class TestDiff:
    def test_equivalent_traces_have_no_diff(self):
        assert diff_spans(sample_spans(), sample_spans()) == []

    def test_ids_do_not_matter_structure_does(self):
        a = [Span(name="s", span_id=10, parent_id=None, start=0.0, end=1.0)]
        b = [Span(name="s", span_id=99, parent_id=None, start=5.0, end=6.0)]
        assert diff_spans(a, b) == []
        assert diff_spans(a, b, with_timing=True) != []

    def test_structural_difference_and_count_mismatch(self):
        a = sample_spans()
        b = sample_spans()
        b[1].name = "other"
        differences = diff_spans(a, b)
        assert any("span 1" in line for line in differences)
        assert any("count differs" in line
                   for line in diff_spans(a, b[:-1]))

    def test_limit_caps_output(self):
        a = [Span(name=f"a{i}", span_id=i, parent_id=None, start=0.0,
                  end=1.0) for i in range(5)]
        b = [Span(name=f"b{i}", span_id=i, parent_id=None, start=0.0,
                  end=1.0) for i in range(5)]
        differences = diff_spans(a, b, limit=2)
        assert len(differences) == 3
        assert "more difference" in differences[-1]


class TestCli:
    def run(self, *argv):
        from repro.obs.__main__ import main

        return main(list(argv))

    def test_render_summarize_diff_pipeline(self, tmp_path, capsys):
        log = tmp_path / "t.jsonl"
        write_jsonl(sample_spans(), log)
        out = tmp_path / "t.json"
        assert self.run("render", str(log), "-o", str(out)) == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        assert self.run("summarize", str(log)) == 0
        assert "request" in capsys.readouterr().out
        assert self.run("diff", str(log), str(log)) == 0

    def test_diff_exits_nonzero_on_difference(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        spans = sample_spans()
        write_jsonl(spans, a)
        spans[0].name = "mutated"
        write_jsonl(spans, b)
        assert self.run("diff", str(a), str(b)) == 1
