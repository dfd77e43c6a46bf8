"""Unit tests for the span recorder: nesting, clocks, sampling."""

import pytest

from repro.errors import ReproError
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder


class TestSpanBasics:
    def test_begin_end_stamps_and_duration(self):
        clock = iter([10.0, 17.0])
        recorder = SpanRecorder()
        recorder.bind_clock(lambda: next(clock))
        span = recorder.begin("work", kind="request")
        assert not span.finished and span.duration == 0.0
        recorder.end(span, outcome="done")
        assert span.finished
        assert (span.start, span.end) == (10.0, 17.0)
        assert span.duration == 7.0
        assert span.attrs["outcome"] == "done"

    def test_parenting(self):
        recorder = SpanRecorder()
        parent = recorder.begin("outer")
        child = recorder.begin("inner", parent=parent)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_double_end_rejected(self):
        recorder = SpanRecorder()
        span = recorder.begin("once")
        recorder.end(span)
        with pytest.raises(ReproError):
            recorder.end(span)

    def test_fallback_clock_is_a_step_counter(self):
        recorder = SpanRecorder()
        first = recorder.begin("a")
        second = recorder.begin("b")
        assert not recorder.clock_bound
        assert second.start == first.start + 1

    def test_bind_clock_first_binding_wins(self):
        recorder = SpanRecorder()
        recorder.bind_clock(lambda: 5.0)
        recorder.bind_clock(lambda: 99.0)
        assert recorder.now() == 5.0

    def test_add_records_explicit_stamps(self):
        recorder = SpanRecorder()
        recorder.bind_clock(lambda: 0.0)
        span = recorder.add("io", start=3.0, end=9.5, kind="device-io",
                            device=2, pages=4)
        assert span.finished and span.duration == 6.5
        assert span.device == 2 and span.attrs["pages"] == 4

    def test_event_is_zero_duration(self):
        recorder = SpanRecorder()
        recorder.bind_clock(lambda: 42.0)
        span = recorder.event("retry", kind="retry")
        assert span.start == span.end == 42.0

    def test_queries(self):
        recorder = SpanRecorder()
        recorder.end(recorder.begin("a", kind="x"))
        recorder.begin("b", kind="y")
        assert len(recorder.spans) == 2
        assert [s.name for s in recorder.open_spans()] == ["b"]
        assert [s.name for s in recorder.of_kind("y")] == ["b"]

    def test_to_dict_from_dict_round_trip(self):
        span = Span(name="s", span_id=3, parent_id=1, start=1.0, end=2.0,
                    kind="k", device=1, attrs={"n": 7})
        assert Span.from_dict(span.to_dict()) == span


class TestSampling:
    def test_rate_validation(self):
        with pytest.raises(ReproError):
            SpanRecorder(sample_rate=1.5)

    def test_quarter_rate_keeps_every_fourth_deterministically(self):
        recorder = SpanRecorder(sample_rate=0.25)
        kept = [recorder.begin("slot", sample=True) is not NULL_SPAN
                for _ in range(16)]
        assert kept.count(True) == 4
        # Counter-based, not random: a second recorder agrees exactly.
        again = SpanRecorder(sample_rate=0.25)
        assert kept == [again.begin("slot", sample=True) is not NULL_SPAN
                        for _ in range(16)]
        assert recorder.sampled_out == 12

    def test_zero_rate_drops_all_full_rate_keeps_all(self):
        nothing = SpanRecorder(sample_rate=0.0)
        assert all(nothing.begin("s", sample=True) is NULL_SPAN
                   for _ in range(5))
        everything = SpanRecorder(sample_rate=1.0)
        assert all(everything.begin("s", sample=True) is not NULL_SPAN
                   for _ in range(5))

    def test_null_span_drops_whole_subtree(self):
        recorder = SpanRecorder(sample_rate=0.0)
        dropped = recorder.begin("slot", sample=True)
        child = recorder.begin("fetch", parent=dropped)
        grandchild = recorder.begin("io", parent=child)
        assert dropped is child is grandchild is NULL_SPAN
        recorder.end(grandchild)  # all no-ops
        recorder.end(child)
        recorder.end(dropped)
        assert len(recorder.spans) == 0

    def test_unsampled_structural_spans_never_dropped(self):
        recorder = SpanRecorder(sample_rate=0.0)
        assert recorder.begin("request") is not NULL_SPAN
        assert recorder.event("e", parent=NULL_SPAN) is NULL_SPAN
