"""Unit tests for the streaming histogram: accuracy, merge, identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.histograms import SUBBUCKETS, StreamingHistogram


class TestRecording:
    def test_empty_reads_as_none(self):
        histogram = StreamingHistogram()
        assert histogram.count == 0
        assert histogram.mean is None and histogram.p50 is None
        assert histogram.min is None and histogram.max is None

    def test_rejects_negative_and_nan(self):
        histogram = StreamingHistogram()
        with pytest.raises(ReproError):
            histogram.record(-1.0)
        with pytest.raises(ReproError):
            histogram.record(float("nan"))

    def test_exact_tails(self):
        histogram = StreamingHistogram()
        for value in [3.0, 100.0, 7.0, 0.0, 55.5]:
            histogram.record(value)
        assert histogram.min == 0.0
        assert histogram.max == 55.5 or histogram.max == 100.0
        assert histogram.max == 100.0
        assert histogram.percentile(1.0) == 100.0
        assert histogram.mean == pytest.approx(33.1)

    def test_zero_has_its_own_bucket(self):
        histogram = StreamingHistogram()
        for _ in range(10):
            histogram.record(0.0)
        histogram.record(1000.0)
        assert histogram.p50 == 0.0
        assert histogram.max == 1000.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=100),
           st.sampled_from((0.5, 0.9, 0.99)))
    def test_bounded_relative_error(self, values, fraction):
        """Interior quantiles land within the HDR error bound of the
        exact order statistic (tails are exact by construction)."""
        import math

        histogram = StreamingHistogram()
        for value in values:
            histogram.record(value)
        rank = max(1, math.ceil(fraction * len(values)))
        exact = sorted(values)[rank - 1]
        estimate = histogram.percentile(fraction)
        if exact == 0.0:
            assert estimate == 0.0
        else:
            bound = exact / (2 * SUBBUCKETS)
            assert abs(estimate - exact) <= bound * (1 + 1e-9)

    def test_subunit_values_sort_above_the_zero_bucket(self):
        """Regression: values below 0.5 have negative frexp exponents;
        without the exponent bias their buckets sorted *below* the
        reserved zero bucket and percentiles came out misordered."""
        histogram = StreamingHistogram()
        for value in (0.0, 0.25, 1.0):
            histogram.record(value)
        assert histogram.percentile(0.5) == pytest.approx(0.25, rel=0.04)

    def test_percentile_fraction_validation(self):
        histogram = StreamingHistogram()
        histogram.record(1.0)
        with pytest.raises(ReproError):
            histogram.percentile(0.0)
        with pytest.raises(ReproError):
            histogram.percentile(1.5)


class TestMergeAndIdentity:
    def test_merge_equals_single_stream(self):
        whole = StreamingHistogram()
        left, right = StreamingHistogram(), StreamingHistogram()
        for i in range(100):
            value = float(i * i % 97)
            whole.record(value)
            (left if i % 2 else right).record(value)
        left.merge(right)
        assert left == whole
        assert left.snapshot() == whole.snapshot()

    def test_identical_streams_compare_bit_equal(self):
        """The non-interference suite leans on this: same inputs, same
        insertion order or not, identical histogram state."""
        a, b = StreamingHistogram(), StreamingHistogram()
        values = [0.0, 1.5, 1.5, 200.25, 3.0, 17.0]
        for value in values:
            a.record(value)
        for value in reversed(values):
            b.record(value)
        assert a == b

    def test_eq_against_other_types(self):
        assert StreamingHistogram() != "histogram"

    def test_snapshot_keys(self):
        snapshot = StreamingHistogram().snapshot()
        assert set(snapshot) == {
            "count", "total", "mean", "min", "max", "p50", "p90", "p99",
        }
