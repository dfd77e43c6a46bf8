"""Metric surfaces are complete: every counter reaches its flat view.

Reports and the regression gate consume ``snapshot()``
dictionaries, so a counter that exists on the dataclass
but is missing from the flat view silently disappears from every
figure.  These tests pin the dataclass-field ↔ flat-view
correspondence, including the fault counters added with the
robustness layer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ServiceError
from repro.service.metrics import RequestMetrics, ServiceMetrics


class TestServiceMetricsSnapshot:
    def test_every_counter_field_is_in_the_snapshot(self):
        snapshot = ServiceMetrics().snapshot()
        skipped = {"per_request"}  # per-request detail is deliberately omitted
        for field in dataclasses.fields(ServiceMetrics):
            if field.name in skipped:
                continue
            assert field.name in snapshot, (
                f"ServiceMetrics.{field.name} never reaches snapshot()"
            )

    def test_fault_counters_present_and_zero_by_default(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["objects_degraded"] == 0
        assert snapshot["fault_retries"] == 0
        assert snapshot["fault_aborts"] == 0

    def test_percentile_fraction_is_checked_before_the_run_is_read(self):
        empty = ServiceMetrics()
        assert empty.percentile_latency(0.5) is None
        for fraction in (0.0, -0.5, 2.0):
            with pytest.raises(ServiceError):
                empty.percentile_latency(fraction)

    def test_fabric_counters_present_and_zero_by_default(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["requests_cancelled"] == 0
        assert snapshot["requests_shed"] == 0
        assert snapshot["hedge_fired"] == 0
        assert snapshot["hedge_won"] == 0
        assert snapshot["queue_wait_ticks"] == 0


class TestServiceMetricsMerge:
    def make(self, latencies, **counters):
        metrics = ServiceMetrics()
        for name, value in counters.items():
            setattr(metrics, name, value)
        for latency in latencies:
            metrics.latency_hist.record(latency)
        return metrics

    def test_summed_fields_cover_every_int_counter(self):
        """merge() must not silently drop a newly added counter: every
        plain-int dataclass field is either summed or called out here."""
        int_fields = {
            field.name
            for field in dataclasses.fields(ServiceMetrics)
            if field.type == "int"
        }
        assert set(ServiceMetrics._SUMMED_FIELDS) == int_fields

    def test_counters_sum(self):
        merged = ServiceMetrics.merged(
            [
                self.make([], requests_completed=3, hedge_fired=2),
                self.make([], requests_completed=5, requests_shed=4),
            ]
        )
        assert merged.requests_completed == 8
        assert merged.hedge_fired == 2
        assert merged.requests_shed == 4

    def test_percentiles_come_from_the_merged_distribution(self):
        """The point of histogram merge: fleet p99 is the percentile of
        the *combined* stream, not an average of per-shard p99s (which
        would split the difference between a fast and a slow shard)."""
        fast = self.make([1.0] * 99)
        slow = self.make([1000.0] * 99)
        merged = ServiceMetrics.merged([fast, slow])
        assert merged.latency_hist.count == 198
        # Averaging per-shard p99s would claim ~500; the merged stream's
        # true p99 sits in the slow mode.
        assert merged.latency_hist.p99 > 900.0
        assert merged.latency_hist.p50 < 2.0

    def test_merged_leaves_the_parts_untouched(self):
        part = self.make([5.0], requests_completed=1)
        before = part.snapshot()
        ServiceMetrics.merged([part, self.make([7.0])])
        assert part.snapshot() == before

    def test_elapsed_is_max(self):
        a = self.make([])
        a.elapsed_ms = 10.0
        b = self.make([])
        b.elapsed_ms = 30.0
        merged = ServiceMetrics.merged([a, b])
        assert merged.elapsed_ms == 30.0
        assert ServiceMetrics.merged([self.make([]), a]).elapsed_ms == 10.0

    def test_per_request_entries_are_rekeyed_without_collision(self):
        a = ServiceMetrics()
        a.open_request(0, 0)
        a.open_request(1, 0)
        b = ServiceMetrics()
        b.open_request(0, 0)
        merged = ServiceMetrics.merged([a, b])
        assert len(merged.per_request) == 3

    def test_merge_returns_self_for_chaining(self):
        metrics = ServiceMetrics()
        assert metrics.merge(ServiceMetrics()) is metrics


class TestRequestMetricsAsDict:
    def test_fault_fields_default_to_zero(self):
        metrics = RequestMetrics(request_id=7)
        assert metrics.degraded == 0
        assert metrics.fault_retries == 0

    def test_derived_clocks(self):
        metrics = RequestMetrics(request_id=1, submitted_at=5)
        assert metrics.queue_wait is None and metrics.latency is None
        metrics.started_at = 9
        metrics.completed_at = 21
        assert metrics.queue_wait == 4
        assert metrics.latency == 16

