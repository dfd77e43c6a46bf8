"""SLOTracker: windowed percentiles, hysteresis, counters."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs.slo import SLOTracker


def tracker(**kwargs):
    kwargs.setdefault("target_ms", 100.0)
    kwargs.setdefault("window", 8)
    kwargs.setdefault("min_samples", 8)
    return SLOTracker(**kwargs)


class TestWarmup:
    def test_silent_below_min_samples(self):
        t = tracker()
        for _ in range(7):
            assert t.observe(10_000.0) is False
        assert t.current() is None
        assert not t.breached
        assert t.breaches == 0

    def test_observed_counts_lifetime_not_window(self):
        t = tracker(window=4, min_samples=4)
        for _ in range(20):
            t.observe(1.0)
        assert t.observed == 20
        assert len(t._recent) == 4


class TestBreachAndRecovery:
    def test_slow_window_trips_exactly_once(self):
        t = tracker()
        states = [t.observe(150.0) for _ in range(12)]
        assert states[:7] == [False] * 7  # warming up
        assert all(states[7:])  # tripped at min_samples, stays tripped
        assert t.breaches == 1
        assert t.recoveries == 0

    def test_hysteresis_holds_the_breach_in_the_gray_zone(self):
        """Target 100, recovery bar 0.8 x 100: a windowed percentile of
        90 is below target but above the bar — still breached."""
        t = tracker()
        for _ in range(8):
            t.observe(150.0)
        assert t.breached
        for _ in range(8):  # the window is now entirely 90s
            t.observe(90.0)
        assert t.breached
        assert t.recoveries == 0

    def test_recovery_below_the_bar(self):
        t = tracker()
        for _ in range(8):
            t.observe(150.0)
        for _ in range(8):
            t.observe(10.0)
        assert not t.breached
        assert t.breaches == 1 and t.recoveries == 1

    def test_fresh_tracker_never_recovers_without_a_breach(self):
        t = tracker()
        for _ in range(20):
            t.observe(1.0)
        assert t.recoveries == 0 and t.breaches == 0


class TestPercentile:
    def test_windowed_percentile_is_exact_over_the_ring(self):
        """The p99 of 200 samples is index int(0.99 * 200) = 198 of the
        sorted window: the second largest, not the maximum."""
        t = tracker(window=200, min_samples=200)
        for value in range(1, 201):
            t.observe(float(value))
        assert t.current() == 199.0
        t.observe(1_000.0)  # pushes 1.0 out of the window
        assert t.current() == 200.0

    def test_old_samples_age_out(self):
        t = tracker(window=8, min_samples=8)
        for _ in range(8):
            t.observe(1_000.0)
        for _ in range(8):
            t.observe(1.0)
        assert t.current() == 1.0


class TestSnapshotAndValidation:
    def test_snapshot_surface(self):
        t = tracker()
        t.observe(50.0)
        snap = t.snapshot()
        assert snap == {
            "target_ms": 100.0,
            "percentile": 0.99,
            "window": 8,
            "current": None,
            "breached": False,
            "observed": 1,
            "breaches": 0,
            "recoveries": 0,
        }

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            SLOTracker(target_ms=0.0)
        with pytest.raises(ReproError):
            SLOTracker(target_ms=1.0, window=0)
        with pytest.raises(ReproError):
            SLOTracker(target_ms=1.0, min_samples=0)

    def test_min_samples_above_window_rejected(self):
        """The ring holds at most ``window`` completions: a larger
        ``min_samples`` would keep ``current()`` at None forever and the
        tracker could never trip."""
        with pytest.raises(ReproError, match="could never trip"):
            SLOTracker(target_ms=1.0, window=4, min_samples=5)
        assert SLOTracker(target_ms=1.0, window=4, min_samples=4).window == 4

    def test_negative_latency_rejected(self):
        with pytest.raises(ReproError):
            tracker().observe(-1.0)
