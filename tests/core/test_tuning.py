"""Tests for window/buffer tuning."""

import pytest

from repro.core.template import Template, TemplateNode, binary_tree_template
from repro.core import tuning
from repro.core.tuning import (
    HEADROOM,
    max_window_for_buffer,
    pin_bound,
    tune_window,
)
from repro.errors import AssemblyError


class TestPinBound:
    def test_paper_arithmetic(self):
        """Section 6.3.3: 6*(50-1) + 7 = 301 pages at window 50."""
        assert pin_bound(50) == 301
        assert pin_bound(1) == 7

    def test_custom_template(self):
        two_level = binary_tree_template(2)  # 3 nodes
        assert pin_bound(10, two_level) == 2 * 9 + 3

    def test_single_node_template(self):
        solo = Template(TemplateNode("only")).finalize()
        assert pin_bound(5, solo) == 1

    def test_bad_window(self):
        with pytest.raises(AssemblyError):
            pin_bound(0)

    def test_bound_matches_measurement(self):
        """The analytic bound is what assembly actually pins."""
        from repro.bench.harness import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(
                n_complex_objects=150,
                clustering="inter-object",
                scheduler="elevator",
                window_size=10,
                cluster_pages=64,
            )
        )
        assert result.peak_pinned_pages <= pin_bound(10)


class TestMaxWindow:
    def test_inverts_bound(self):
        for capacity in (64, 128, 512, 2048):
            window = max_window_for_buffer(capacity)
            assert pin_bound(window) <= capacity - HEADROOM
            assert pin_bound(window + 1) > capacity - HEADROOM

    def test_tiny_buffer_rejected(self):
        with pytest.raises(AssemblyError):
            max_window_for_buffer(10)

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setattr(tuning, "HEADROOM", 0)
        assert max_window_for_buffer(16) >= 1

    def test_bad_capacity(self):
        with pytest.raises(AssemblyError):
            max_window_for_buffer(0)


class TestTuneWindow:
    def test_picks_measured_best(self):
        costs = {1: 100.0, 10: 40.0, 25: 25.0, 50: 30.0}
        result = tune_window(
            run=lambda w: costs[w], candidates=(1, 10, 25, 50)
        )
        assert result.best_window == 25
        assert result.best_avg_seek == 25.0
        assert len(result.probes) == 4

    def test_skips_windows_beyond_buffer(self):
        calls = []
        result = tune_window(
            run=lambda w: calls.append(w) or float(w),
            buffer_capacity=128,  # max window ~20
            candidates=(1, 10, 50, 200),
        )
        assert calls == [1, 10]
        assert result.best_window == 1

    def test_no_feasible_candidate(self):
        with pytest.raises(AssemblyError):
            tune_window(
                run=lambda w: 1.0,
                buffer_capacity=64,
                candidates=(200,),
            )

    def test_bad_candidate(self):
        with pytest.raises(AssemblyError):
            tune_window(run=lambda w: 1.0, candidates=(0,))

    def test_end_to_end_tuning(self):
        """Tuning against the real harness finds a sane window."""
        from repro.bench.harness import ExperimentConfig, run_experiment

        def run(window):
            return run_experiment(
                ExperimentConfig(
                    n_complex_objects=200,
                    clustering="inter-object",
                    scheduler="elevator",
                    window_size=window,
                    cluster_pages=64,
                )
            ).avg_seek

        result = tune_window(run, candidates=(1, 10, 30))
        assert result.best_window == 30  # bigger window, fewer seeks
