"""Reduced-scale runs of every figure driver.

These use small databases so the whole suite stays fast; the full-scale
shape checks run with ``python -m repro.bench``.  At this scale we
assert the series exist, cover the right axes, and that
scale-independent checks (exact accounting oracles) hold.
"""

import pytest

from repro.bench.figures import (
    ALL_FIGURES,
    ablation_adaptive_scheduler,
    ablation_buffer_capacity,
    ablation_cost_model,
    ablation_hypermodel_generality,
    ablation_multi_device,
    ablation_parallel_contention,
    ablation_scheduler_overhead,
    ablation_sharing_degree,
    ablation_window_tuning,
    buffer_pin_bound,
    depth_first_window_invariance,
    figure_11,
    figure_13,
    figure_14,
    figure_15,
    figure_16,
)
from repro.errors import ReproError

SMALL_SIZES = (100, 200)


class TestRegistry:
    def test_every_registered_figure_is_described(self):
        assert list(ALL_FIGURES) == [
            "fig11", "fig13", "fig14", "fig15", "fig16",
            "buffer-bound", "df-invariance",
            "ablation-scheduler", "ablation-buffer", "ablation-sharing",
            "ablation-adaptive", "ablation-parallel", "ablation-tuning",
            "ablation-multidevice", "ablation-hypermodel",
            "ablation-costmodel", "baseline-tidscan",
            "service", "batch", "elapsed", "robustness", "fabric",
            "reorg", "volcano",
        ]
        undescribed = [
            name for name, driver in ALL_FIGURES.items()
            if not (driver.__doc__ or "").strip()
        ]
        assert not undescribed, f"drivers without a --list summary: {undescribed}"


class TestFigure11:
    def test_series_and_panels(self):
        panels = figure_11(db_sizes=SMALL_SIZES)
        assert [p.figure_id for p in panels] == [
            "Figure 11A", "Figure 11B", "Figure 11C",
        ]
        for panel in panels:
            assert set(panel.series) == {
                "breadth-first", "depth-first", "elevator",
            }
            assert panel.xs() == list(SMALL_SIZES)

    def test_panel_a_flat_and_bf_worst_even_small(self):
        panel_a = figure_11(db_sizes=SMALL_SIZES)[0]
        assert not panel_a.violations


class TestFigure13:
    def test_elevator_wins_even_small(self):
        panels = figure_13(db_sizes=SMALL_SIZES)
        for panel in panels:
            assert not panel.violations

    def test_df_window_invariance(self):
        figure = depth_first_window_invariance(db_size=80, windows=(1, 8, 20))
        assert not figure.violations


class TestFigure14:
    def test_monotone_at_small_scale(self):
        figure = figure_14(windows=(1, 10, 25), db_size=300)
        assert not figure.violations


class TestBufferBound:
    def test_bound_holds(self):
        figure = buffer_pin_bound(windows=(1, 4, 8), db_size=120)
        assert not figure.violations
        measured = figure.series["peak pinned (measured)"]
        bound = figure.series["paper bound 6(W-1)+7"]
        assert all(m[1] <= b[1] for m, b in zip(measured, bound))


class TestFigure15:
    def test_sharing_figure(self):
        figure = figure_15(
            db_sizes=(150, 300), buffer_capacity=64, large_window=8
        )
        assert set(figure.series) == {
            "depth-first", "elevator window=1", "elevator window=8",
        }
        assert not figure.violations
        assert figure.notes  # the read-reduction note

    def test_buffer_smaller_than_window_rejected(self):
        with pytest.raises(ReproError):
            figure_15(db_sizes=(100,), buffer_capacity=96, large_window=50)


class TestFigure16:
    def test_predicate_figure(self):
        figure = figure_16(selectivities=(0.2, 0.6), db_size=200)
        # Exact accounting oracles hold at any scale.
        assert "rejected objects cost exactly the predicate-path fetches" not in figure.violations
        assert "emitted counts track predicate selectivity" not in figure.violations


class TestAblations:
    def test_scheduler_overhead(self):
        figure = ablation_scheduler_overhead(db_size=100, window=10)
        assert not figure.violations

    def test_sharing_degree(self):
        figure = ablation_sharing_degree(degrees=(0.1, 0.25), db_size=100)
        assert not figure.violations

    def test_buffer_capacity(self):
        # Capacities must clear window 50's pin bound (6*49 + 7 = 301).
        figure = ablation_buffer_capacity(
            capacities=(None, 512, 320), db_size=150
        )
        assert set(figure.series) == {"total reads", "re-reads"}
        assert not figure.violations
        re_reads = dict(figure.series["re-reads"])
        assert re_reads[0] == 0  # unbounded buffer never re-reads
        assert re_reads[320] >= re_reads[512]

    def test_adaptive_scheduler(self):
        figure = ablation_adaptive_scheduler(
            db_size=150, selectivities=(0.1, 0.5)
        )
        assert set(figure.series) == {"elevator", "adaptive"}
        assert not figure.violations

    def test_parallel_contention(self):
        figure = ablation_parallel_contention(
            db_size=150, partition_counts=(1, 4), window=16
        )
        assert set(figure.series) == {"independent queues", "device server"}
        assert figure.xs() == [1, 4]
        assert not figure.violations

    def test_window_tuning(self):
        figure = ablation_window_tuning(buffer_capacity=64, db_size=150)
        assert not figure.violations
        # Ceiling for 64 frames is window 10, so probes stop at 10.
        assert max(figure.xs()) <= 10
        assert figure.notes

    def test_multi_device(self):
        figure = ablation_multi_device(
            device_counts=(1, 2, 4), db_size=120, window_per_device=8
        )
        assert set(figure.series) == {
            "critical path (max device)", "aggregate (sum devices)",
        }
        assert not figure.violations

    def test_hypermodel_generality(self):
        figure = ablation_hypermodel_generality(
            n_documents=60, windows=(1, 10, 25)
        )
        assert set(figure.series) == {"depth-first", "elevator"}
        # The sharing-accounting oracle is exact at any scale.
        assert not figure.violations

    def test_cost_model(self):
        figure = ablation_cost_model(db_size=150, windows=(1, 16))
        assert set(figure.series) == {"depth-first", "elevator"}
        assert not figure.violations
        assert figure.notes  # the seek-vs-service-time ratio note
