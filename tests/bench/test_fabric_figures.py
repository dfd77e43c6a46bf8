"""The F-figure family at reduced scale: shapes must already hold."""

from __future__ import annotations

import math

from repro.bench.fabric import (
    KNEE_FACTOR,
    _knee,
    figure_fabric,
)
from repro.bench.figures import ALL_FIGURES


class TestFigureFabric:
    def run(self):
        return figure_fabric(
            db_size=48, requests_per_point=28, calibration_requests=12
        )

    def test_no_violations_at_small_scale(self):
        figures = self.run()
        assert [f.figure_id for f in figures] == [
            "Fabric F-1",
            "Fabric F-2",
            "Fabric F-3",
        ]
        for figure in figures:
            assert figure.violations == [], (
                f"{figure.figure_id}: {figure.violations}"
            )

    def test_f1_has_one_series_per_shard_count(self):
        f1 = self.run()[0]
        assert set(f1.series) == {"1 shard(s)", "2 shard(s)", "4 shard(s)"}
        for name in f1.series:
            assert all(y > 0 for y in f1.ys(name))

    def test_f2_percentiles_are_nondecreasing(self):
        f2 = self.run()[1]
        for name in ("hedged", "unhedged"):
            ys = f2.ys(name)
            assert ys == sorted(ys)

    def test_f3_fractions_are_fractions(self):
        f3 = self.run()[2]
        for _rho, fraction in f3.series["shed fraction"]:
            assert 0.0 <= fraction <= 1.0


class TestKneeDetection:
    def test_knee_is_the_first_blowup(self):
        rhos = (0.5, 1.0, 2.0)
        assert _knee(rhos, [10.0, 20.0, 10.0 * KNEE_FACTOR + 1]) == 2.0
        assert _knee(rhos, [10.0, 11.0, 12.0]) == math.inf
        assert _knee(rhos, [10.0, 10.0 * KNEE_FACTOR + 1, 1.0]) == 1.0


class TestRegistry:
    def test_fabric_is_registered(self):
        assert "fabric" in ALL_FIGURES
