"""Open-loop arrival processes: determinism and rate."""

from __future__ import annotations

import pytest

from repro.errors import FabricError
from repro.fabric.arrivals import PoissonArrivals


class TestCommonContract:
    @pytest.mark.parametrize(
        "process", [PoissonArrivals(10.0, seed=3)], ids=["poisson"]
    )
    def test_times_are_positive_increasing_and_replayable(self, process):
        times = process.times(200)
        assert len(times) == 200
        assert all(t > 0 for t in times)
        assert times == sorted(times)
        # times() restarts from the seed: same object, same stream.
        assert process.times(200) == times
        assert process.times(50) == times[:50]

    def test_different_seeds_differ(self):
        assert (
            PoissonArrivals(10.0, seed=1).times(50)
            != PoissonArrivals(10.0, seed=2).times(50)
        )

    def test_negative_count_rejected(self):
        with pytest.raises(FabricError):
            PoissonArrivals(1.0).times(-1)

    def test_zero_count_is_empty(self):
        assert PoissonArrivals(1.0).times(0) == []


class TestPoisson:
    def test_mean_gap_tracks_the_rate(self):
        rate = 20.0  # requests/s -> 50 ms mean gap
        times = PoissonArrivals(rate, seed=7).times(2000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1000.0 / rate, rel=0.15)

    def test_rate_must_be_positive(self):
        with pytest.raises(FabricError):
            PoissonArrivals(0.0)
