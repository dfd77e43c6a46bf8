"""Reduced-scale runs of the service figures and the regression CLI.

The full-scale checks run with ``python -m repro.bench service``; at this
scale we still assert the two acceptance claims — the device server
beating naive per-client assembly on seek distance at >= 4 concurrent
clients, and the result cache cutting repeat-round page faults by at
least 90% — because both are scale-independent on the deterministic
simulated disk.
"""

import json

from repro.bench.export import write_json
from repro.bench.figures import ALL_FIGURES
from repro.bench.regression import main as regression_main
from repro.bench.service import figure_service_cache, figure_service_scaling


def small_scaling():
    return figure_service_scaling(
        db_size=300,
        client_counts=(1, 2, 4),
        requests_per_client=2,
        roots_per_request=12,
    )


class TestScalingFigures:
    def test_device_server_beats_naive_at_four_clients(self):
        seek, throughput, latency = small_scaling()
        assert seek.figure_id == "Service S-1"
        assert not seek.violations
        naive = dict(seek.series["naive per-client"])
        server = dict(seek.series["device server"])
        assert server[4] < naive[4]

    def test_throughput_and_latency_shapes(self):
        _seek, throughput, latency = small_scaling()
        assert not throughput.violations
        assert not latency.violations
        assert set(latency.series) == {
            "naive per-client p50", "naive per-client p95",
            "device server p50", "device server p95",
        }
        # The service-clock percentiles ride along as notes.
        assert any("service ticks" in note for note in latency.notes)


class TestCacheFigure:
    def test_cache_cuts_repeat_faults_by_90_percent(self):
        figure = figure_service_cache(
            db_size=200, hot_roots=20, rounds=3, buffer_capacity=64
        )
        assert not figure.violations
        with_cache = figure.ys("with cache")
        no_cache = figure.ys("no cache")
        assert with_cache[0] == no_cache[0]  # identical warm round
        assert sum(with_cache[1:]) <= 0.10 * sum(no_cache[1:])


class TestRegistration:
    def test_service_figures_registered_for_the_cli(self):
        assert "service" in ALL_FIGURES


class TestRegressionCLI:
    def test_clean_and_regressed_exit_codes(self, tmp_path, capsys):
        figures = [figure_service_cache(
            db_size=120, hot_roots=10, rounds=2, buffer_capacity=64
        )]
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        write_json(figures, baseline)
        write_json(figures, current)
        assert regression_main([str(baseline), str(current)]) == 0
        assert "no regressions" in capsys.readouterr().out

        drifted = json.loads(current.read_text())
        drifted["figures"][0]["series"]["no cache"][0][1] *= 2
        current.write_text(json.dumps(drifted))
        assert regression_main([str(baseline), str(current)]) == 1
        assert "drifted" in capsys.readouterr().out
