"""Tests for the service-time cost model."""

import pytest

from repro.storage.costmodel import CostModel, CostedDisk


def price(monkeypatch, **prices):
    """Reprice every :class:`CostModel` for one test."""
    for name, value in prices.items():
        monkeypatch.setattr(CostModel, name, value)


class TestCostModel:
    def test_service_time_components(self, monkeypatch):
        price(
            monkeypatch,
            seek_per_page=0.1, settle=2.0, rotational_latency=5.0, transfer=1.0,
        )
        model = CostModel()
        # Zero-distance read: no positioning at all.
        assert model.run_service_time(0, 1) == pytest.approx(6.0)
        # 10-page seek: settle + 10*0.1 + rotation + transfer.
        assert model.run_service_time(10, 1) == pytest.approx(
            2.0 + 1.0 + 5.0 + 1.0
        )

    def test_seek_only_degenerates_to_distance(self, monkeypatch):
        price(
            monkeypatch,
            seek_per_page=1.0, settle=0.0, rotational_latency=0.0, transfer=0.0,
        )
        model = CostModel()
        assert model.run_service_time(0, 1) == 0.0
        assert model.run_service_time(37, 1) == 37.0


class TestCostedDisk:
    def test_accumulates_service_time(self, monkeypatch):
        price(
            monkeypatch,
            seek_per_page=1.0, settle=0.0, rotational_latency=2.0, transfer=0.0,
        )
        disk = CostedDisk()
        disk.read(10)  # 10 + 2
        disk.read(10)  # 0 + 2
        assert disk.service_time_total == pytest.approx(14.0)
        assert disk.avg_service_time_per_read == pytest.approx(7.0)

    def test_empty_average(self):
        assert CostedDisk().avg_service_time_per_read == 0.0

    def test_reset_clears_service_time(self):
        disk = CostedDisk()
        disk.read(5)
        disk.reset_stats()
        assert disk.service_time_total == 0.0
        assert disk.stats.reads == 0

    def test_seek_stats_still_tracked(self):
        disk = CostedDisk()
        disk.read(8)
        assert disk.stats.read_seek_total == 8

    def test_seek_only_model_matches_seek_metric(self, monkeypatch):
        price(
            monkeypatch,
            seek_per_page=1.0, settle=0.0, rotational_latency=0.0, transfer=0.0,
        )
        disk = CostedDisk()
        for page in (5, 20, 7):
            disk.read(page)
        assert disk.service_time_total == pytest.approx(
            disk.stats.read_seek_total
        )
