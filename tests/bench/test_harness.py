"""Tests for the experiment harness."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    ExperimentConfig,
    build_layout,
    get_database,
    run_experiment,
)
from repro.cluster.layout import layout_database
from repro.cluster.policies import CLUSTERINGS, make_policy
from repro.errors import ReproError
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.clustering in CLUSTERINGS

    def test_unknown_clustering_rejected(self):
        with pytest.raises(ReproError):
            ExperimentConfig(clustering="zigzag")

    def test_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(Exception):
            config.window_size = 5


class TestDatabaseCache:
    def test_cache_returns_same_object(self, monkeypatch):
        monkeypatch.setattr(harness, "_DB_CACHE", {})
        first = get_database(10, seed=3)
        second = get_database(10, seed=3)
        assert first is second

    def test_cache_distinguishes_parameters(self, monkeypatch):
        monkeypatch.setattr(harness, "_DB_CACHE", {})
        assert get_database(10, seed=3) is not get_database(10, sharing=0.1, seed=3)


class TestMakePolicy:
    def test_policies_by_name(self):
        for name in CLUSTERINGS:
            _db, layout = build_layout(
                ExperimentConfig(clustering=name, n_complex_objects=10)
            )
            assert layout.policy_name == name

    def test_inter_object_uses_df_friendly_order(self):
        db, layout = build_layout(
            ExperimentConfig(clustering="inter-object", n_complex_objects=10)
        )
        by_start = sorted(layout.extents, key=lambda n: layout.extents[n].start)
        assert by_start == [
            f"type-{type_id}" for type_id in db.type_ids_depth_first()
        ]


class TestLayoutCache:
    """One config laid out on disks of three geometries: a cached or
    restored layout must equal a cold ``layout_database`` on each."""

    CONFIG = ExperimentConfig(n_complex_objects=30, seed=2, cluster_pages=16)
    DISKS = (
        lambda: MultiDeviceDisk(n_devices=2, pages_per_device=200),
        lambda: MultiDeviceDisk(n_devices=4, pages_per_device=100),
        CostedDisk,
    )

    def _cold(self, disk):
        db = get_database(
            self.CONFIG.n_complex_objects, seed=self.CONFIG.seed
        )
        return layout_database(
            db.complex_objects,
            ObjectStore(disk, BufferManager(disk)),
            make_policy(
                self.CONFIG.clustering,
                cluster_pages=self.CONFIG.cluster_pages,
                disk_order=db.type_ids_depth_first(),
            ),
            shared=db.shared_pool,
        )

    @staticmethod
    def _state(layout):
        return (
            layout.store.disk.dump_state(),
            layout.root_order,
            layout.extents,
        )

    def test_each_geometry_gets_its_own_layout(self, monkeypatch):
        monkeypatch.setattr(harness, "_LAYOUT_SNAPSHOTS", {})
        colds = [self._state(self._cold(make())) for make in self.DISKS]
        assert colds[0][0] != colds[1][0]  # striping moves the pages
        for _round in ("build", "restore"):
            for make, cold in zip(self.DISKS, colds):
                _db, layout = build_layout(self.CONFIG, make())
                assert self._state(layout) == cold


class TestRunExperiment:
    def test_small_run_metrics(self):
        result = run_experiment(
            ExperimentConfig(
                n_complex_objects=20,
                clustering="unclustered",
                scheduler="elevator",
                window_size=4,
            )
        )
        assert result.emitted == 20
        assert result.aborted == 0
        assert result.fetches == 140
        assert result.reads > 0
        assert result.avg_seek > 0
        assert result.re_reads == 0  # unbounded buffer

    def test_selectivity_run(self):
        result = run_experiment(
            ExperimentConfig(
                n_complex_objects=50,
                clustering="unclustered",
                window_size=4,
                selectivity=0.5,
                cluster_pages=16,
            )
        )
        assert result.emitted + result.aborted == 50
        assert 0 < result.emitted < 50

    def test_runs_are_independent(self):
        config = ExperimentConfig(
            n_complex_objects=15, clustering="unclustered", window_size=3
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.avg_seek == second.avg_seek
        assert first.reads == second.reads
