"""Tests for parallel assembly and the exclusive-device problem."""

import pytest

from repro.service.device_server import DeviceServerAssembly
from repro.volcano.assembly import InterleavedAssemblies
from repro.errors import AssemblyError
from repro.workloads.acob import make_template

from repro.bench.harness import ExperimentConfig, build_layout


def build(n=200, scheduler="elevator"):
    config = ExperimentConfig(
        n_complex_objects=n,
        clustering="inter-object",
        scheduler=scheduler,
        window_size=48,
        cluster_pages=64,
    )
    db, layout = build_layout(config)
    return db, layout


class TestInterleavedAssemblies:
    def test_assembles_everything(self):
        db, layout = build()
        op = InterleavedAssemblies(
            layout.root_order, layout.store, make_template(db),
            n_partitions=4, window_size=48,
        )
        emitted = op.execute()
        assert len(emitted) == 200
        assert {c.root_oid for c in emitted} == set(layout.roots)
        for cobj in emitted:
            cobj.verify_swizzled()
        assert sum(cobj.fetches for cobj in emitted) == 200 * 7

    def test_contention_grows_with_partitions(self):
        """Section 7: independent queues break the exclusive-control
        assumption; seeks degrade as partitions multiply."""
        seeks = {}
        for k in (1, 4):
            db, layout = build()
            op = InterleavedAssemblies(
                layout.root_order, layout.store, make_template(db),
                n_partitions=k, window_size=48,
            )
            op.execute()
            seeks[k] = layout.store.disk.stats.avg_seek_per_read
        assert seeks[4] > seeks[1] * 1.5

    def test_zero_partitions_rejected(self):
        db, layout = build(n=10)
        with pytest.raises(AssemblyError):
            InterleavedAssemblies(
                layout.root_order, layout.store, make_template(db),
                n_partitions=0,
            )

    def test_pins_released(self):
        db, layout = build(n=60)
        op = InterleavedAssemblies(
            layout.root_order, layout.store, make_template(db),
            n_partitions=3, window_size=12,
        )
        op.execute()
        assert layout.store.buffer.pinned_pages == 0


class TestDeviceServerAssembly:
    def test_assembles_everything(self):
        db, layout = build()
        op = DeviceServerAssembly(
            layout.root_order, layout.store, make_template(db),
            n_partitions=4, window_size=48,
        )
        emitted = op.execute()
        assert len(emitted) == 200
        assert sum(cobj.fetches for cobj in emitted) == 200 * 7

    def test_server_restores_single_queue_performance(self):
        """The server-per-device architecture re-establishes exclusive
        control: K partitions cost the same as one."""
        db, layout = build()
        single = InterleavedAssemblies(
            layout.root_order, layout.store, make_template(db),
            n_partitions=1, window_size=48,
        )
        single.execute()
        single_seek = layout.store.disk.stats.avg_seek_per_read

        db, layout = build()
        server = DeviceServerAssembly(
            layout.root_order, layout.store, make_template(db),
            n_partitions=4, window_size=48,
        )
        server.execute()
        server_seek = layout.store.disk.stats.avg_seek_per_read

        db, layout = build()
        independent = InterleavedAssemblies(
            layout.root_order, layout.store, make_template(db),
            n_partitions=4, window_size=48,
        )
        independent.execute()
        independent_seek = layout.store.disk.stats.avg_seek_per_read

        assert server_seek <= single_seek * 1.1
        assert server_seek < independent_seek

    def test_round_robin_merge_preserves_all_roots(self):
        db, layout = build(n=33)
        op = DeviceServerAssembly(
            layout.root_order, layout.store, make_template(db),
            n_partitions=5, window_size=10,
        )
        emitted = op.execute()
        assert {c.root_oid for c in emitted} == set(layout.roots)
