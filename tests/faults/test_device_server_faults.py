"""The device server under faults: the synchronous sweep."""

from __future__ import annotations

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.errors import FaultError
from repro.service.device_server import DeviceServer
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    DownInterval,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob, make_template
from tests.service.test_device_server import drive


def build_striped(n=40, n_devices=4, config=None, register_kwargs=None):
    db = generate_acob(n, seed=2)
    disk = MultiDeviceDisk(
        n_devices=n_devices,
        pages_per_device=(7 * 64) // n_devices + 128,
    )
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    injector = None
    if config is not None:
        injector = FaultInjector(config).attach(disk)
    server = DeviceServer(store)
    template = make_template(db)
    kwargs = register_kwargs or {}
    half = n // 2
    first = server.register(layout.root_order[:half], template, **kwargs)
    second = server.register(layout.root_order[half:], template, **kwargs)
    return injector, store, server, first, second


def build_faulty(disk, n):
    """``n`` objects on ``disk`` under a 5 % transient read-error rate."""
    db = generate_acob(n, seed=2)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    FaultInjector(
        FaultConfig(seed=0, read_error_rate=0.05, max_consecutive_failures=2)
    ).attach(disk)
    server = DeviceServer(store)
    return store, server, layout.root_order, make_template(db)


class TestSynchronousSweep:
    def test_transient_faults_retried_same_results(self):
        _inj, _store, server, first, second = build_striped()
        drive(server)
        expected = sorted(c.root.oid for c in first.output + second.output)

        injector, store, server, first, second = build_striped(
            config=FaultConfig(
                seed=3, read_error_rate=0.1, max_consecutive_failures=2
            ),
            register_kwargs=dict(retry_policy=RetryPolicy(max_retries=2)),
        )
        drive(server)
        assert injector.stats.transient_errors > 0
        assert first.finished and second.finished
        got = sorted(c.root.oid for c in first.output + second.output)
        assert got == expected
        # The faults were absorbed by per-reference fetch retries.
        retried = (
            first.assembly.stats.fault_retries
            + second.assembly.stats.fault_retries
        )
        assert retried > 0
        assert store.buffer.pinned_pages == 0

    def test_outage_waited_out_on_the_op_clock(self):
        """On the synchronous path only attempts tick the injector's
        op clock, so a retry budget covering the outage length ends
        it — each rejected probe advances the clock by one."""
        injector, store, server, first, second = build_striped(
            config=FaultConfig(
                down_intervals=(DownInterval(device=1, start=0.0, end=40.0),)
            ),
            register_kwargs=dict(retry_policy=RetryPolicy(max_retries=60)),
        )
        drive(server)
        assert first.finished and second.finished
        assert len(first.output) + len(second.output) == 40
        assert injector.stats.down_rejections > 0
        assert store.buffer.pinned_pages == 0

    def test_fail_fast_fault_leaves_other_queries_whole(self):
        """When one client's fail-fast fault escapes ``step``, every
        other client's references are still in the pool."""
        store, server, roots, template = build_faulty(SimulatedDisk(), 200)
        failing = server.register(roots[0::2], template, window_size=32)
        other = server.register(
            roots[1::2], template, window_size=32,
            retry_policy=RetryPolicy(max_retries=4),
        )
        with pytest.raises(FaultError):
            drive(server)
        server.deregister(failing.query_id)
        assert server.pending_of(other.query_id) == server.pending_total()
        drive(server)
        assert other.finished and len(other.output) == 100
        assert store.buffer.pinned_pages == 0

    def test_queries_share_one_health_tracker(self):
        _inj, _store, server, first, second = build_striped()
        assert first.assembly._health is server.health
        assert second.assembly._health is server.health

