"""The pipelined driver under device outages and exhausted retries."""

from __future__ import annotations

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.errors import FaultError
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import (
    DownInterval,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def build(n=40, n_devices=2, config=None, issue_retry=None, op_retry=None,
          window=None, issue_depth=2):
    db = generate_acob(n, seed=2)
    disk = MultiDeviceDisk(n_devices=n_devices, pages_per_device=2048)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    injector = None
    if config is not None:
        injector = FaultInjector(config).attach(disk)
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window or 4 * n_devices,
        scheduler=MultiDeviceScheduler(disk),
        retry_policy=op_retry,
    )
    engine = AsyncIOEngine(disk, CostModel())
    driver = PipelinedAssembly(
        operator, engine, issue_depth=issue_depth, batch_pages=4,
        retry_policy=issue_retry,
    )
    return injector, engine, driver, operator, store


class TestDeviceDown:
    def test_outage_requeues_quarantines_and_recovers(self):
        outage = DownInterval(device=1, start=0.0, end=500.0)
        injector, engine, driver, operator, store = build(
            config=FaultConfig(down_intervals=(outage,)),
            issue_retry=RetryPolicy(max_retries=2),
            op_retry=RetryPolicy(max_retries=2),
        )
        emitted = driver.run()
        assert len(emitted) == 40
        assert injector.stats.down_rejections > 0
        assert driver.stats.fault_requeues > 0
        assert driver.health.total_quarantines() >= 1
        # The successful post-recovery read closed the breaker again.
        assert driver.health.available(1, engine.clock.now)
        # The run could not finish before the outage lifted.
        assert engine.elapsed > 500.0
        assert store.buffer.pinned_pages == 0

    def test_waiting_out_an_outage_when_nothing_else_pends(self):
        """With every pending device down, the driver advances the
        event clock to the recovery instead of spinning or dying."""
        outage = DownInterval(device=0, start=0.0, end=300.0)
        injector, engine, driver, _operator, _store = build(
            n=10, n_devices=1,
            config=FaultConfig(down_intervals=(outage,)),
            issue_retry=RetryPolicy(max_retries=2),
            op_retry=RetryPolicy(max_retries=2),
        )
        emitted = driver.run()
        assert len(emitted) == 10
        assert driver.stats.quarantine_wait_ms > 0
        assert engine.wait_time > 0
        assert engine.elapsed >= 300.0

    def test_output_matches_fault_free_run(self):
        _inj, _eng, clean_driver, _op, _store = build()
        expected = sorted(c.root_oid for c in clean_driver.run())
        outage = DownInterval(device=1, start=0.0, end=400.0)
        _inj2, _eng2, driver, _op2, _store2 = build(
            config=FaultConfig(down_intervals=(outage,)),
            issue_retry=RetryPolicy(max_retries=2),
            op_retry=RetryPolicy(max_retries=2),
        )
        assert sorted(c.root_oid for c in driver.run()) == expected


class TestExhaustedIssueRetries:
    def test_sync_fallback_lets_the_operator_policy_decide(self):
        """Zero issue-time retries force the synchronous fallback,
        where the operator's own (generous) policy still recovers."""
        injector, _engine, driver, operator, store = build(
            config=FaultConfig(
                seed=9, read_error_rate=0.1, max_consecutive_failures=2
            ),
            issue_retry=RetryPolicy(max_retries=0),
            op_retry=RetryPolicy(max_retries=3),
        )
        emitted = driver.run()
        assert len(emitted) == 40
        assert injector.stats.transient_errors > 0
        assert driver.stats.fault_fallbacks > 0
        assert operator.stats.fault_retries > 0
        assert store.buffer.pinned_pages == 0

    def test_issue_time_retries_absorb_faults(self):
        injector, _engine, driver, operator, store = build(
            config=FaultConfig(
                seed=9, read_error_rate=0.1, max_consecutive_failures=2
            ),
            issue_retry=RetryPolicy(max_retries=3),
            op_retry=RetryPolicy(max_retries=3),
        )
        emitted = driver.run()
        assert len(emitted) == 40
        assert driver.stats.fault_retries > 0
        # Generous issue-time retries mean no fallback was needed.
        assert driver.stats.fault_fallbacks == 0
        assert store.buffer.pinned_pages == 0


class TestEscapingFault:
    def test_in_flight_pins_are_handed_back(self):
        """With no retry policy the first fault leaves ``run`` while
        other requests are in flight; closing the operator must then
        find every prefetch pin already returned."""
        _inj, _engine, driver, operator, store = build(
            n=120, n_devices=4, window=32, issue_depth=3,
            config=FaultConfig(
                seed=0, read_error_rate=0.05, max_consecutive_failures=2
            ),
        )
        with pytest.raises(FaultError):
            driver.run()
        operator.close()
        assert store.buffer.pinned_pages == 0
