"""The fault injector itself: gating, determinism, disk invariants."""

from __future__ import annotations

import pytest

from repro.errors import (
    DeviceDownError,
    DiskError,
    TransientReadError,
)
from repro.storage.costmodel import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import DownInterval, FaultConfig, FaultInjector
from repro.storage.multidisk import MultiDeviceDisk


def make_disk(n_pages=64):
    return SimulatedDisk(n_pages=n_pages)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DiskError):
            FaultConfig(read_error_rate=1.5)
        with pytest.raises(DiskError):
            FaultConfig(latency_spike_rate=-0.1)
        with pytest.raises(DiskError):
            FaultConfig(latency_spike_ms=-1.0)
        with pytest.raises(DiskError):
            FaultConfig(max_consecutive_failures=0)
        with pytest.raises(DiskError):
            DownInterval(device=0, start=5.0, end=5.0)
        with pytest.raises(DiskError):
            DownInterval(device=-1, start=0.0, end=1.0)


class TestAttachment:
    def test_attach_detach(self):
        disk = make_disk()
        injector = FaultInjector(FaultConfig()).attach(disk)
        assert disk.fault_injector is injector
        injector.detach()
        assert disk.fault_injector is None

    def test_double_attach_rejected(self):
        disk = make_disk()
        FaultInjector(FaultConfig()).attach(disk)
        with pytest.raises(DiskError):
            FaultInjector(FaultConfig()).attach(disk)

    def test_detached_disk_is_fault_free(self):
        disk = make_disk()
        injector = FaultInjector(
            FaultConfig(always_fail_pages=frozenset({1}))
        ).attach(disk)
        with pytest.raises(TransientReadError):
            disk.read(1)
        injector.detach()
        disk.read(1)  # no longer gated


class TestNoOpAtRateZero:
    def test_idle_injector_changes_nothing(self):
        """An attached injector with all rates zero is invisible:
        identical stats, head positions and page payloads."""
        plain = make_disk()
        gated = make_disk()
        injector = FaultInjector(FaultConfig()).attach(gated)
        sequence = [5, 17, 3, 40, 3, 22]
        for page in sequence:
            a = plain.read(page)
            b = gated.read(page)
            assert a.page_id == b.page_id
        assert plain.stats.read_seeks == gated.stats.read_seeks
        assert plain.head_position == gated.head_position
        assert injector.stats.reads_seen == len(sequence)
        assert injector.stats.transient_errors == 0
        assert injector.injected_ms_total == 0.0
        assert injector.schedule == []


class TestFailedAttemptLeavesDiskUntouched:
    def test_no_seek_no_stats_on_fault(self):
        disk = make_disk()
        FaultInjector(
            FaultConfig(always_fail_pages=frozenset({30}))
        ).attach(disk)
        disk.read(10)
        head = disk.head_position
        stats = disk.stats.snapshot()
        with pytest.raises(TransientReadError):
            disk.read(30)
        assert disk.head_position == head
        assert disk.stats.reads == stats.reads
        assert disk.stats.read_seek_total == stats.read_seek_total

    def test_retried_read_charges_the_original_seek(self):
        plain = make_disk()
        gated = make_disk()
        FaultInjector(
            FaultConfig(read_error_rate=0.4, seed=7)
        ).attach(gated)
        for page in [9, 41, 2, 33, 12]:
            plain.read(page)
            while True:
                try:
                    gated.read(page)
                    break
                except TransientReadError:
                    continue
        assert gated.stats.read_seeks == plain.stats.read_seeks


class TestConsecutiveBound:
    def test_bound_forces_success(self):
        disk = make_disk()
        injector = FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({5}),
                max_consecutive_failures=3,
            )
        ).attach(disk)
        failures = 0
        for _ in range(10):
            try:
                disk.read(5)
                break
            except TransientReadError:
                failures += 1
        assert failures == 3
        assert injector.stats.transient_errors == 3
        # After the success the counter resets: it can fail again.
        with pytest.raises(TransientReadError):
            disk.read(5)

    def test_unbounded_always_fails(self):
        disk = make_disk()
        FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({5}),
                max_consecutive_failures=None,
            )
        ).attach(disk)
        for _ in range(20):
            with pytest.raises(TransientReadError):
                disk.read(5)

    def test_error_carries_page_and_attempt(self):
        disk = make_disk()
        FaultInjector(
            FaultConfig(always_fail_pages=frozenset({5}))
        ).attach(disk)
        with pytest.raises(TransientReadError) as first:
            disk.read(5)
        with pytest.raises(TransientReadError) as second:
            disk.read(5)
        assert first.value.page_id == 5
        assert first.value.attempt == 1
        assert second.value.attempt == 2


class TestDownIntervals:
    def test_outage_rejects_then_expires_on_op_clock(self):
        """Without a bound clock the injector counts attempts, so an
        outage ends after enough (failed) attempts."""
        disk = make_disk()
        injector = FaultInjector(
            FaultConfig(down_intervals=(DownInterval(0, 0.0, 4.0),))
        ).attach(disk)
        rejections = 0
        for _ in range(10):
            try:
                disk.read(7)
            except DeviceDownError as exc:
                assert exc.device == 0
                assert exc.retry_after == 4.0
                rejections += 1
        assert rejections == 3  # ops 1..3 fall inside [0, 4)
        assert injector.stats.down_rejections == 3

    def test_outage_scoped_to_one_device(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=32)
        FaultInjector(
            FaultConfig(down_intervals=(DownInterval(1, 0.0, 100.0),))
        ).attach(disk)
        disk.read(0)  # device 0 unaffected
        with pytest.raises(DeviceDownError):
            disk.read(disk.pages_per_device)  # first page of device 1

    def test_next_recovery(self):
        injector = FaultInjector(
            FaultConfig(down_intervals=(DownInterval(0, 2.0, 9.0),))
        )
        assert injector.next_recovery(0, 5.0) == 9.0
        assert injector.next_recovery(0, 9.0) is None
        assert injector.next_recovery(1, 5.0) is None


class TestSpikesAndEngine:
    def test_spikes_accumulate_injected_time(self):
        disk = make_disk()
        injector = FaultInjector(
            FaultConfig(latency_spike_rate=1.0, latency_spike_ms=10.0)
        ).attach(disk)
        for page in range(5):
            disk.read(page)
        assert injector.stats.latency_spikes == 5
        assert injector.injected_ms_total == 50.0

    def test_engine_folds_spikes_into_elapsed(self):
        def run(spike_rate):
            disk = make_disk()
            injector = FaultInjector(
                FaultConfig(
                    latency_spike_rate=spike_rate, latency_spike_ms=10.0
                )
            ).attach(disk)
            engine = AsyncIOEngine(disk, CostModel())
            for page in range(5):
                engine.issue(
                    0, lambda p=page: [disk.read(p)], payload=None
                )
            while not engine.idle():
                engine.wait_next()
            return engine, injector

        clean, _ = run(0.0)
        spiky, injector = run(1.0)
        assert injector.stats.latency_spikes == 5
        assert spiky.elapsed == clean.elapsed + 50.0

    def test_engine_binds_the_event_clock(self):
        disk = make_disk()
        injector = FaultInjector(FaultConfig()).attach(disk)
        assert injector.now == 0.0
        engine = AsyncIOEngine(disk, CostModel())
        engine.issue(0, lambda: [disk.read(3)], payload=None)
        while not engine.idle():
            engine.wait_next()
        assert injector.now == engine.clock.now > 0.0

    def test_charge_backoff_validates(self):
        injector = FaultInjector(FaultConfig())
        with pytest.raises(DiskError):
            injector.charge_backoff(-1.0)
        injector.charge_backoff(2.5)
        assert injector.stats.backoff_ms == 2.5
        assert injector.injected_ms_total == 2.5
