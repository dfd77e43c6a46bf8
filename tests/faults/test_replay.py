"""Deterministic replay: the same seed reproduces the same chaos.

The injector is the only randomness in a faulted run, and it is
seeded; replaying an identical configuration against an identical
access sequence must reproduce the fault schedule, every counter and
— under the event engine — the elapsed time, bit for bit.  A
different seed must (for these rates) produce a different schedule.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def faulted_pipelined_run(fault_seed, n=40):
    db = generate_acob(n, seed=2)
    disk = MultiDeviceDisk(n_devices=2, pages_per_device=2048)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    injector = FaultInjector(
        FaultConfig(
            seed=fault_seed,
            read_error_rate=0.1,
            latency_spike_rate=0.05,
            max_consecutive_failures=2,
        )
    ).attach(disk)
    retry = RetryPolicy(max_retries=2)
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=8,
        scheduler=MultiDeviceScheduler(disk),
        retry_policy=retry,
    )
    engine = AsyncIOEngine(disk, CostModel())
    driver = PipelinedAssembly(
        operator, engine, issue_depth=2, batch_pages=4, retry_policy=retry
    )
    emitted = driver.run()
    return injector, engine, driver, operator, emitted


class TestReplay:
    def test_same_seed_same_everything(self):
        a_inj, a_eng, a_drv, a_op, a_out = faulted_pipelined_run(77)
        b_inj, b_eng, b_drv, b_op, b_out = faulted_pipelined_run(77)

        assert a_inj.schedule == b_inj.schedule
        assert a_inj.stats.as_dict() == b_inj.stats.as_dict()
        assert a_eng.elapsed == b_eng.elapsed
        assert a_eng.busy_time() == b_eng.busy_time()
        assert asdict(a_op.stats) == asdict(b_op.stats)
        assert a_drv.stats.fault_retries == b_drv.stats.fault_retries
        assert a_drv.stats.fault_fallbacks == b_drv.stats.fault_fallbacks
        assert [c.root_oid for c in a_out] == [c.root_oid for c in b_out]
        assert a_drv.health.snapshot() == b_drv.health.snapshot()

    def test_different_seed_different_schedule(self):
        a_inj, a_eng, *_ = faulted_pipelined_run(77)
        c_inj, c_eng, *_ = faulted_pipelined_run(78)
        assert a_inj.schedule != c_inj.schedule

    def test_schedule_entries_are_replayable_records(self):
        injector, _eng, _drv, _op, _out = faulted_pipelined_run(77)
        assert injector.schedule, "this seed must inject something"
        for entry in injector.schedule:
            kind, op = entry[0], entry[1]
            assert kind in ("transient", "spike", "down")
            assert isinstance(op, int) and op >= 1
        # The log is ordered by the op counter.
        ops = [entry[1] for entry in injector.schedule]
        assert ops == sorted(ops)
