"""The pipelined (completion-driven) assembly driver.

Two families of guarantees:

* **Equivalence** — the pipelined driver emits exactly what the
  synchronous loop emits, for every scheduler, clustering, issue depth
  and batch size (including selective assembly and the pin-bound
  fallback path).
* **Exactness** — with one device, issue depth 1 and batch 1 the event
  clock reproduces the synchronous :class:`CostedDisk` service-time
  total *bit-for-bit* (property-tested across schedulers and
  clusterings).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import (
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.core.schedulers import make_scheduler
from repro.errors import AssemblyError
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk, CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import (
    generate_acob,
    make_template,
    payload_predicate,
)

SCHEDULERS = ("depth-first", "breadth-first", "elevator")
CLUSTERINGS = ("inter-object", "intra-object", "unclustered")


def make_policy(name):
    if name == "inter-object":
        return InterObjectClustering(cluster_pages=64)
    if name == "intra-object":
        return IntraObjectClustering()
    return Unclustered()


def build_single(
    n=60, clustering="inter-object", scheduler="elevator",
    window=8, selectivity=None, buffer_capacity=None,
):
    db = generate_acob(n, seed=2)
    disk = CostedDisk(n_pages=4096)
    store = ObjectStore(disk, BufferManager(disk, capacity=buffer_capacity))
    layout = layout_database(
        db.complex_objects, store, make_policy(clustering),
        shared=db.shared_pool,
    )
    template = make_template(
        db,
        predicate_position=2 if selectivity is not None else None,
        predicate=(
            payload_predicate(selectivity)
            if selectivity is not None
            else None
        ),
    )
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        template,
        window_size=window,
        scheduler=make_scheduler(
            scheduler,
            head_fn=lambda: disk.head_position,
            resident_fn=store.buffer.is_resident,
        ),
    )
    return disk, store, operator


def pipelined(disk, operator, issue_depth=1, batch_pages=1, cpu=0.0):
    engine = AsyncIOEngine(disk, disk.cost_model)
    driver = PipelinedAssembly(
        operator,
        engine,
        issue_depth=issue_depth,
        batch_pages=batch_pages,
        cpu_ms_per_ref=cpu,
    )
    return engine, driver, driver.run()


class TestValidation:
    def test_bad_parameters(self):
        disk, _store, operator = build_single(n=5)
        engine = AsyncIOEngine(disk, disk.cost_model)
        with pytest.raises(AssemblyError):
            PipelinedAssembly(operator, engine, issue_depth=0)
        with pytest.raises(AssemblyError):
            PipelinedAssembly(operator, engine, batch_pages=0)
        with pytest.raises(AssemblyError):
            PipelinedAssembly(operator, engine, cpu_ms_per_ref=-1.0)

    def test_engine_must_drive_the_same_disk(self):
        disk, _store, operator = build_single(n=5)
        other = AsyncIOEngine(CostedDisk(n_pages=64))
        with pytest.raises(AssemblyError):
            PipelinedAssembly(operator, other)


class TestEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_same_output_as_synchronous(self, scheduler):
        _disk, _store, sync_op = build_single(scheduler=scheduler)
        expected = sync_op.execute()
        disk, store, operator = build_single(scheduler=scheduler)
        _engine, _driver, emitted = pipelined(disk, operator)
        assert [c.root.oid for c in emitted] == [
            c.root.oid for c in expected
        ]
        for cobj in emitted:
            cobj.verify_swizzled()
        assert store.buffer.pinned_pages == 0

    def test_deep_issue_and_batching_same_objects(self):
        _disk, _store, sync_op = build_single()
        expected = sorted(c.root.oid for c in sync_op.execute())
        disk, store, operator = build_single()
        engine, driver, emitted = pipelined(
            disk, operator, issue_depth=3, batch_pages=4, cpu=0.1
        )
        assert sorted(c.root.oid for c in emitted) == expected
        assert driver.stats.max_in_flight > 1
        assert store.buffer.pinned_pages == 0

    def test_selective_assembly_same_survivors(self):
        _disk, _store, sync_op = build_single(selectivity=0.5)
        expected = sorted(c.root.oid for c in sync_op.execute())
        disk, _store2, operator = build_single(selectivity=0.5)
        _engine, _driver, emitted = pipelined(
            disk, operator, issue_depth=2, batch_pages=4
        )
        assert sorted(c.root.oid for c in emitted) == expected
        assert operator.stats.aborted > 0

    def test_pin_bound_fallback_still_correct(self):
        _disk, _store, sync_op = build_single(window=4)
        expected = sorted(c.root.oid for c in sync_op.execute())
        # A buffer barely above the window's pin bound: wide batches
        # cannot be admitted atomically and must fall back.
        disk, store, operator = build_single(window=4, buffer_capacity=30)
        _engine, driver, emitted = pipelined(
            disk, operator, issue_depth=2, batch_pages=16
        )
        assert sorted(c.root.oid for c in emitted) == expected
        assert store.buffer.pinned_pages == 0


class TestElapsedTime:
    def test_multi_device_overlap_beats_single(self):
        def run(n_devices):
            db = generate_acob(200, seed=2)
            disk = MultiDeviceDisk(
                n_devices=n_devices,
                pages_per_device=(7 * 64) // n_devices + 128,
            )
            store = ObjectStore(disk, BufferManager(disk))
            layout = layout_database(
                db.complex_objects, store,
                InterObjectClustering(
                    cluster_pages=64,
                    disk_order=db.type_ids_depth_first(),
                ),
                shared=db.shared_pool,
            )
            operator = Assembly(
                ListSource(layout.root_order),
                store,
                make_template(db),
                window_size=20 * n_devices,
                scheduler=MultiDeviceScheduler(disk),
            )
            engine = AsyncIOEngine(disk, CostModel())
            driver = PipelinedAssembly(
                operator, engine, issue_depth=2, batch_pages=4
            )
            emitted = driver.run()
            assert len(emitted) == 200
            return engine

        single = run(1)
        striped = run(4)
        assert striped.elapsed < single.elapsed
        # One device cannot overlap anything: elapsed == busy.
        assert single.elapsed == single.busy_time()
        # Four devices genuinely overlap: elapsed < summed busy time.
        assert striped.elapsed < striped.busy_time()

    def test_cpu_hidden_by_issue_depth(self):
        def run(depth):
            disk, _store, operator = build_single(n=80, window=12)
            engine, _driver, emitted = pipelined(
                disk, operator, issue_depth=depth, batch_pages=2, cpu=0.5
            )
            assert len(emitted) == 80
            return engine.elapsed

        assert run(2) < run(1)


class TestExactness:
    def test_elevator_matches_costed_disk_exactly(self):
        _disk, _store, sync_op = build_single(n=80)
        sync_out = sync_op.execute()
        sync_disk = _disk
        disk, _store2, operator = build_single(n=80)
        engine, _driver, emitted = pipelined(disk, operator)
        assert engine.elapsed == sync_disk.service_time_total
        assert disk.service_time_total == sync_disk.service_time_total
        assert len(emitted) == len(sync_out)

    @settings(max_examples=10, deadline=None)
    @given(
        scheduler=st.sampled_from(SCHEDULERS),
        clustering=st.sampled_from(CLUSTERINGS),
        window=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=10, max_value=40),
    )
    def test_depth_one_is_bitwise_synchronous(
        self, scheduler, clustering, window, n
    ):
        """One device, issue depth 1, batch 1: the event clock equals
        the synchronous service-time fold bit-for-bit."""
        sync_disk, _store, sync_op = build_single(
            n=n, clustering=clustering, scheduler=scheduler, window=window
        )
        sync_out = sync_op.execute()
        disk, store, operator = build_single(
            n=n, clustering=clustering, scheduler=scheduler, window=window
        )
        engine, _driver, emitted = pipelined(disk, operator)
        assert engine.elapsed == sync_disk.service_time_total
        assert disk.service_time_total == sync_disk.service_time_total
        assert [c.root.oid for c in emitted] == [
            c.root.oid for c in sync_out
        ]
        assert store.buffer.pinned_pages == 0
