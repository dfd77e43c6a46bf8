"""A dropped stack is freed by reference counting, all of it.

A stack that sits in a reference cycle waits for the cycle collector:
its disk's page images and its buffer pages stay in memory until the
next full collection, which then pays to walk them.  Each test builds a
small stack, runs it to completion, drops it, and collects under
``gc.DEBUG_SAVEALL`` — which keeps everything the collector found
unreachable in ``gc.garbage`` — with automatic collection off in
between, so no cycle escapes the count.  Nothing may be there, of any
type: not the disk, its read taps or its ledger, not the fault
injector, the span recorder's clock or an attached device timeline,
and not the generated database definitions.
"""

import gc

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.cluster.reorg import ReorgPolicy
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.fabric import HedgePolicy, build_sharded_fabric, open_loop_workload
from repro.iterator import ListSource
from repro.obs.devices import DeviceIOTimeline
from repro.obs.spans import SpanRecorder
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.volcano.aggregate import HashAggregate
from repro.volcano.assembly import ComponentFilter
from repro.volcano.plan import push_down_component_filters
from repro.workloads.acob import generate_acob, make_template, payload_predicate


def small_stack(disk=None):
    db = generate_acob(20, sharing=0.25, seed=1)
    disk = CostedDisk() if disk is None else disk
    store = ObjectStore(disk, BufferManager(disk, capacity=64))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=16, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    return db, disk, store, layout


def cyclic_garbage(run):
    """Everything that only the cycle collector frees once ``run``'s
    stack is dropped, counted by type name."""
    gc.collect()
    gc.disable()
    try:
        assert run() > 0  # the stack did its work, then went out of scope
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = {}
        for obj in gc.garbage:
            name = type(obj).__qualname__
            found[name] = found.get(name, 0) + 1
        return found
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_generating_a_database():
    def run():
        return len(generate_acob(20, seed=1).complex_objects)

    assert cyclic_garbage(run) == {}


@pytest.mark.parametrize("batch_pages", [1, 4])
def test_assembly(batch_pages):
    def run():
        db, _disk, store, layout = small_stack()
        operator = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4, batch_pages=batch_pages,
        )
        return len(operator.execute())

    assert cyclic_garbage(run) == {}


def pipelined_run(faults):
    """``PipelinedAssembly`` over a two-device disk, optionally behind a
    fault injector (which the engine binds to its clock)."""
    disk = MultiDeviceDisk(n_devices=2, pages_per_device=1024)
    db, disk, store, layout = small_stack(disk)
    if faults:
        FaultInjector(
            FaultConfig(seed=3, read_error_rate=0.2, max_consecutive_failures=2)
        ).attach(disk)
    operator = Assembly(
        ListSource(layout.root_order), store, make_template(db),
        window_size=4, scheduler=MultiDeviceScheduler(disk),
        retry_policy=RetryPolicy(max_retries=3),
    )
    driver = PipelinedAssembly(
        operator, AsyncIOEngine(disk),
        issue_depth=2, batch_pages=2,
        retry_policy=RetryPolicy(max_retries=3),
    )
    return len(driver.run())


def test_pipelined_assembly():
    assert cyclic_garbage(lambda: pipelined_run(faults=False)) == {}


def test_pipelined_assembly_with_a_fault_injector():
    assert cyclic_garbage(lambda: pipelined_run(faults=True)) == {}


def test_service_with_cache_and_reorg():
    """With a span recorder too: its clock must not cycle the service."""

    def run():
        db, _disk, store, layout = small_stack()
        service = AssemblyService(
            store, cache_capacity=8, reorg_policy=ReorgPolicy(),
            span_recorder=SpanRecorder(),
        )
        template = make_template(db)
        service.submit(layout.root_order[:10], template)
        service.submit(layout.root_order[5:15], template)
        service.run()  # past min_observations: one round runs here
        service.submit(layout.root_order[:5], template)  # cache hits
        service.run()
        return service.metrics.requests_completed

    assert cyclic_garbage(run) == {}


def test_submitting_leaves_no_template_cycle():
    """``submit`` fingerprints the template; rendering the digest must
    not leave a cycle (a recursive local function is one) per call."""
    db, _disk, store, layout = small_stack()
    template = make_template(db)  # finalized, not yet fingerprinted

    def run():
        service = AssemblyService(store, cache_capacity=0)
        for start in range(0, 10, 2):
            service.submit(layout.root_order[start:start + 2], template)
        service.run()
        return service.metrics.requests_completed

    assert cyclic_garbage(run) == {}


def test_hedged_fabric():
    def run():
        fabric = build_sharded_fabric(
            generate_acob(20, seed=2),
            n_shards=2,
            replicas_per_shard=2,
            hedging=HedgePolicy(multiplier=1.0),
        )
        specs = open_loop_workload(
            fabric, [0.0, 0.0, 5.0, 5.0, 10.0, 40.0], seed=1
        )
        return len(fabric.run(specs).served)

    assert cyclic_garbage(run) == {}


def test_volcano_plan():
    def run():
        db, _disk, store, layout = small_stack()
        assembly = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4, batch_pages=4,
        )
        plan = HashAggregate(
            ComponentFilter(assembly, "n1", payload_predicate(0.5)),
            group_key=lambda cobj: cobj.root.ints[0] % 2,
            init=lambda: 0,
            step=lambda count, _cobj: count + 1,
        )
        plan, _decisions = push_down_component_filters(plan)
        return len(plan.execute())

    assert cyclic_garbage(run) == {}


def test_device_timeline_left_attached():
    def run():
        db, disk, store, layout = small_stack()
        timeline = DeviceIOTimeline(disk, spans=SpanRecorder()).attach()
        Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4,
        ).execute()
        return len(timeline.samples)

    assert cyclic_garbage(run) == {}
