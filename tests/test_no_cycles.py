"""A dropped assembly stack is freed by reference counting.

A stack that sits in a reference cycle waits for the cycle collector:
its buffer pages stay in memory until the next full collection, which
then pays to walk them.  Each test builds a small stack, runs it to
completion, drops it, and collects under ``gc.DEBUG_SAVEALL`` — which
keeps everything the collector found unreachable in ``gc.garbage`` —
with automatic collection off in between, so no cycle escapes the
count.  None of the stack's heavy objects may be there.

The simulated disk and its ``DeviceLedger`` read tap (a handful of
small objects per disk) and the generated database definitions do
form cycles; they hold no page and are not checked.
"""

import gc

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.cluster.reorg import ReorgPolicy
from repro.core.assembled import AssembledObject
from repro.core.assembly import Assembly
from repro.core.multidevice import PipelinedAssembly
from repro.iterator import ListSource
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager, _Frame
from repro.storage.costmodel import CostedDisk
from repro.storage.events import AsyncIOEngine
from repro.storage.page import Page
from repro.storage.store import ObjectStore
from repro.volcano.aggregate import HashAggregate
from repro.volcano.assembly import ComponentFilter
from repro.volcano.plan import push_down_component_filters
from repro.workloads.acob import generate_acob, make_template, payload_predicate

HEAVY = (Page, _Frame, BufferManager, ObjectStore, Assembly, AssembledObject)


def small_stack():
    db = generate_acob(20, sharing=0.25, seed=1)
    disk = CostedDisk()
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
    """Heavy objects that only the cycle collector frees once ``run``'s
    stack is dropped, counted by type name."""
    gc.collect()
    gc.disable()
    try:
        assert run() > 0  # the stack did its work, then went out of scope
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = {}
        for obj in gc.garbage:
            if isinstance(obj, HEAVY):
                name = type(obj).__name__
                found[name] = found.get(name, 0) + 1
        return found
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


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


def test_pipelined_assembly():
    def run():
        db, disk, store, layout = small_stack()
        operator = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4,
        )
        driver = PipelinedAssembly(
            operator, AsyncIOEngine(disk, disk.cost_model),
            issue_depth=2, batch_pages=2,
        )
        return len(driver.run())

    assert cyclic_garbage(run) == {}


def test_service_with_cache_and_reorg():
    def run():
        db, _disk, store, layout = small_stack()
        service = AssemblyService(
            store, cache_capacity=8, reorg_policy=ReorgPolicy()
        )
        template = make_template(db)
        service.submit(layout.root_order[:10], template)
        service.submit(layout.root_order[5:15], template)
        service.run()
        service.reorganize()
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

    gc.collect()
    gc.disable()
    try:
        assert run() > 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        from_template = [
            obj for obj in gc.garbage
            if getattr(obj, "__module__", None) == "repro.core.template"
        ]
        assert from_template == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


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
