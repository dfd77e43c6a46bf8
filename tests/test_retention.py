"""A driver's result holds data, not the stack that produced it.

A result someone keeps (a fabric report, a request's objects and
metrics, a reorganization round, pipeline statistics, plan rows) must
not keep a disk, a buffer pool, a store, an operator or a service
alive.  Each test walks ``gc.get_referents`` transitively from a kept
result and requires that none of the stack's components is reachable.
The walk does not descend into classes, modules or a function's
globals (those reach the whole program); it does follow a function's
closure cells and defaults, and a bound method's ``__self__``.
"""

import gc
import types

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering, Unclustered
from repro.cluster.reorg import ReorgPolicy
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.fabric import HedgePolicy, build_sharded_fabric, open_loop_workload
from repro.fabric.fabric import ShardReplica
from repro.iterator import ListSource
from repro.service.device_server import DeviceServer
from repro.service.server import AssemblyService, RequestStatus
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.events import AsyncIOEngine
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.volcano.aggregate import HashAggregate
from repro.volcano.assembly import ComponentFilter
from repro.volcano.plan import push_down_component_filters
from repro.workloads.acob import generate_acob, make_template, payload_predicate

COMPONENTS = (
    SimulatedDisk,
    BufferManager,
    ObjectStore,
    Assembly,
    DeviceServer,
    AssemblyService,
    ShardReplica,
)


def reachable_components(result):
    """Type names of every stack component reachable from ``result``."""
    seen = set()
    found = set()
    todo = [result]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, COMPONENTS):
            found.add(type(obj).__name__)
            continue
        if isinstance(obj, (type, types.ModuleType)):
            continue
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
            todo.extend(obj.__defaults__ or ())
            todo.extend((obj.__kwdefaults__ or {}).values())
            continue
        todo.extend(gc.get_referents(obj))
    return found


def small_stack(disk=None, clustered=True):
    db = generate_acob(20, sharing=0.25, seed=1)
    disk = SimulatedDisk() if disk is None else disk
    store = ObjectStore(disk, BufferManager(disk, capacity=64))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=16, disk_order=db.type_ids_depth_first()
        )
        if clustered
        else Unclustered(),
        shared=db.shared_pool,
    )
    return db, store, layout


def test_the_walk_finds_a_component():
    _db, store, _layout = small_stack()
    assert reachable_components([{"kept": (store,)}]) == {"ObjectStore"}
    assert reachable_components(lambda: store) == {"ObjectStore"}
    assert reachable_components(store.disk.read) == {"SimulatedDisk"}


def test_a_kept_fabric_report():
    fabric = build_sharded_fabric(
        generate_acob(20, seed=2),
        n_shards=2,
        replicas_per_shard=2,
        hedging=HedgePolicy(multiplier=1.0),
    )
    specs = open_loop_workload(
        fabric, [0.0, 0.0, 0.0, 5.0, 5.0, 10.0, 40.0], seed=1
    )
    report = fabric.run(specs)
    assert report.served
    assert any(len(request.attempts) == 2 for request in report.requests)
    assert reachable_components(report) == set()


def test_a_service_result_and_its_metrics():
    db, store, layout = small_stack()
    service = AssemblyService(store, cache_capacity=8)
    template = make_template(db)
    first = service.submit(layout.root_order[:10], template)
    second = service.submit(layout.root_order[:4], template)
    service.run()
    cached = service.submit(layout.root_order[:3], template)
    for request_id in (first, second, cached):
        assert service.poll(request_id) is RequestStatus.DONE
        assert service._requests[request_id].query is None
        assert service.result(request_id)
        assert reachable_components(service.result(request_id)) == set()
        assert reachable_components(
            service.request_metrics(request_id)
        ) == set()


def test_a_reorganization_round():
    db, store, layout = small_stack(clustered=False)
    service = AssemblyService(
        store,
        reorg_policy=ReorgPolicy(min_weight=3.0, min_observations=1),
    )
    service.submit(layout.root_order, make_template(db))
    service.run()  # its round finds no pair above min_weight
    reorg = service.server.reorg
    for context in range(4):
        for root in layout.root_order[:2]:
            reorg.observe(("hot", context), root)
    report = reorg.run_round()
    assert report.migrations > 0
    assert reachable_components(report) == set()


def test_pipeline_stats():
    disk = MultiDeviceDisk(n_devices=2, pages_per_device=1024)
    db, store, layout = small_stack(disk)
    driver = PipelinedAssembly(
        Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4, scheduler=MultiDeviceScheduler(disk),
        ),
        AsyncIOEngine(disk),
        issue_depth=2,
        batch_pages=2,
    )
    rows = driver.run()
    assert rows
    assert reachable_components(driver.stats) == set()
    assert reachable_components(rows) == set()


def test_volcano_plan_rows():
    db, store, layout = small_stack()
    plan = HashAggregate(
        ComponentFilter(
            Assembly(
                ListSource(layout.root_order), store, make_template(db),
                window_size=4, batch_pages=4,
            ),
            "n1",
            payload_predicate(0.5),
        ),
        group_key=lambda cobj: cobj.root.ints[0] % 2,
        init=lambda: 0,
        step=lambda count, _cobj: count + 1,
    )
    plan, _decisions = push_down_component_filters(plan)
    rows = plan.execute()
    assert rows
    assert reachable_components(rows) == set()
