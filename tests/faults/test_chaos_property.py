"""Chaos property: transient faults + retries never change the answer.

The central robustness guarantee, property-tested the way the
exactness suite tests the event engine: for every scheduler,
clustering, window size, fault rate and injector seed, an assembly
run whose reads randomly fail (and are retried under a budget that
covers the injector's consecutive-failure bound) emits **bit-identical
complex objects** to the fault-free run — same roots in the same
order, same swizzled structure, same payloads, same fetch accounting.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering, make_policy
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.core.schedulers import make_scheduler
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk, CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template

SCHEDULERS = ("depth-first", "breadth-first", "elevator")
CLUSTERINGS = ("inter-object", "intra-object", "unclustered")


def build_single(n, clustering, scheduler, window, retry=None):
    db = generate_acob(n, seed=2)
    disk = CostedDisk(n_pages=4096)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, make_policy(clustering, cluster_pages=64),
        shared=db.shared_pool,
    )
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window,
        scheduler=make_scheduler(
            scheduler,
            head_fn=lambda: disk.head_position,
            resident_fn=store.buffer.is_resident,
        ),
        retry_policy=retry,
    )
    return disk, store, operator


def fingerprint(emitted, ordered=True):
    """Everything observable about an emitted batch, hashable-flat.

    ``ordered=False`` drops the emission serial and sorts by root —
    the completion-driven driver may legitimately reorder emissions
    when issue-time faults force synchronous fallbacks, but each
    object must still be bit-identical.
    """
    out = []
    for cobj in emitted:
        walk = [
            (obj.oid, obj.ints, obj.ref_oids, sorted(obj.children))
            for obj in cobj.root.walk()
        ]
        serial = cobj.serial if ordered else None
        out.append(
            (cobj.root_oid, serial, cobj.fetches,
             cobj.shared_links, cobj.degraded, tuple(walk))
        )
    if not ordered:
        out.sort(key=repr)
    return out


@settings(max_examples=12, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=10, max_value=40),
    rate=st.sampled_from((0.05, 0.15, 0.3)),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_faulted_run_is_bit_identical(
    scheduler, clustering, window, n, rate, fault_seed
):
    _disk, _store, clean_op = build_single(n, clustering, scheduler, window)
    clean = fingerprint(clean_op.execute())

    disk, store, operator = build_single(
        n, clustering, scheduler, window, retry=RetryPolicy(max_retries=2)
    )
    injector = FaultInjector(
        FaultConfig(
            seed=fault_seed,
            read_error_rate=rate,
            max_consecutive_failures=2,
        )
    ).attach(disk)
    chaotic = fingerprint(operator.execute())

    assert chaotic == clean
    assert operator.stats.fault_retries == injector.stats.transient_errors
    assert store.buffer.pinned_pages == 0


@settings(max_examples=8, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=10),
    n=st.integers(min_value=10, max_value=30),
    rate=st.sampled_from((0.05, 0.2)),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    issue_depth=st.integers(min_value=1, max_value=3),
    batch_pages=st.sampled_from((1, 4)),
)
def test_pipelined_faulted_run_is_bit_identical(
    window, n, rate, fault_seed, issue_depth, batch_pages
):
    """The completion-driven multi-device driver keeps the guarantee:
    issue-time retries, sync fallbacks and operator-level retries all
    converge on the fault-free output."""

    def build(inject):
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
        retry = RetryPolicy(max_retries=2) if inject else None
        operator = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db),
            window_size=window,
            scheduler=MultiDeviceScheduler(disk),
            retry_policy=retry,
        )
        if inject:
            FaultInjector(
                FaultConfig(
                    seed=fault_seed,
                    read_error_rate=rate,
                    max_consecutive_failures=2,
                )
            ).attach(disk)
        engine = AsyncIOEngine(disk, CostModel())
        driver = PipelinedAssembly(
            operator,
            engine,
            issue_depth=issue_depth,
            batch_pages=batch_pages,
            retry_policy=retry,
        )
        return store, driver

    _store, clean_driver = build(inject=False)
    clean = fingerprint(clean_driver.run(), ordered=False)
    store, driver = build(inject=True)
    chaotic = fingerprint(driver.run(), ordered=False)
    assert chaotic == clean
    assert store.buffer.pinned_pages == 0
