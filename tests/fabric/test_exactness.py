"""Fabric exactness: the sharded path degenerates to the plain service.

The acceptance anchor for the fabric layer, in the style of the event
engine and chaos exactness suites:

* With one shard, one replica, hedging off and every arrival at t=0,
  a fabric run is **bit-identical** to driving the underlying
  :class:`AssemblyService` directly — same per-request results, same
  disk statistics, same service-metrics snapshot.  Property-tested
  across clusterings, window sizes and database sizes.
* Arrival *timing* never changes *content*: the same specs delivered
  open-loop at Poisson times emit the same objects per request as the
  all-at-t=0 run (latencies differ, payloads do not).
* Sharding never changes content either: a 2-shard fabric covering
  every root emits the same set of assembled objects as a bare
  :class:`Assembly` operator over the unsharded layout, for every
  scheduler x clustering combination.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.core.assembly import Assembly
from repro.core.schedulers import make_scheduler
from repro.fabric import (
    PoissonArrivals,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.fabric.builder import _make_policy
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template

from tests.faults.test_chaos_property import (
    CLUSTERINGS,
    SCHEDULERS,
    fingerprint,
)

MAX_WAITING = 10_000  # keep admission out of the comparison


def build_direct(db, clustering, cluster_pages, buffer_capacity):
    """The unsharded reference: the builder's construction, by hand."""
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk, capacity=buffer_capacity))
    layout = layout_database(
        list(db.complex_objects),
        store,
        _make_policy(clustering, cluster_pages, db),
        shared=db.shared_pool,
        seed=0,
        validate=False,
    )
    service = AssemblyService(
        store,
        cache_capacity=256,
        starvation_bound=64,
        max_waiting=MAX_WAITING,
        min_window=1,
    )
    return store, layout, service


def ask_window(fabric, window):
    """Every replica submits at ``window``: fabric requests carry no
    window of their own, so a test reaches one through the replicas'
    ``submit_kwargs``."""
    for shard in fabric.shards:
        for replica in shard.replicas:
            replica.submit_kwargs = {"window_size": window}


def content_fingerprint(emitted):
    """Logical object content only — no serials, no fetch accounting —
    comparable across different layouts and drive orders."""
    out = []
    for cobj in emitted:
        walk = tuple(
            (obj.oid, obj.ints, obj.ref_oids, tuple(sorted(obj.children)))
            for obj in cobj.root.walk()
        )
        out.append((cobj.root_oid, cobj.degraded, walk))
    return sorted(out, key=repr)


@settings(max_examples=8, deadline=None)
@given(
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=10, max_value=30),
    buffer_capacity=st.sampled_from((None, 200)),
)
def test_degenerate_fabric_is_bit_identical_to_the_plain_service(
    clustering, window, n, buffer_capacity
):
    db = generate_acob(n, seed=2)
    fabric = build_sharded_fabric(
        db,
        n_shards=1,
        replicas_per_shard=1,
        clustering=clustering,
        cluster_pages=64,
        buffer_capacity=buffer_capacity,
        max_waiting=MAX_WAITING,
    )
    ask_window(fabric, window)
    specs = open_loop_workload(
        fabric, [0.0] * (n // 2), roots_per_request=2, seed=3
    )
    report = fabric.run(specs)
    assert not report.shed

    store, _layout, service = build_direct(db, clustering, 64, buffer_capacity)
    template = make_template(db)
    ids = [
        service.submit(list(spec.roots), template, window_size=window)
        for spec in specs
    ]
    service.run()

    replica = fabric.shards[0].replicas[0]
    for request, request_id in zip(report.requests, ids):
        assert fingerprint(request.results) == fingerprint(
            service.result(request_id)
        )
    assert replica.store.disk.stats.snapshot() == store.disk.stats.snapshot()
    assert replica.service.metrics.snapshot() == service.metrics.snapshot()
    assert replica.store.buffer.pinned_pages == 0
    assert store.buffer.pinned_pages == 0


@settings(max_examples=6, deadline=None)
@given(
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=12, max_value=30),
    rate=st.sampled_from((2.0, 20.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_arrival_timing_never_changes_request_content(
    clustering, window, n, rate, seed
):
    def run(arrivals):
        db = generate_acob(n, seed=2)
        fabric = build_sharded_fabric(
            db,
            n_shards=1,
            replicas_per_shard=1,
            clustering=clustering,
            cluster_pages=64,
            max_waiting=MAX_WAITING,
        )
        ask_window(fabric, window)
        specs = open_loop_workload(
            fabric, arrivals, roots_per_request=2, seed=4
        )
        report = fabric.run(specs)
        assert not report.shed
        return report

    k = n // 2
    timed = run(PoissonArrivals(rate, seed=seed).times(k))
    batched = run([0.0] * k)
    for a, b in zip(timed.requests, batched.requests):
        assert a.spec.roots == b.spec.roots
        assert fingerprint(a.results, ordered=False) == fingerprint(
            b.results, ordered=False
        )


@settings(max_examples=8, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    clustering=st.sampled_from(CLUSTERINGS),
    window=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=10, max_value=24),
)
def test_sharded_content_matches_a_bare_assembly_run(
    scheduler, clustering, window, n
):
    """Full coverage through a 2-shard fabric emits exactly the objects
    a single bare Assembly operator emits over the unsharded layout,
    whatever core scheduler that operator uses."""
    db = generate_acob(n, seed=2)
    fabric = build_sharded_fabric(
        db,
        n_shards=2,
        replicas_per_shard=1,
        clustering=clustering,
        cluster_pages=64,
        max_waiting=MAX_WAITING,
    )
    ask_window(fabric, window)
    specs = []
    from repro.fabric import RequestSpec

    for shard in fabric.shards:
        for i in range(0, len(shard.roots), 2):
            specs.append(RequestSpec(roots=tuple(shard.roots[i : i + 2])))
    report = fabric.run(specs)
    assert not report.shed
    fabric_objects = [
        cobj for request in report.served for cobj in request.results
    ]
    assert len(fabric_objects) == n

    db2 = generate_acob(n, seed=2)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        list(db2.complex_objects),
        store,
        _make_policy(clustering, 64, db2),
        shared=db2.shared_pool,
        seed=0,
        validate=False,
    )
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db2),
        window_size=window,
        scheduler=make_scheduler(
            scheduler,
            head_fn=lambda: disk.head_position,
            resident_fn=store.buffer.is_resident,
        ),
    )
    assert content_fingerprint(fabric_objects) == content_fingerprint(
        operator.execute()
    )
