"""Degraded results never poison any cache, anywhere in the fabric.

PR 4's guarantee — a partially-assembled (degraded) object is returned
to its caller but never enters the result cache — re-proved across the
router path: a faulty replica serving hedged duplicates and primaries
under ``on_fault="partial"`` hands degraded objects to the fabric, and
every replica's LRU stays clean.
"""

from __future__ import annotations

import functools

from repro.fabric import (
    HedgePolicy,
    PoissonArrivals,
    RequestSpec,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.workloads.acob import generate_acob


def build_faulty_fabric(n=40, fault_seed=7):
    """1 shard x 2 replicas; replica 1 has a flaky disk and degrades
    on fault-budget exhaustion, replica 0 is slow enough that hedges
    (and half the round-robin primaries) land on the flaky one."""
    db = generate_acob(n, seed=2)
    fabric = build_sharded_fabric(
        db,
        n_shards=1,
        replicas_per_shard=2,
        placement="round-robin",
        speed_factors={(0, 0): 4.0},
        hedging=HedgePolicy(multiplier=1.0),
        max_waiting=10_000,
    )
    flaky = fabric.shards[0].replicas[1]
    injector = FaultInjector(
        FaultConfig(
            seed=fault_seed,
            read_error_rate=0.35,
            max_consecutive_failures=4,
        )
    ).attach(flaky.store.disk)
    # Fabric requests carry no fault mode: wrap the replica's submit.
    flaky.service.submit = functools.partial(
        flaky.service.submit,
        retry_policy=RetryPolicy(max_retries=1),
        on_fault="partial",
    )
    return fabric, injector


def cache_entries(fabric):
    for shard in fabric.shards:
        for replica in shard.replicas:
            cache = replica.service.cache
            assert cache is not None
            yield from cache._entries.values()


class TestDegradedNeverCachedAcrossTheFabric:
    def test_faulty_hedged_run_keeps_every_cache_clean(self):
        fabric, injector = build_faulty_fabric()
        specs = open_loop_workload(
            fabric, PoissonArrivals(3.0, seed=5), 16, seed=5
        )
        report = fabric.run(specs)

        # Vacuity guards: faults fired, degraded objects were emitted,
        # hedges actually raced, and clean results did get cached.
        assert injector.stats.transient_errors > 0
        assert report.replicas.objects_degraded > 0
        assert report.fleet.hedge_fired > 0
        assert any(
            c.degraded for r in report.served for c in r.results
        )
        entries = list(cache_entries(fabric))
        assert entries

        for entry in entries:
            assert not entry.value.degraded

    def test_resubmitted_roots_are_reassembled_not_served_degraded(self):
        fabric, _injector = build_faulty_fabric()
        first = fabric.run(
            open_loop_workload(
                fabric, PoissonArrivals(3.0, seed=5), 16, seed=5
            )
        )
        degraded_roots = {
            cobj.root_oid
            for request in first.served
            for cobj in request.results
            if cobj.degraded
        }
        assert degraded_roots
        base = fabric.elapsed_ms + 1.0
        replay = [
            RequestSpec(roots=(root,), arrival_ms=base + i)
            for i, root in enumerate(sorted(degraded_roots, key=repr))
        ]
        second = fabric.run(replay)
        # A degraded answer was never cached, so the replay could not
        # have been served a stale degraded copy: anything that comes
        # back clean now proves re-assembly; anything degraded again
        # came from the still-flaky disk, not from a cache.
        for request in second.served:
            assert len(request.results) == 1
        for entry in cache_entries(fabric):
            assert not entry.value.degraded
