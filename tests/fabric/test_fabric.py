"""Fabric run-loop behavior: routing, accounting, caching, determinism."""

from __future__ import annotations

import pytest

from repro.errors import FabricError, StorageError
from repro.fabric import (
    PoissonArrivals,
    RequestSpec,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.fabric import builder
from repro.fabric.fabric import FabricReport
from repro.service.metrics import ServiceMetrics
from repro.workloads.acob import generate_acob


def build(n=40, **kwargs):
    db = generate_acob(n, seed=2)
    return build_sharded_fabric(db, **kwargs)


def workload(fabric, rate=5.0, count=20, seed=0, **kwargs):
    return open_loop_workload(
        fabric, PoissonArrivals(rate, seed=seed), count, seed=seed, **kwargs
    )


class TestRouting:
    def test_requests_land_on_the_shard_owning_their_roots(self):
        fabric = build(n_shards=3, replicas_per_shard=1)
        report = fabric.run(workload(fabric, count=24))
        for request in report.served:
            for root in request.spec.roots:
                assert fabric.router.shard_of(root) == request.shard_id

    def test_open_loop_workload_never_spans_shards(self):
        fabric = build(n_shards=4, replicas_per_shard=1)
        specs = workload(fabric, count=40, roots_per_request=(1, 3))
        for spec in specs:
            owners = {fabric.router.shard_of(root) for root in spec.roots}
            assert len(owners) == 1

    def test_cross_shard_request_is_rejected(self):
        fabric = build(n_shards=2, replicas_per_shard=1)
        a = fabric.shards[0].roots[0]
        b = fabric.shards[1].roots[0]
        with pytest.raises(FabricError, match="spans shards"):
            fabric.run([RequestSpec(roots=(a, b))])

    def test_router_shard_mismatch_is_rejected_at_construction(self):
        fabric = build(n_shards=2, replicas_per_shard=1)
        from repro.fabric import ConsistentHashRouter, ServiceFabric

        with pytest.raises(FabricError, match="router spans"):
            ServiceFabric(
                fabric.shards, ConsistentHashRouter(3), fabric.template
            )


class TestAccounting:
    def test_submitted_splits_into_completed_plus_shed(self):
        fabric = build(n_shards=2, replicas_per_shard=2)
        specs = workload(fabric, count=30)
        report = fabric.run(specs)
        assert report.fleet.requests_submitted == len(specs)
        assert (
            report.fleet.requests_completed + report.fleet.requests_shed
            == len(specs)
        )
        assert len(report.served) == report.fleet.requests_completed
        assert report.fleet.latency_hist.count == len(report.served)

    def test_elapsed_is_the_furthest_replica_clock(self):
        fabric = build(n_shards=2, replicas_per_shard=2)
        report = fabric.run(workload(fabric, count=16))
        clocks = [
            r.clock for s in fabric.shards for r in s.replicas
        ]
        assert report.elapsed_ms == max(clocks)
        assert report.fleet.elapsed_ms == report.elapsed_ms

    def test_latencies_are_positive_and_the_report_sorts_them(self):
        fabric = build(n_shards=1, replicas_per_shard=1)
        report = fabric.run(workload(fabric, count=12))
        latencies = report.latencies_ms()
        assert latencies == sorted(latencies)
        assert all(lat >= 0 for lat in latencies)
        assert report.percentile_latency_ms(0.5) in latencies
        assert report.percentile_latency_ms(1.0) == latencies[-1]

    def test_per_shard_snapshots_cover_every_shard(self):
        fabric = build(n_shards=3, replicas_per_shard=2)
        report = fabric.run(workload(fabric, count=18))
        assert [view["shard"] for view in report.per_shard] == [0, 1, 2]
        for view in report.per_shard:
            assert view["slo"] is None  # no shedding policy configured
            assert view["replica_depths"] == [0, 0]  # drained
        assert sum(
            view["requests_submitted"] for view in report.per_shard
        ) == 18

    def test_empty_run(self):
        fabric = build(n=20, n_shards=2, replicas_per_shard=1)
        report = fabric.run([])
        assert report.requests == []
        assert report.elapsed_ms == 0.0
        assert report.shed_fraction == 0.0
        assert report.latencies_ms() == []


class TestResultCache:
    def test_repeat_request_is_served_on_arrival_from_the_cache(self):
        fabric = build(n_shards=1, replicas_per_shard=1)
        roots = tuple(fabric.shards[0].roots[:2])
        report = fabric.run(
            [
                RequestSpec(roots=roots, arrival_ms=0.0),
                RequestSpec(roots=roots, arrival_ms=1e6),
            ]
        )
        first, second = report.requests
        assert first.latency_ms > 0
        assert second.latency_ms == 0.0  # pure cache hit: done on arrival
        assert second.complete_ms == 1e6
        replica = fabric.shards[0].replicas[0]
        assert replica.service.metrics.cache_hits == len(roots)


class TestDeterminism:
    def test_identical_fabrics_produce_identical_reports(self):
        def run():
            fabric = build(n_shards=2, replicas_per_shard=2)
            report = fabric.run(
                workload(fabric, rate=10.0, count=25, seed=9)
            )
            return (
                report.latencies_ms(),
                report.per_shard,
                report.fleet.snapshot(),
                report.replicas.snapshot(),
            )

        assert run() == run()


class TestValidation:
    def test_request_spec_needs_roots_and_a_nonnegative_arrival(self):
        fabric = build(n=10, n_shards=1, replicas_per_shard=1)
        root = fabric.shards[0].roots[0]
        with pytest.raises(FabricError):
            RequestSpec(roots=())
        with pytest.raises(FabricError):
            RequestSpec(roots=(root,), arrival_ms=-1.0)

    def test_builder_rejects_nonpositive_replicas(self):
        db = generate_acob(10, seed=2)
        with pytest.raises(FabricError):
            build_sharded_fabric(db, replicas_per_shard=0)

    def test_builder_rejects_unknown_clustering_and_placement(
        self, monkeypatch
    ):
        db = generate_acob(10, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(builder, "CLUSTERING", "zigzag")
            # The one clustering-name map (cluster.policies.make_policy)
            # rejects the name, with its own error type.
            with pytest.raises(StorageError, match="unknown clustering"):
                build_sharded_fabric(db)
        with pytest.raises(FabricError):
            build_sharded_fabric(db, placement="random")

    @pytest.mark.parametrize("key", [(0, 2), (2, 0), (-1, 0)])
    def test_builder_rejects_speed_factors_naming_no_replica(self, key):
        """A mistyped key would otherwise measure a fleet with no slow
        replica at all: 2 shards x 2 replicas own keys (0..1, 0..1)."""
        db = generate_acob(10, seed=2)
        with pytest.raises(FabricError, match="name no replica"):
            build_sharded_fabric(
                db, n_shards=2, replicas_per_shard=2, speed_factors={key: 6.0}
            )
        slow = build_sharded_fabric(
            db, n_shards=2, replicas_per_shard=2, speed_factors={(1, 1): 6.0}
        )
        assert slow.shards[1].replicas[1].speed_factor == 6.0

    def test_percentile_fraction_is_checked_before_the_run_is_read(self):
        empty = FabricReport(
            requests=[], fleet=ServiceMetrics(), replicas=ServiceMetrics()
        )
        assert empty.percentile_latency_ms(0.99) is None
        for fraction in (0.0, -0.5, 2.0):
            with pytest.raises(FabricError):
                empty.percentile_latency_ms(fraction)

    def test_workload_needs_a_count_with_a_process(self):
        fabric = build(n=10, n_shards=1, replicas_per_shard=1)
        with pytest.raises(FabricError):
            open_loop_workload(fabric, PoissonArrivals(1.0))
        with pytest.raises(FabricError):
            open_loop_workload(fabric, [0.0, 1.0], n_requests=3)
