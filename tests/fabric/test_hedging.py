"""Hedged requests: pricing, firing, winning, and loser cleanup."""

from __future__ import annotations

import pytest

from repro.errors import FabricError
from repro.fabric import (
    HedgePolicy,
    PoissonArrivals,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.storage.costmodel import CostModel
from repro.workloads.acob import generate_acob

#: Round-robin placement on a shard whose replica 0 runs 6x slower:
#: half the primaries land on bad hardware, the hedge's bread and
#: butter.  Shortest-queue placement would route around the straggler
#: on its own, hiding exactly the pathology hedging exists for.
SLOW_PRIMARY = {(0, 0): 6.0}


def build(hedging, n=40, **kwargs):
    db = generate_acob(n, seed=2)
    kwargs.setdefault("n_shards", 1)
    kwargs.setdefault("replicas_per_shard", 2)
    kwargs.setdefault("placement", "round-robin")
    kwargs.setdefault("speed_factors", SLOW_PRIMARY)
    return build_sharded_fabric(db, hedging=hedging, **kwargs)


def run(fabric, count=16, rate=2.0):
    specs = open_loop_workload(
        fabric, PoissonArrivals(rate, seed=5), count, seed=5
    )
    return fabric.run(specs)


class TestHedgePolicy:
    def test_delay_is_priced_from_the_cost_model(self):
        model = CostModel()
        policy = HedgePolicy(multiplier=2.0)
        # 7 fetches per ACOB object, each a positioned read of 8 pages.
        per_read = model.run_service_time(8, 1)
        assert policy.delay_ms(3, model) == pytest.approx(
            2.0 * 3 * 7 * per_read
        )

    def test_validation(self):
        with pytest.raises(FabricError):
            HedgePolicy(multiplier=0.0)


class TestHedgedRuns:
    def test_hedges_fire_win_and_cancel_their_losers(self):
        fabric = build(HedgePolicy(multiplier=1.0))
        report = run(fabric)
        fleet = report.fleet
        assert fleet.hedge_fired > 0
        assert fleet.hedge_won > 0
        assert fleet.hedge_won <= fleet.hedge_fired
        # Every fired hedge races two copies; exactly one loses and is
        # cancelled on the event clock (budget released, refs retracted).
        assert report.replicas.requests_cancelled == fleet.hedge_fired
        # Cleanup: nothing left outstanding, nothing left pinned.
        for shard in fabric.shards:
            for replica in shard.replicas:
                assert replica.depth == 0
                assert replica.store.buffer.pinned_pages == 0

    def test_hedging_cuts_the_tail_on_a_heterogeneous_shard(self):
        hedged = run(build(HedgePolicy(multiplier=1.0)))
        plain = run(build(None))
        assert plain.fleet.hedge_fired == 0
        # Same specs, same roots -> same content either way.
        for a, b in zip(hedged.requests, plain.requests):
            assert {c.root_oid for c in a.results} == {
                c.root_oid for c in b.results
            }
        assert hedged.percentile_latency_ms(
            0.99
        ) < plain.percentile_latency_ms(0.99)

    def test_hedged_results_are_complete(self):
        report = run(build(HedgePolicy(multiplier=1.0)))
        for request in report.served:
            assert {c.root_oid for c in request.results} == set(
                request.spec.roots
            )

    def test_single_replica_never_hedges(self):
        fabric = build(
            HedgePolicy(multiplier=1.0),
            replicas_per_shard=1,
            speed_factors=None,
        )
        report = run(fabric, count=10)
        assert report.fleet.hedge_fired == 0
        assert report.replicas.requests_cancelled == 0

    def test_won_by_hedge_marks_only_hedge_winners(self):
        report = run(build(HedgePolicy(multiplier=1.0)))
        for request in report.served:
            if request.won_by_hedge:
                assert request.hedged
                assert len(request.attempts) == 2
        assert (
            sum(1 for r in report.served if r.won_by_hedge)
            == report.fleet.hedge_won
        )

    def test_hedging_is_deterministic(self):
        def one():
            report = run(build(HedgePolicy(multiplier=1.0)))
            return (
                report.latencies_ms(),
                report.fleet.hedge_fired,
                report.fleet.hedge_won,
            )

        assert one() == one()
