"""Load shedding: SLO breaches bound the tail, overload counts too."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.fabric import (
    PoissonArrivals,
    SheddingPolicy,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.workloads.acob import generate_acob


def build(shedding, n=40, **kwargs):
    db = generate_acob(n, seed=2)
    kwargs.setdefault("n_shards", 1)
    kwargs.setdefault("replicas_per_shard", 1)
    # A bounded buffer budget makes admission serialize the backlog, so
    # completions (and therefore SLO observations) interleave with the
    # remaining arrivals instead of all landing after the last one.
    kwargs.setdefault("buffer_capacity", 64)
    kwargs.setdefault("max_waiting", 10_000)
    # No result cache: the workload wraps around the root population,
    # and zero-latency cache hits would mask the overload signal.
    kwargs.setdefault("cache_capacity", 0)
    return build_sharded_fabric(db, shedding=shedding, **kwargs)


def overload_specs(fabric, count=100, rate=10.0):
    """Arrivals ~2x faster than one replica serves, over a horizon
    long enough that completions interleave with later arrivals."""
    return open_loop_workload(
        fabric, PoissonArrivals(rate, seed=7), count, seed=7
    )


TIGHT = SheddingPolicy(target_ms=150.0, window=16, min_samples=8)


class TestSheddingUnderOverload:
    def test_breach_sheds_and_the_books_balance(self):
        fabric = build(TIGHT)
        specs = overload_specs(fabric)
        report = fabric.run(specs)
        assert report.shed_fraction > 0.0
        assert report.fleet.requests_shed == len(report.shed)
        assert all(r.shed_reason == "slo" for r in report.shed)
        assert all(r.results == [] for r in report.shed)
        slo = report.per_shard[0]["slo"]
        assert slo["breached"] or slo["recoveries"] > 0
        assert slo["breaches"] >= 1
        assert slo["observed"] == report.fleet.requests_completed

    def test_shedding_bounds_the_served_tail(self):
        shed = build(TIGHT)
        shed_report = shed.run(overload_specs(shed))
        plain = build(None)
        plain_report = plain.run(overload_specs(plain))
        assert plain_report.shed_fraction == 0.0
        assert shed_report.shed_fraction > 0.0
        assert shed_report.percentile_latency_ms(
            0.99
        ) < plain_report.percentile_latency_ms(0.99)

    def test_light_load_sheds_nothing(self):
        fabric = build(SheddingPolicy(target_ms=60_000.0))
        specs = open_loop_workload(
            fabric, PoissonArrivals(0.5, seed=3), 10, seed=3
        )
        report = fabric.run(specs)
        assert report.shed_fraction == 0.0
        slo = report.per_shard[0]["slo"]
        assert slo["breaches"] == 0 and not slo["breached"]


class TestPolicyValidation:
    def test_a_tracker_that_could_never_trip_fails_the_build(self):
        """``min_samples`` above ``window``: the ring never holds enough
        completions, so the shard would never shed.  The builder makes
        every shard's tracker, so the fabric refuses to stand up."""
        with pytest.raises(ReproError, match="could never trip"):
            build(SheddingPolicy(target_ms=150.0, window=4, min_samples=8))


class TestAdmissionOverloadCountsAsShed:
    def test_wait_queue_overflow_sheds_with_the_overload_reason(self):
        """No SLO policy at all: a full admission wait queue still turns
        requests away, and the fabric books them as sheds."""
        fabric = build(
            None, buffer_capacity=64, max_waiting=1, n_shards=1
        )
        specs = open_loop_workload(
            fabric, [0.0] * 30, roots_per_request=2, seed=1
        )
        report = fabric.run(specs)
        overloaded = [
            r for r in report.shed if r.shed_reason == "overload"
        ]
        assert overloaded
        assert report.fleet.requests_shed == len(report.shed)
        # The replica's own admission metrics saw the rejections.
        assert report.replicas.requests_rejected == len(overloaded)
