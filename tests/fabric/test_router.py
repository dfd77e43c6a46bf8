"""Consistent-hash router: stability, balance, bounded key movement."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import FabricError
from repro.fabric.router import ConsistentHashRouter
from repro.workloads.acob import generate_acob


def root_oids(n=120):
    db = generate_acob(n, seed=2)
    return [cobj.root for cobj in db.complex_objects]


class TestDeterminism:
    def test_identical_routers_agree_on_every_oid(self):
        oids = root_oids()
        first = ConsistentHashRouter(4)
        second = ConsistentHashRouter(4)
        assert [first.shard_of(o) for o in oids] == [
            second.shard_of(o) for o in oids
        ]

    def test_placement_is_independent_of_query_order(self):
        oids = root_oids()
        router = ConsistentHashRouter(3)
        forward = {o: router.shard_of(o) for o in oids}
        backward = {o: router.shard_of(o) for o in reversed(oids)}
        assert forward == backward


def shares(router, oids):
    """Fraction of ``oids`` each shard owns."""
    owned = Counter(router.shard_of(oid) for oid in oids)
    return [owned[shard] / len(oids) for shard in range(router.n_shards)]


class TestBalance:
    def test_shares_sum_to_one_and_no_shard_starves(self):
        fractions = shares(ConsistentHashRouter(4), root_oids(240))
        assert sum(fractions) == pytest.approx(1.0)
        # Virtual nodes keep every shard within a loose band of 1/4.
        for share in fractions:
            assert 0.05 < share < 0.55

    def test_more_vnodes_do_not_break_coverage(self):
        oids = root_oids()
        fractions = shares(ConsistentHashRouter(4, vnodes=256), oids)
        assert all(share > 0 for share in fractions)


class TestBoundedMovement:
    def test_growing_the_ring_moves_few_keys(self):
        """N -> N+1 shards relocates roughly 1/(N+1) of keys, not all
        of them the way ``hash % N`` would."""
        oids = root_oids(240)
        before = ConsistentHashRouter(3)
        after = ConsistentHashRouter(4)
        moved = sum(
            1 for o in oids if before.shard_of(o) != after.shard_of(o)
        )
        assert moved / len(oids) < 0.5  # ideal ~0.25; generous bound
        # Every key that moved, moved *to* the new shard.
        for o in oids:
            if before.shard_of(o) != after.shard_of(o):
                assert after.shard_of(o) == 3


class TestValidation:
    def test_rejects_nonpositive_shards_and_vnodes(self):
        with pytest.raises(FabricError):
            ConsistentHashRouter(0)
        with pytest.raises(FabricError):
            ConsistentHashRouter(2, vnodes=0)
