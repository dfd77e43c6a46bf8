"""The integer-keyed affinity sketch is the tuple-keyed one, op by op.

``AffinitySketch`` used to key each edge by its ``(Oid, Oid)`` pair and
sort hot edges with a ``(-weight, pair)`` key per edge; it now keys
objects and edges by order-preserving integers and the planner
agglomerates on those.  The old sketch and planner are kept here as the
oracle.  Both are driven through the same generated observe / decay /
hot-edge / plan programs over OIDs drawn from the whole encodable
range — ``type_id`` up to ``0xFFFF``, ``serial`` up to ``2**64 - 1``,
serials on both sides of ``2**32`` and the same serial under several
types — and everything observable must agree after every operation:
the hot-edge list element by element with bit-equal weights (the
oracle's OID pairs encoded as the sketch's edge codes), the edge count,
the observation count and the planned clusters.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.reorg import AffinitySketch, ReorgPlanner, ReorgPolicy
from repro.storage.oid import Oid


class TupleSketch:
    """The sketch as it was: edges keyed by the ordered ``(Oid, Oid)``."""

    def __init__(self, policy):
        self._policy = policy
        self._weights = {}
        self._groups = OrderedDict()
        self.observations = 0

    def __len__(self):
        return len(self._weights)

    def observe(self, group_key, oid):
        self.observations += 1
        group = self._groups.get(group_key)
        if group is None:
            while len(self._groups) >= self._policy.group_capacity:
                self._groups.popitem(last=False)
            group = []
            self._groups[group_key] = group
        else:
            self._groups.move_to_end(group_key)
        window = self._policy.affinity_window
        recent = group[-window:]
        if oid in recent:
            return
        for other in recent:
            key = (oid, other) if oid <= other else (other, oid)
            self._weights[key] = self._weights.get(key, 0.0) + 1.0
        group.append(oid)
        if len(group) > window:
            del group[: len(group) - window]

    def decay(self):
        factor = self._policy.decay
        epsilon = self._policy.prune_epsilon
        self._weights = {
            key: aged
            for key, weight in self._weights.items()
            if (aged := weight * factor) >= epsilon
        }

    def hot_edges(self):
        threshold = self._policy.min_weight
        edges = [
            (key, weight)
            for key, weight in self._weights.items()
            if weight >= threshold
        ]
        edges.sort(key=lambda item: (-item[1], item[0]))
        return edges


def tuple_plan(policy, sketch, page_of, objects_per_page):
    """The planner as it was: greedy agglomeration over OID pairs."""
    cluster_of, members, weight_of, next_id = {}, {}, {}, 0
    for (a, b), weight in sketch.hot_edges():
        ca, cb = cluster_of.get(a), cluster_of.get(b)
        if ca is None and cb is None:
            if objects_per_page < 2:
                continue
            cluster_of[a] = cluster_of[b] = next_id
            members[next_id] = [a, b]
            weight_of[next_id] = weight
            next_id += 1
        elif ca is None or cb is None:
            target, newcomer = (cb, a) if ca is None else (ca, b)
            if len(members[target]) < objects_per_page:
                cluster_of[newcomer] = target
                members[target].append(newcomer)
                weight_of[target] += weight
        elif ca != cb:
            low, high = (ca, cb) if ca < cb else (cb, ca)
            if len(members[low]) + len(members[high]) <= objects_per_page:
                for oid in members[high]:
                    cluster_of[oid] = low
                members[low].extend(members.pop(high))
                weight_of[low] += weight_of.pop(high) + weight
        else:
            weight_of[ca] += weight
    budget = policy.max_migrations_per_round
    planned = sorted(
        (-weight_of[cid], cid, sorted(oids))
        for cid, oids in members.items()
        if 2 <= len(oids) <= budget and len({page_of(o) for o in oids}) > 1
    )
    clusters, migrations = [], 0
    for _neg_weight, _cid, oids in planned:
        if migrations + len(oids) > budget:
            break
        clusters.append(oids)
        migrations += len(oids)
    return clusters


SERIALS = st.one_of(
    st.integers(0, 8),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(2**64 - 4, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
TYPE_IDS = st.one_of(st.integers(0, 3), st.integers(0xFFFC, 0xFFFF))

POLICIES = st.builds(
    ReorgPolicy,
    decay=st.floats(0.0, 1.0, exclude_min=True),
    min_weight=st.one_of(
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        st.floats(1e-3, 4.0),
    ),
    max_migrations_per_round=st.integers(1, 12),
    prune_epsilon=st.one_of(
        st.sampled_from([0.05, 0.5, 1.0]), st.floats(1e-6, 2.0)
    ),
    affinity_window=st.integers(2, 6),
    group_capacity=st.integers(1, 4),
)


@st.composite
def programs(draw):
    """A policy, an OID pool and a program over both."""
    serials = draw(st.lists(SERIALS, min_size=1, max_size=4, unique=True))
    types = draw(st.lists(TYPE_IDS, min_size=1, max_size=3, unique=True))
    pool = [Oid(t, s) for t in types for s in serials]
    index = st.integers(0, len(pool) - 1)
    op = st.one_of(
        st.tuples(st.just("observe"), st.integers(0, 4), index),
        st.tuples(st.just("decay")),
        st.tuples(
            st.just("plan"),
            st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)),
            st.integers(1, 5),
        ),
    )
    ops = draw(st.lists(op, min_size=1, max_size=60))
    return draw(POLICIES), pool, ops


def edge_code(low, high):
    """The sketch's code for the edge ``(low, high)``, ``low <= high``."""
    return (
        (((low.type_id << 64) | low.serial) << 80)
        | (high.type_id << 64)
        | high.serial
    )


def observable(sketch):
    """Hot edges with bit-exact weights, edge count, observations."""
    edges = [(code, weight.hex()) for code, weight in sketch.hot_codes()]
    return edges, len(sketch), sketch.observations


def oracle_observable(oracle):
    """:func:`observable` of the tuple-keyed oracle, pairs encoded."""
    edges = [
        (edge_code(low, high), weight.hex())
        for (low, high), weight in oracle.hot_edges()
    ]
    return edges, len(oracle), oracle.observations


@settings(max_examples=300, deadline=None)
@given(programs())
def test_integer_keyed_sketch_matches_the_tuple_oracle(program):
    policy, pool, ops = program
    sketch, oracle = AffinitySketch(policy), TupleSketch(policy)
    planner = ReorgPlanner(policy)
    for op in ops:
        if op[0] == "observe":
            sketch.observe(op[1], pool[op[2]])
            oracle.observe(op[1], pool[op[2]])
        elif op[0] == "decay":
            sketch.decay()
            oracle.decay()
        else:
            pages = dict(zip(pool, op[1]))
            clusters = planner.plan(sketch, pages.__getitem__, op[2])
            expected = tuple_plan(policy, oracle, pages.__getitem__, op[2])
            assert clusters == expected
            assert all(type(o) is Oid for c in clusters for o in c)
        assert observable(sketch) == oracle_observable(oracle)
