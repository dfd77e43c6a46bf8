"""Tests for the hash join."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iterator import ListSource
from repro.volcano.joins import HashJoin

LEFT = [(1, "a"), (2, "b"), (3, "c")]
RIGHT = [(2, "x"), (3, "y"), (3, "z"), (4, "w")]


def reference_join(left, right):
    return sorted(
        (l, r) for l in left for r in right if l[0] == r[0]
    )


class TestHashJoin:
    def test_matches_reference(self):
        op = HashJoin(
            build=ListSource(RIGHT),
            probe=ListSource(LEFT),
            build_key=lambda r: r[0],
            probe_key=lambda l: l[0],
            combine=lambda probe, build: (probe, build),
        )
        assert sorted(op.execute()) == reference_join(LEFT, RIGHT)

    def test_duplicate_build_keys(self):
        op = HashJoin(
            build=ListSource([(1, "p"), (1, "q")]),
            probe=ListSource([(1, "l")]),
            build_key=lambda r: r[0],
            probe_key=lambda r: r[0],
        )
        assert len(op.execute()) == 2

    def test_no_matches(self):
        op = HashJoin(
            build=ListSource([(9, "x")]),
            probe=ListSource(LEFT),
            build_key=lambda r: r[0],
            probe_key=lambda r: r[0],
        )
        assert op.execute() == []

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 8), max_size=30),
        st.lists(st.integers(0, 8), max_size=30),
    )
    def test_hash_equals_nested_loops(self, left_keys, right_keys):
        left = [(k, f"L{i}") for i, k in enumerate(left_keys)]
        right = [(k, f"R{i}") for i, k in enumerate(right_keys)]
        hashed = HashJoin(
            build=ListSource(right),
            probe=ListSource(left),
            build_key=lambda r: r[0],
            probe_key=lambda r: r[0],
        ).execute()
        nested = [(l, r) for l in left for r in right if l[0] == r[0]]
        assert sorted(hashed) == sorted(nested)
