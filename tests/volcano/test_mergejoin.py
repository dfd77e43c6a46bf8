"""Tests for the sort-merge join."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.iterator import ListSource
from repro.volcano.joins import HashJoin
from repro.volcano.mergejoin import MergeJoin
from repro.volcano.sort import ExternalSort


def merge(left, right):
    return MergeJoin(
        ListSource(left),
        ListSource(right),
        left_key=lambda r: r[0],
        right_key=lambda r: r[0],
    )


class TestBasics:
    def test_simple_join(self):
        out = merge(
            [(1, "a"), (2, "b"), (4, "d")],
            [(2, "x"), (3, "y"), (4, "z")],
        ).execute()
        assert out == [((2, "b"), (2, "x")), ((4, "d"), (4, "z"))]

    def test_duplicates_cross_product(self):
        out = merge(
            [(1, "a1"), (1, "a2")],
            [(1, "b1"), (1, "b2"), (1, "b3")],
        ).execute()
        assert len(out) == 6
        assert {l[1] for l, _r in out} == {"a1", "a2"}
        assert {r[1] for _l, r in out} == {"b1", "b2", "b3"}

    def test_no_matches(self):
        assert merge([(1, "a")], [(2, "b")]).execute() == []

    def test_empty_sides(self):
        assert merge([], [(1, "b")]).execute() == []
        assert merge([(1, "a")], []).execute() == []

    def test_combine_hook(self):
        op = MergeJoin(
            ListSource([(1, "a")]),
            ListSource([(1, "b")]),
            left_key=lambda r: r[0],
            right_key=lambda r: r[0],
            combine=lambda l, r: l[1] + r[1],
        )
        assert op.execute() == ["ab"]

    def test_reopen(self):
        op = merge([(1, "a")], [(1, "b")])
        assert len(op.execute()) == 1
        assert len(op.execute()) == 1


class TestSortednessEnforcement:
    def test_unsorted_left_rejected(self):
        op = merge([(2, "b"), (1, "a")], [(1, "x")])
        with pytest.raises(PlanError):
            op.execute()

    def test_unsorted_right_rejected(self):
        op = merge([(1, "a"), (3, "c")], [(2, "x"), (1, "y")])
        with pytest.raises(PlanError):
            op.execute()

    def test_composes_with_external_sort(self):
        left = ExternalSort(
            ListSource([(3, "c"), (1, "a"), (2, "b")]), key=lambda r: r[0]
        )
        right = ExternalSort(
            ListSource([(2, "y"), (1, "x")]), key=lambda r: r[0]
        )
        op = MergeJoin(
            left, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
        )
        assert [(l[0]) for l, _r in op.execute()] == [1, 2]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 9), max_size=25),
    st.lists(st.integers(0, 9), max_size=25),
)
def test_merge_equals_hash_join(left_keys, right_keys):
    left = sorted((k, f"L{i}") for i, k in enumerate(left_keys))
    right = sorted((k, f"R{i}") for i, k in enumerate(right_keys))
    merged = merge(left, right).execute()
    hashed = HashJoin(
        build=ListSource(right),
        probe=ListSource(left),
        build_key=lambda r: r[0],
        probe_key=lambda r: r[0],
    ).execute()
    assert sorted(merged) == sorted(hashed)
