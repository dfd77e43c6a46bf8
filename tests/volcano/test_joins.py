"""Tests for join operators and the one-to-one match operator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.iterator import ListSource
from repro.volcano.joins import (
    HashJoin,
    NestedLoopsJoin,
    OneToOneMatch,
    PointerJoin,
)

LEFT = [(1, "a"), (2, "b"), (3, "c")]
RIGHT = [(2, "x"), (3, "y"), (3, "z"), (4, "w")]


def reference_join(left, right):
    return sorted(
        (l, r) for l in left for r in right if l[0] == r[0]
    )


class TestNestedLoopsJoin:
    def test_equi_join(self):
        op = NestedLoopsJoin(
            ListSource(LEFT),
            ListSource(RIGHT),
            predicate=lambda l, r: l[0] == r[0],
        )
        assert sorted(op.execute()) == reference_join(LEFT, RIGHT)

    def test_arbitrary_predicate(self):
        op = NestedLoopsJoin(
            ListSource([1, 5]),
            ListSource([2, 4, 6]),
            predicate=lambda l, r: r > l,
            combine=lambda l, r: (l, r),
        )
        assert op.execute() == [(1, 2), (1, 4), (1, 6), (5, 6)]

    def test_empty_sides(self):
        op = NestedLoopsJoin(
            ListSource([]), ListSource(RIGHT), predicate=lambda l, r: True
        )
        assert op.execute() == []
        op = NestedLoopsJoin(
            ListSource(LEFT), ListSource([]), predicate=lambda l, r: True
        )
        assert op.execute() == []

    def test_inner_reopened_per_outer_row(self):
        opens = []

        class CountingSource(ListSource):
            def _open(self):
                opens.append(1)
                super()._open()

        op = NestedLoopsJoin(
            ListSource([1, 2, 3]),
            CountingSource([1]),
            predicate=lambda l, r: False,
        )
        op.execute()
        assert len(opens) == 3


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
        nested = NestedLoopsJoin(
            ListSource(left),
            ListSource(right),
            predicate=lambda l, r: l[0] == r[0],
        ).execute()
        assert sorted(hashed) == sorted(nested)


class TestPointerJoin:
    def test_dereferences_oids(self, store):
        extent = store.disk.allocate(1)
        target = Oid(1, 1)
        store.store_at(target, ObjectRecord(ints=[99, 0, 0, 0]), extent.start)
        rows = PointerJoin(
            ListSource([("row", target)]),
            store,
            extract=lambda r: r[1],
        ).execute()
        assert len(rows) == 1
        row, oid, record = rows[0]
        assert oid == target
        assert record.ints[0] == 99

    def test_skips_null_and_none(self, store):
        from repro.storage.oid import NULL_OID

        rows = PointerJoin(
            ListSource([("a", NULL_OID), ("b", None)]),
            store,
            extract=lambda r: r[1],
        ).execute()
        assert rows == []


class TestOneToOneMatch:
    def test_inner_match_is_one_to_one(self):
        op = OneToOneMatch(
            ListSource([1, 1, 2]),
            ListSource([1, 2, 2]),
            left_key=lambda r: r,
            right_key=lambda r: r,
        )
        # Each row matches at most one partner: 1-1 and 2-2 once each,
        # the surplus 1 (left) and 2 (right) stay unmatched.
        assert sorted(op.execute()) == [(1, 1), (2, 2)]

    def test_left_unmatched(self):
        op = OneToOneMatch(
            ListSource([1, 2, 3]),
            ListSource([2]),
            left_key=lambda r: r,
            right_key=lambda r: r,
            emit_matched=False,
            emit_left_unmatched=True,
            combine=lambda l, r: l,
        )
        assert op.execute() == [1, 3]

    def test_full_outer_shape(self):
        op = OneToOneMatch(
            ListSource([1, 2]),
            ListSource([2, 3]),
            left_key=lambda r: r,
            right_key=lambda r: r,
            emit_matched=True,
            emit_left_unmatched=True,
            emit_right_unmatched=True,
        )
        assert sorted(op.execute(), key=str) == sorted(
            [(1, None), (2, 2), (None, 3)], key=str
        )

    def test_must_emit_something(self):
        with pytest.raises(PlanError):
            OneToOneMatch(
                ListSource([]),
                ListSource([]),
                left_key=lambda r: r,
                right_key=lambda r: r,
                emit_matched=False,
            )

    def test_intersection(self):
        op = OneToOneMatch.intersection(
            ListSource([1, 2, 2, 3]), ListSource([2, 2, 4])
        )
        assert sorted(op.execute()) == [2, 2]

    def test_difference(self):
        op = OneToOneMatch.difference(
            ListSource([1, 2, 2, 3]), ListSource([2])
        )
        assert sorted(op.execute()) == [1, 2, 3]

    def test_union(self):
        op = OneToOneMatch.union(ListSource([1, 2]), ListSource([2, 3]))
        assert sorted(op.execute()) == [1, 2, 3]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 6), max_size=20),
        st.lists(st.integers(0, 6), max_size=20),
    )
    def test_difference_matches_multiset_semantics(self, left, right):
        got = sorted(
            OneToOneMatch.difference(
                ListSource(left), ListSource(right)
            ).execute()
        )
        # Multiset difference: remove one left occurrence per right one.
        expected = list(left)
        for value in right:
            if value in expected:
                expected.remove(value)
        assert got == sorted(expected)
