"""Tests for hash aggregation."""

from repro.volcano.aggregate import HashAggregate
from repro.iterator import ListSource

ROWS = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("a", 5)]


def count_aggregate(child, group_key):
    """``(key, count)`` per group."""
    return HashAggregate(
        child, group_key, init=lambda: 0, step=lambda acc, _row: acc + 1
    )


class TestHashAggregate:
    def test_count(self):
        op = count_aggregate(ListSource(ROWS), group_key=lambda r: r[0])
        assert sorted(op.execute()) == [("a", 3), ("b", 1), ("c", 1)]

    def test_sum(self):
        op = HashAggregate(
            ListSource(ROWS),
            group_key=lambda r: r[0],
            init=lambda: 0,
            step=lambda acc, row: acc + row[1],
        )
        assert sorted(op.execute()) == [("a", 9), ("b", 2), ("c", 4)]

    def test_custom_fold(self):
        """Any fold shapes the accumulator; each group leaves as one
        ``(key, accumulator)`` row."""
        op = HashAggregate(
            ListSource(ROWS),
            group_key=lambda r: r[0],
            init=lambda: 0,
            step=lambda acc, row: max(acc, row[1]),
        )
        assert sorted(op.execute()) == [("a", 5), ("b", 2), ("c", 4)]

    def test_empty_input(self):
        op = count_aggregate(ListSource([]), group_key=lambda r: r)
        assert op.execute() == []

    def test_single_group(self):
        op = count_aggregate(ListSource([1, 1, 1]), group_key=lambda r: "all")
        assert op.execute() == [("all", 3)]

    def test_reopen(self):
        op = count_aggregate(ListSource([1, 2]), group_key=lambda r: r)
        assert len(op.execute()) == 2
        assert len(op.execute()) == 2
