"""Tests for filter / project."""

from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource


class TestFilter:
    def test_keeps_matching_rows(self):
        op = Filter(ListSource(range(10)), lambda n: n % 2 == 0)
        assert op.execute() == [0, 2, 4, 6, 8]

    def test_counts_and_selectivity(self):
        op = Filter(ListSource(range(10)), lambda n: n < 3)
        op.execute()
        assert op.seen == 10
        assert op.passed == 3

    def test_reopen_resets_counts(self):
        op = Filter(ListSource(range(4)), lambda n: True)
        op.execute()
        op.execute()
        assert op.seen == 4


class TestProject:
    def test_transforms_rows(self):
        op = Project(ListSource([1, 2]), lambda n: n * 10)
        assert op.execute() == [10, 20]

    def test_composes(self):
        plan = Project(
            Filter(ListSource(range(6)), lambda n: n % 2 == 1),
            lambda n: n * n,
        )
        assert plan.execute() == [1, 9, 25]
