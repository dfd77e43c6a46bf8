"""Tests for filter / project / limit / distinct."""

import pytest

from repro.errors import PlanError
from repro.volcano.filters import Distinct, Filter, Limit, Project
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
        assert op.observed_selectivity == pytest.approx(0.3)

    def test_selectivity_before_input(self):
        op = Filter(ListSource([]), lambda n: True)
        op.execute()
        assert op.observed_selectivity == 0.0

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


class TestLimit:
    def test_caps_output(self):
        assert Limit(ListSource(range(100)), 3).execute() == [0, 1, 2]

    def test_zero_limit(self):
        assert Limit(ListSource(range(5)), 0).execute() == []

    def test_limit_larger_than_input(self):
        assert Limit(ListSource(range(2)), 10).execute() == [0, 1]

    def test_negative_rejected(self):
        with pytest.raises(PlanError):
            Limit(ListSource([]), -1)

    def test_stops_pulling_from_child(self):
        pulled = []

        def gen():
            for n in range(100):
                pulled.append(n)
                yield n

        from repro.iterator import GeneratorSource

        Limit(GeneratorSource(gen), 2).execute()
        assert len(pulled) == 2


class TestDistinct:
    def test_removes_duplicates(self):
        op = Distinct(ListSource([1, 2, 1, 3, 2]))
        assert op.execute() == [1, 2, 3]

    def test_key_function(self):
        op = Distinct(
            ListSource([(1, "a"), (1, "b"), (2, "c")]), key=lambda r: r[0]
        )
        assert op.execute() == [(1, "a"), (2, "c")]

    def test_reopen_resets_seen(self):
        op = Distinct(ListSource([1, 1]))
        assert op.execute() == [1]
        assert op.execute() == [1]
