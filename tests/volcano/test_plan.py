"""Tests for plan explain and validation."""

import pytest

from repro.errors import PlanError
from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource
from repro.volcano.joins import HashJoin
from repro.volcano.plan import (
    child_operators,
    collect_operators,
    explain,
    validate_plan,
    walk_plan,
)


def make_plan():
    return Filter(
        Project(ListSource([1, 2, 3]), lambda n: n * 2),
        lambda n: n > 2,
    )


class TestDiscovery:
    def test_child_operators(self):
        plan = make_plan()
        children = child_operators(plan)
        assert len(children) == 1
        assert isinstance(children[0], Project)

    def test_join_has_two_children(self):
        join = HashJoin(
            build=ListSource([1]),
            probe=ListSource([1]),
            build_key=lambda r: r,
            probe_key=lambda r: r,
        )
        assert len(child_operators(join)) == 2

    def test_collect_pre_order(self):
        names = [type(op).__name__ for op in collect_operators(make_plan())]
        assert names == ["Filter", "Project", "ListSource"]

    def test_walk_depths(self):
        depths = [depth for depth, _op in walk_plan(make_plan())]
        assert depths == [0, 1, 2]


class TestExplain:
    def test_indented_tree(self):
        text = explain(make_plan())
        assert text == "Filter\n  Project\n    ListSource"

    def test_describe_hook(self):
        class Described(ListSource):
            def describe(self):
                return "ListSource(n=3)"

        text = explain(Described([1, 2, 3]))
        assert text == "ListSource(n=3)"

    def test_assembly_plan_explains(self, small_acob, small_layout):
        from repro.core.assembly import Assembly
        from repro.workloads.acob import make_template

        plan = Filter(
            Assembly(
                ListSource(small_layout.root_order),
                small_layout.store,
                make_template(small_acob),
            ),
            lambda c: True,
        )
        text = explain(plan)
        assert "Filter" in text
        assert "Assembly" in text
        assert "ListSource" in text


class TestValidate:
    def test_clean_plan_passes(self):
        validate_plan(make_plan())

    def test_shared_instance_rejected(self):
        shared = ListSource([1])
        join = HashJoin(
            build=shared,
            probe=shared,  # the classic mistake
            build_key=lambda r: r,
            probe_key=lambda r: r,
        )
        with pytest.raises(PlanError):
            validate_plan(join)

    def test_cyclic_plan_fails_loudly(self):
        operator = Project(ListSource([1]), lambda n: n)
        operator._child = operator  # self-cycle
        with pytest.raises(PlanError):
            validate_plan(operator)
