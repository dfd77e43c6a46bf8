"""Metamorphic suite for the plan rewrite rules.

Property: for random small plans over the assembly operator,
``validate_plan`` holds before and after
:func:`~repro.volcano.plan.push_down_component_filters`, and the
rewritten plan yields a row multiset identical to the original's —
catching rewrite bugs (dropped filters, mis-wired parents, predicate
mutation) independently of the assembly engine itself.  The same
metamorphic contract covers :func:`~repro.volcano.plan.plan_assembly_join`:
both join orders are equivalent plans, so whichever the cost rule
picks, its output must match the shape it rejected.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.errors import PlanError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.volcano.assembly import AssemblyOperator, ComponentFilter
from repro.volcano.filters import Filter
from repro.iterator import ListSource
from repro.volcano.plan import (
    explain,
    plan_assembly_join,
    push_down_component_filters,
    validate_plan,
    walk_plan,
)
from repro.volcano.sort import ExternalSort
from repro.workloads.acob import generate_acob, make_template, payload_predicate

SELECTIVITIES = (0.3, 0.7, 1.0)

_DB = generate_acob(14, seed=9)
_LABELS = [node.label for node in make_template(_DB).nodes()]


def fresh_store():
    """Bit-identical laid-out store per call (layouts are deterministic)."""
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        _DB.complex_objects,
        store,
        InterObjectClustering(cluster_pages=32),
        shared=_DB.shared_pool,
    )
    return store, layout


def build_from_recipe(recipe):
    """Construct a plan from a layer recipe over a fresh store."""
    store, layout = fresh_store()
    plan = AssemblyOperator(
        ListSource(layout.root_order), store, make_template(_DB), window_size=3
    )
    for layer in recipe:
        if layer[0] == "component":
            _kind, label_index, selectivity = layer
            plan = ComponentFilter(
                plan,
                _LABELS[label_index % len(_LABELS)],
                payload_predicate(selectivity),
            )
        elif layer[0] == "filter":
            plan = Filter(plan, lambda row: row.root.ints[0] % 2 == 0)
        else:
            plan = ExternalSort(plan, key=lambda row: repr(row.root_oid))
    return plan


def multiset(rows):
    out = []
    for row in rows:
        if hasattr(row, "root_oid"):
            walk = tuple(
                (obj.oid, obj.ints, obj.ref_oids, sorted(obj.children))
                for obj in row.root.walk()
            )
            out.append(repr((row.root_oid, walk)))
        else:
            out.append(repr(row))
    return Counter(out)


LAYER = st.one_of(
    st.tuples(
        st.just("component"),
        st.integers(min_value=0, max_value=len(_LABELS) - 1),
        st.sampled_from(SELECTIVITIES),
    ),
    st.tuples(st.just("filter")),
    st.tuples(st.just("sort")),
)


class TestPushdownMetamorphic:
    @settings(max_examples=30, deadline=None)
    @given(recipe=st.lists(LAYER, min_size=0, max_size=3))
    def test_rewrite_preserves_validity_and_multiset(self, recipe):
        original = build_from_recipe(recipe)
        validate_plan(original)
        rewritten_input = build_from_recipe(recipe)
        rewritten, decisions = push_down_component_filters(rewritten_input)
        validate_plan(rewritten)

        # Every decision removed exactly one ComponentFilter directly
        # above the assembly operator.
        def count_component_filters(plan):
            return sum(
                1
                for _depth, op in walk_plan(plan)
                if isinstance(op, ComponentFilter)
            )

        assert count_component_filters(rewritten) == (
            count_component_filters(original) - len(decisions)
        )
        assert multiset(rewritten.execute()) == multiset(original.execute())

    def test_direct_pushdown_folds_into_template(self):
        plan = build_from_recipe([("component", 1, 0.7)])
        operator = plan._child
        assert operator.template.predicate_count == 0
        rewritten, decisions = push_down_component_filters(plan)
        assert rewritten is operator
        assert len(decisions) == 1
        assert decisions[0].label == _LABELS[1]
        assert decisions[0].selectivity == pytest.approx(0.7)
        assert operator.template.predicate_count == 1
        assert "pushed=1" in explain(rewritten)

    def test_stacked_filters_conjoin(self):
        plan = build_from_recipe(
            [("component", 1, 0.7), ("component", 1, 0.5)]
        )
        rewritten, decisions = push_down_component_filters(plan)
        assert len(decisions) == 2
        # Both predicates conjoin on the same node: one conjunction.
        assert rewritten.template.predicate_count == 1
        node = rewritten.template.node(_LABELS[1])
        assert node.predicate.selectivity == pytest.approx(0.7 * 0.5)

    def test_interposed_operator_blocks_the_rule(self):
        plan = build_from_recipe([("sort",), ("component", 2, 0.7)])
        rewritten, decisions = push_down_component_filters(plan)
        assert decisions == []
        assert rewritten is plan

    def test_rewriting_an_open_plan_is_rejected(self):
        plan = build_from_recipe([("component", 1, 0.7)])
        plan.open()
        with pytest.raises(PlanError):
            push_down_component_filters(plan)
        plan.close()


class TestEngineInThePlan:
    """The engine itself sits in the plan: what the facade used to
    guarantee by building a fresh engine per ``open`` must hold for the
    one engine object."""

    @staticmethod
    def _run(operator, store):
        """(rows, disk stats, aborted) of one execution from a cold,
        rewound store — the state every execution below starts in."""
        store.buffer.drop_clean()
        store.disk.reset_stats()
        rows = multiset(operator.execute())
        return rows, store.disk.stats.snapshot(), operator.stats.aborted

    def test_pushdown_then_reopen_matches_a_fresh_engine(self):
        store, layout = fresh_store()
        operator = AssemblyOperator(
            ListSource(layout.root_order), store, make_template(_DB),
            window_size=3,
        )
        operator.push_predicate(_LABELS[1], payload_predicate(0.3))
        first = self._run(operator, store)
        second = self._run(operator, store)
        fresh = AssemblyOperator(
            ListSource(layout.root_order), store, operator.template,
            window_size=3, selective=None,
        )
        assert first == second == self._run(fresh, store)
        assert first[2] > 0  # the pushed predicate is evaluated and selective

    def test_plan_utilities_never_vars_the_engine(self, monkeypatch):
        """``vars()`` materialises an instance ``__dict__`` and slows
        every later attribute read of the hottest object in the plan
        (docs/perf.md); introspection asks the engine for its source."""
        import repro.volcano.plan as plan_module
        from repro.core.assembly import Assembly

        seen = []

        def recording_vars(obj):
            seen.append(type(obj))
            return vars(obj)

        monkeypatch.setattr(plan_module, "vars", recording_vars, raising=False)
        plan = build_from_recipe(
            [("component", 1, 0.7), ("sort",), ("component", 2, 0.3)]
        )
        validate_plan(plan)
        rewritten, decisions = push_down_component_filters(plan)
        assert len(decisions) == 1
        validate_plan(rewritten)
        assert "Assembly(" in explain(rewritten)
        assert seen and Assembly not in seen


class TestJoinOrderMetamorphic:
    def _run(self, join_fraction):
        store, layout = fresh_store()
        roots = layout.root_order
        keep = max(1, int(len(roots) * join_fraction))
        build_rows = [(oid, index) for index, oid in enumerate(roots[:keep])]
        planned = plan_assembly_join(
            roots,
            build_rows,
            lambda item: item[0],
            store,
            make_template(_DB),
            pages_spanned=layout.pages_spanned(),
            window_size=3,
        )
        return planned, roots, build_rows

    @pytest.mark.parametrize("join_fraction", [0.2, 1.0])
    def test_both_shapes_are_equivalent(self, join_fraction):
        planned, roots, build_rows = self._run(join_fraction)
        validate_plan(planned.plan)
        chosen_rows = planned.plan.execute()

        # Rebuild the rejected shape by inverting the cost comparison.
        from repro.volcano.plan import _assemble_then_join, _join_then_assemble

        store2, layout2 = fresh_store()
        other_builder = (
            _assemble_then_join
            if planned.choice.shape == "join-then-assemble"
            else _join_then_assemble
        )
        other = other_builder(
            layout2.root_order,
            build_rows,
            lambda item: item[0],
            store2,
            make_template(_DB),
            dict(window_size=3),
        )
        validate_plan(other)
        assert multiset(chosen_rows) == multiset(other.execute())

    def test_selective_join_assembles_below(self):
        planned, _roots, _build = self._run(0.2)
        assert planned.choice.shape == "join-then-assemble"
        assert planned.choice.cost_join_first < planned.choice.cost_assemble_first

    def test_full_join_assembles_above(self):
        planned, _roots, _build = self._run(1.0)
        assert planned.choice.shape == "assemble-then-join"

    def test_explain_renders_the_choice(self):
        planned, _roots, _build = self._run(0.2)
        rendering = planned.explain()
        assert "join order: join-then-assemble" in rendering
        assert "Assembly(" in rendering
        assert "HashJoin" in rendering
