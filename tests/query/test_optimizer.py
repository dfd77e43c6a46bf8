"""Tests for the rule-based optimizer."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.errors import PlanError
from repro.query.logical import retrieve
from repro.query.optimizer import Optimizer
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob, make_template, payload_predicate


@pytest.fixture
def loaded():
    db = generate_acob(40, seed=8)
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(db.complex_objects, store, Unclustered())
    return db, store, layout


class TestRules:
    def test_pushdown_into_template_clone(self, loaded):
        db, store, layout = loaded
        template = make_template(db)
        query = retrieve(template).where_component("n1", payload_predicate(0.5))
        plan = Optimizer().optimize(query, store, layout.root_order)
        assert plan.choice.pushed_predicates == 1
        # The catalog template is untouched.
        assert template.predicate_count == 0

    def test_scheduler_rule(self, loaded):
        db, store, layout = loaded
        plain = Optimizer().optimize(
            retrieve(make_template(db)), store, layout.root_order
        )
        assert plain.choice.scheduler == "elevator"
        selective = Optimizer().optimize(
            retrieve(make_template(db)).where_component(
                "n1", payload_predicate(0.5)
            ),
            store,
            layout.root_order,
        )
        assert selective.choice.scheduler == "adaptive"

    def test_window_rule_unbounded_buffer(self, loaded):
        db, store, layout = loaded
        plan = Optimizer(buffer_capacity=None).optimize(
            retrieve(make_template(db)), store, layout.root_order
        )
        assert plan.choice.window_size == 50  # the paper's knee

    def test_window_rule_restricted_buffer(self, loaded):
        db, store, layout = loaded
        plan = Optimizer(buffer_capacity=128).optimize(
            retrieve(make_template(db)), store, layout.root_order
        )
        # 6*(W-1)+7 <= 128-8 => W <= 19
        assert plan.choice.window_size == 19

    def test_conjunction_on_one_component(self, loaded):
        """Two predicates on the same component AND together."""
        db, store, layout = loaded
        query = (
            retrieve(make_template(db))
            .where_component("n1", payload_predicate(0.5))
            .where_component("n1", payload_predicate(0.9))
        )
        plan = Optimizer().optimize(query, store, layout.root_order)
        results = plan.execute()
        # payload < 0.5*R AND payload < 0.9*R == payload < 0.5*R.
        from repro.workloads.acob import PAYLOAD_RANGE

        expected = sum(
            1 for payloads in db.payloads
            if payloads[1] < 0.5 * PAYLOAD_RANGE
        )
        assert len(results) == expected
        assert plan.choice.pushed_predicates == 2

    def test_query_predicate_stacks_on_catalog_predicate(self, loaded):
        """A catalog-level predicate conjoins with the query's."""
        db, store, layout = loaded
        catalog = make_template(
            db, predicate_position=1, predicate=payload_predicate(0.8)
        )
        query = retrieve(catalog).where_component(
            "n1", payload_predicate(0.3)
        )
        plan = Optimizer().optimize(query, store, layout.root_order)
        results = plan.execute()
        from repro.workloads.acob import PAYLOAD_RANGE

        expected = sum(
            1 for payloads in db.payloads
            if payloads[1] < 0.3 * PAYLOAD_RANGE
        )
        assert len(results) == expected
        # The catalog template itself is untouched.
        assert catalog.node("n1").predicate.name.count("AND") == 0

    def test_roots_required(self, loaded):
        db, store, _layout = loaded
        with pytest.raises(PlanError):
            Optimizer().optimize(retrieve(make_template(db)), store)


class TestExecution:
    def test_end_to_end_matches_manual_assembly(self, loaded):
        db, store, layout = loaded
        query = retrieve(make_template(db)).where_component(
            "n1", payload_predicate(0.5)
        )
        plan = Optimizer().optimize(query, store, layout.root_order)
        results = plan.execute()
        assert plan.assembly.stats.emitted == len(results)
        assert plan.assembly.stats.aborted == 40 - len(results)
        # Oracle from the generator's recorded payloads.
        from repro.workloads.acob import PAYLOAD_RANGE

        expected = sum(
            1 for payloads in db.payloads
            if payloads[1] < 0.5 * PAYLOAD_RANGE
        )
        assert len(results) == expected

    def test_residual_and_projection(self, loaded):
        db, store, layout = loaded
        query = (
            retrieve(make_template(db))
            .where(lambda c: c.root.ints[0] % 2 == 0)
            .select(lambda c: c.root.ints[0])
        )
        plan = Optimizer().optimize(query, store, layout.root_order)
        results = plan.execute()
        assert results
        assert all(isinstance(v, int) and v % 2 == 0 for v in results)

    def test_explain_contains_choices(self, loaded):
        db, store, layout = loaded
        plan = Optimizer().optimize(
            retrieve(make_template(db)), store, layout.root_order
        )
        text = plan.explain()
        assert "Assembly" in text
        assert "scheduler=elevator" in text
        assert "window=50" in text
