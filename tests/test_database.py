"""Tests for the Database façade."""

import pytest

from repro import Database
from repro.cluster.policies import IntraObjectClustering
from repro.errors import ReproError
from repro.objects.builder import GraphBuilder
from repro.workloads.person import (
    RESIDENCE_SLOT,
    lives_close_to_father,
    person_template,
)


def build_people_db(n=40, buffer_capacity=None, clustering="inter-object"):
    from repro.workloads.person import generate_people

    source = generate_people(n, seed=31)
    database = Database(buffer_capacity=buffer_capacity)
    # The workload carries its own registry; load the raw objects.
    database.load(
        source.complex_objects,
        clustering=clustering,
        shared=source.shared_pool,
        cluster_pages=64,
    )
    return source, database


class TestLoad:
    def test_load_by_policy_name(self):
        _source, database = build_people_db()
        assert len(database.store.directory.rids) > 40
        assert len(database.query(person_template()).plan().execute()) == 40

    def test_load_twice_rejected(self):
        source, database = build_people_db()
        with pytest.raises(ReproError):
            database.load(source.complex_objects)

    def test_unknown_policy_rejected(self):
        database = Database()
        with pytest.raises(ReproError):
            database.load([], clustering="diagonal")

    def test_policy_instance_accepted(self):
        from repro.workloads.person import generate_people

        source = generate_people(5, seed=1)
        database = Database()
        database.load(
            source.complex_objects,
            clustering=IntraObjectClustering(),
            shared=source.shared_pool,
        )
        assert len(database.query(person_template()).plan().execute()) == 5

    def test_builder_load_validates(self):
        database = Database()
        builder = GraphBuilder(database.registry)
        builder.define_type("Solo", int_fields=("x",))
        root = builder.new_object("Solo", ints={"x": 1})
        builder.complex_object(root)
        database.load(builder, clustering="unclustered")
        assert list(database.store.directory.rids) == [root.oid]

    def test_unloaded_access_rejected(self):
        database = Database()
        with pytest.raises(ReproError):
            database.query(person_template()).plan()


class TestQuerying:
    def test_query_runs_through_optimizer(self):
        source, database = build_people_db()
        results = database.query(person_template()).plan().execute()
        assert len(results) == 40
        for cobj in results:
            cobj.verify_swizzled()

    def test_residual_filter_matches_oracle(self):
        source, database = build_people_db()
        results = (
            database.query(person_template())
            .where(lives_close_to_father)
            .plan()
            .execute()
        )
        assert len(results) == sum(source.close_to_father)

    def test_component_predicate_pushdown(self):
        from repro.core.predicates import Predicate

        source, database = build_people_db()
        in_city_zero = Predicate(
            "city == 0", lambda r: r.ints[0] == 0, selectivity=0.05
        )
        bound = database.query(person_template()).where_component(
            "residence", in_city_zero
        )
        plan = bound.plan()
        assert plan.choice.scheduler == "adaptive"
        results = plan.execute()
        assert all(
            c.root.follow(RESIDENCE_SLOT).ints[0] == 0 for c in results
        )

    def test_explain(self):
        _source, database = build_people_db()
        text = database.query(person_template()).explain()
        assert "Assembly" in text and "scheduler=" in text

    def test_projection(self):
        _source, database = build_people_db()
        ages = (
            database.query(person_template())
            .select(lambda c: c.root.ints[0])
            .plan()
            .execute()
        )
        assert len(ages) == 40
        assert all(isinstance(age, int) for age in ages)


class TestWindowFromBuffer:
    def test_restricted_buffer_limits_window(self):
        _source, database = build_people_db(buffer_capacity=64)
        plan = database.query(person_template()).plan()
        # person template has 4 nodes: 3*(W-1)+4 <= 64-8 => W <= 18
        assert plan.choice.window_size == 18
        assert plan.execute()
