"""Tests for the logical query representation."""

import pytest

from repro.core.predicates import int_less_than
from repro.core.template import binary_tree_template
from repro.errors import PlanError, TemplateError
from repro.query.logical import retrieve
from tests.helpers import always_true


@pytest.fixture
def query():
    return retrieve(binary_tree_template(3))


class TestConstruction:
    def test_retrieve_defaults(self, query):
        assert query.roots is None
        assert query.component_predicates == ()
        assert query.residual_predicates == ()
        assert query.projection is None

    def test_immutable_refinement(self, query):
        refined = query.where_component("n1", always_true())
        assert query.component_predicates == ()
        assert len(refined.component_predicates) == 1

    def test_unknown_component_label_rejected_eagerly(self, query):
        with pytest.raises(TemplateError):
            query.where_component("nope", always_true())

    def test_residual_predicates_accumulate(self, query):
        refined = query.where(lambda c: True).where(lambda c: False)
        assert len(refined.residual_predicates) == 2

    def test_single_projection(self, query):
        refined = query.select(lambda c: c.root_oid)
        with pytest.raises(PlanError):
            refined.select(lambda c: c)


class TestEstimation:
    def test_selectivity_product(self, query):
        refined = (
            query
            .where_component("n1", int_less_than(3, 10, 0.5))
            .where_component("n2", int_less_than(3, 10, 0.4))
        )
        assert refined.estimated_selectivity() == pytest.approx(0.2)

    def test_no_predicates_is_one(self, query):
        assert query.estimated_selectivity() == 1.0
