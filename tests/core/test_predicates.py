"""Tests for selection predicates."""

import pytest

from repro.core.predicates import (
    Predicate,
    int_field_predicate,
    int_less_than,
)
from repro.errors import TemplateError
from repro.storage.record import ObjectRecord
from tests.helpers import always_true


def record(*ints):
    values = list(ints) + [0] * (4 - len(ints))
    return ObjectRecord(ints=values)


class TestPredicate:
    def test_evaluate(self):
        pred = Predicate("positive", lambda r: r.ints[0] > 0, selectivity=0.5)
        assert pred.evaluate(record(1))
        assert not pred.evaluate(record(-1))

    def test_rejection_probability(self):
        assert Predicate("p", lambda r: True, 0.3).rejection_probability == pytest.approx(0.7)

    def test_selectivity_bounds(self):
        with pytest.raises(TemplateError):
            Predicate("bad", lambda r: True, selectivity=1.5)
        with pytest.raises(TemplateError):
            Predicate("bad", lambda r: True, selectivity=-0.1)

    def test_str(self):
        assert "0.25" in str(Predicate("p", lambda r: True, 0.25))


class TestHelpers:
    def test_int_field_predicate(self):
        pred = int_field_predicate("even", 2, lambda v: v % 2 == 0, 0.5)
        assert pred.evaluate(record(0, 0, 4))
        assert not pred.evaluate(record(0, 0, 5))

    def test_int_field_negative_slot(self):
        with pytest.raises(TemplateError):
            int_field_predicate("bad", -1, lambda v: True, 0.5)

    def test_int_less_than(self):
        pred = int_less_than(0, 100, 0.1)
        assert pred.evaluate(record(99))
        assert not pred.evaluate(record(100))
        assert pred.selectivity == 0.1

    def test_always_true_false(self):
        assert always_true().evaluate(record(0))


class TestConjunction:
    def test_ands_tests_and_multiplies_selectivities(self):
        from repro.core.predicates import conjunction

        both = conjunction(
            [int_less_than(0, 10, 0.5), int_field_predicate(
                "even", 0, lambda v: v % 2 == 0, 0.5
            )]
        )
        assert both.selectivity == pytest.approx(0.25)
        assert both.evaluate(record(4))
        assert not both.evaluate(record(5))   # odd
        assert not both.evaluate(record(12))  # too big
        assert "AND" in both.name

    def test_single_predicate_passthrough(self):
        from repro.core.predicates import conjunction

        single = int_less_than(0, 10, 0.5)
        assert conjunction([single]) is single

    def test_empty_rejected(self):
        from repro.core.predicates import conjunction

        with pytest.raises(TemplateError):
            conjunction([])
