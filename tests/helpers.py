"""Small builders several suites share."""

from __future__ import annotations

from repro.core.predicates import Predicate


def always_true() -> Predicate:
    """A pass-everything predicate: exercises the predicate machinery
    without rejecting anything."""
    return Predicate(name="true", fn=lambda _record: True, selectivity=1.0)
