"""Tests for the sharing-profile helpers (paper Section 6.4)."""

import pytest

from repro.workloads.acob import generate_acob
from repro.workloads.sharing import (
    expected_fetches_with_sharing,
    expected_fetches_without_sharing,
    measure_sharing,
)


class TestMeasureSharing:
    def test_no_sharing(self):
        db = generate_acob(10)
        profile = measure_sharing(db.complex_objects, db.shared_pool)
        assert profile.sharing_objects == 0
        assert profile.shared_objects == 0
        assert profile.degree == 0.0
        assert profile.duplicate_references == 0

    def test_quarter_sharing(self):
        db = generate_acob(100, sharing=0.25, seed=1)
        profile = measure_sharing(db.complex_objects, db.shared_pool)
        assert profile.sharing_objects == 100  # every object shares
        assert profile.shared_objects <= 25
        assert profile.shared_references == 100
        # Paper's ratio: shared / sharing.
        assert profile.degree == pytest.approx(
            profile.shared_objects / 100
        )

    def test_paper_example_arithmetic(self):
        """'100 objects sharing 5 sub-objects exhibit .05 sharing.'"""
        db = generate_acob(100, sharing=0.05, seed=2)
        profile = measure_sharing(db.complex_objects, db.shared_pool)
        assert len(db.shared_pool) == 5
        assert profile.degree <= 0.05

    def test_duplicate_references(self):
        db = generate_acob(40, sharing=0.1, seed=3)
        profile = measure_sharing(db.complex_objects, db.shared_pool)
        assert (
            profile.duplicate_references
            == profile.shared_references - profile.shared_objects
        )


class TestExpectedFetches:
    def test_with_vs_without(self):
        db = generate_acob(50, sharing=0.2, seed=4)
        with_stats = expected_fetches_with_sharing(
            db.complex_objects, db.shared_pool
        )
        without = expected_fetches_without_sharing(
            db.complex_objects, db.shared_pool
        )
        assert without == 50 * 7  # every reference fetched
        assert with_stats < without

    def test_oracle_matches_assembly(self):
        """The predicted fetch counts are exactly what assembly does."""
        from repro.cluster.layout import layout_database
        from repro.cluster.policies import Unclustered
        from repro.core.assembly import Assembly
        from repro.storage.disk import SimulatedDisk
        from repro.storage.store import ObjectStore
        from repro.iterator import ListSource
        from repro.workloads.acob import make_template

        db = generate_acob(30, sharing=0.25, seed=5)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db, sharing=0.25),
            window_size=5,
        )
        op.execute()
        assert op.stats.fetches == expected_fetches_with_sharing(
            db.complex_objects, db.shared_pool
        )
