"""Tests for the ACOB-like benchmark database generator."""

import pytest

from repro.errors import ReproError
from repro.objects.model import validate_database
from repro.workloads import acob
from repro.workloads.acob import (
    PAYLOAD_RANGE,
    PAYLOAD_SLOT,
    generate_acob,
    make_registry,
    make_template,
    payload_predicate,
)


class TestGeometry:
    def test_three_level_binary_trees(self):
        db = generate_acob(10)
        assert db.positions == 7
        assert all(len(c) == 7 for c in db.complex_objects)
        assert len(db.complex_objects) == 10
        assert db.shared_pool == {}  # 10 x 7 objects, all private

    def test_one_type_per_position(self):
        db = generate_acob(5)
        for cobj in db.complex_objects:
            types = sorted(oid.type_id for oid in cobj.objects)
            assert types == list(range(1, 8))

    def test_tree_structure(self):
        db = generate_acob(3)
        cobj = db.complex_objects[0]
        root = cobj.objects[cobj.root]
        assert root.ints["position"] == 0
        left = cobj.objects[root.refs["left"]]
        right = cobj.objects[root.refs["right"]]
        assert left.ints["position"] == 1
        assert right.ints["position"] == 2

    def test_levels_recorded(self):
        db = generate_acob(2)
        cobj = db.complex_objects[0]
        by_pos = {o.ints["position"]: o for o in cobj.objects.values()}
        assert by_pos[0].ints["level"] == 0
        assert by_pos[1].ints["level"] == 1
        assert by_pos[6].ints["level"] == 2

    def test_validates(self):
        db = generate_acob(8)
        validate_database(db.complex_objects, db.shared_pool)

    def test_deterministic_by_seed(self):
        a = generate_acob(5, seed=42)
        b = generate_acob(5, seed=42)
        assert a.payloads == b.payloads

    def test_different_seeds_differ(self):
        a = generate_acob(5, seed=1)
        b = generate_acob(5, seed=2)
        assert a.payloads != b.payloads

    def test_two_level_trees(self, monkeypatch):
        monkeypatch.setattr(acob, "LEVELS", 2)
        db = generate_acob(4)
        assert all(len(c) == 3 for c in db.complex_objects)

    def test_bad_parameters(self):
        with pytest.raises(ReproError):
            generate_acob(0)
        with pytest.raises(ReproError):
            generate_acob(5, sharing=1.5)


class TestSharing:
    def test_pool_size_tracks_degree(self):
        db = generate_acob(100, sharing=0.05)
        assert len(db.shared_pool) == 5

    def test_shared_position_not_private(self):
        db = generate_acob(20, sharing=0.25)
        for cobj in db.complex_objects:
            assert len(cobj) == 6  # position 6 comes from the pool
            positions = {o.ints["position"] for o in cobj.objects.values()}
            assert 6 not in positions

    def test_references_land_in_pool(self):
        db = generate_acob(20, sharing=0.25)
        # Every reference is private or lands in the pool ...
        validate_database(db.complex_objects, db.shared_pool)
        for cobj in db.complex_objects:
            # ... and exactly one per complex object lands in the pool.
            refs = [t for obj in cobj for t in obj.referenced_oids()]
            assert sum(t in db.shared_pool for t in refs) == 1



class TestDiskOrders:
    def test_depth_first_order(self):
        db = generate_acob(2)
        order = db.type_ids_depth_first()
        types = [db.registry.by_name(f"T{p}") for p in range(7)]
        name = {t.type_id: t.name for t in types}
        assert [name[t] for t in order] == [
            "T0", "T1", "T3", "T4", "T2", "T5", "T6",
        ]


class TestTemplateAndPredicates:
    def test_template_matches_database(self):
        db = generate_acob(3)
        template = make_template(db)
        assert template.node_count == 7

    def test_template_sharing_annotation(self):
        db = generate_acob(3, sharing=0.25)
        template = make_template(db, sharing=0.25)
        node = template.node("n6")
        assert node.shared
        assert node.sharing_degree == 0.25

    def test_template_predicate_annotation(self):
        db = generate_acob(3)
        template = make_template(
            db, predicate_position=2, predicate=payload_predicate(0.3)
        )
        assert template.predicate_count == 1
        assert template.node("n2").predicate is not None

    def test_predicate_position_without_predicate(self):
        db = generate_acob(3)
        with pytest.raises(ReproError):
            make_template(db, predicate_position=2)

    def test_payload_predicate_selectivity_is_true_rate(self):
        """The payload field is uniform, so the predicate's pass rate
        converges on its nominal selectivity."""
        db = generate_acob(2000, seed=13)
        predicate = payload_predicate(0.3)
        passing = sum(
            1 for payloads in db.payloads
            if payloads[1] < 0.3 * PAYLOAD_RANGE
        )
        assert passing / 2000 == pytest.approx(0.3, abs=0.03)
        assert predicate.selectivity == 0.3

    def test_payload_predicate_bounds(self):
        with pytest.raises(ReproError):
            payload_predicate(1.2)

    def test_registry_field_layout(self):
        registry = make_registry()
        t0 = registry.by_name("T0")
        assert t0.int_fields == ("id", "level", "position", "payload")
        assert t0.int_slot("payload") == PAYLOAD_SLOT
        assert t0.ref_slot("left") == 0
        assert t0.ref_slot("right") == 1
