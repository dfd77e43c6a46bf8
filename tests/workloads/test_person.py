"""Tests for the Person/Residence example workload (paper Section 4)."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.core.assembly import Assembly
from repro.errors import ReproError
from repro.objects.model import validate_database
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.volcano.filters import Filter
from repro.iterator import ListSource
from repro.workloads import person
from repro.workloads.person import (
    FATHER_SLOT,
    RESIDENCE_SLOT,
    generate_people,
    lives_close_to_father,
    person_template,
)


class TestGenerator:
    def test_structure(self):
        db = generate_people(10, seed=1)
        assert len(db.complex_objects) == 10
        validate_database(db.complex_objects, db.shared_pool)

    def test_father_and_residence_wired(self):
        db = generate_people(5, seed=2)
        cobj = db.complex_objects[0]
        child = cobj.objects[cobj.root]
        assert "father" in child.refs
        assert "residence" in child.refs
        father = cobj.objects[child.refs["father"]]
        assert "residence" in father.refs

    def test_shared_residences_occur(self, monkeypatch):
        monkeypatch.setattr(person, "SHARE_RESIDENCE_PROBABILITY", 1.0)
        db = generate_people(50, seed=3)
        for cobj in db.complex_objects:
            child = cobj.objects[cobj.root]
            father = cobj.objects[child.refs["father"]]
            assert child.refs["residence"] == father.refs["residence"]
            assert len(cobj) == 3  # child, father, one shared residence

    def test_no_sharing_when_probability_zero(self, monkeypatch):
        monkeypatch.setattr(person, "SHARE_RESIDENCE_PROBABILITY", 0.0)
        db = generate_people(20, seed=4)
        assert all(len(c) == 4 for c in db.complex_objects)

    def test_oracle_shape(self):
        db = generate_people(30, seed=5)
        assert len(db.close_to_father) == 30
        assert any(db.close_to_father)

    def test_bad_parameters(self):
        with pytest.raises(ReproError):
            generate_people(0)
        with pytest.raises(ReproError):
            generate_people(5, n_cities=0)

    def test_orphans_have_no_father(self, monkeypatch):
        monkeypatch.setattr(person, "ORPHAN_PROBABILITY", 1.0)
        db = generate_people(30, seed=8)
        for cobj in db.complex_objects:
            child = cobj.objects[cobj.root]
            assert "father" not in child.refs
            assert len(cobj) == 2  # person + own residence
        assert not any(db.close_to_father)

    def test_mixed_orphans_validate(self, monkeypatch):
        monkeypatch.setattr(person, "ORPHAN_PROBABILITY", 0.4)
        db = generate_people(40, seed=9)
        validate_database(db.complex_objects, db.shared_pool)
        sizes = {len(c) for c in db.complex_objects}
        assert 2 in sizes  # some orphans
        assert sizes - {2}  # and some with fathers


class TestTemplate:
    def test_recursive_father_edge_unrolled(self):
        template = person_template()
        assert template.node_count == 4
        father = template.root.children[FATHER_SLOT]
        assert father.type_name == "Person"
        assert RESIDENCE_SLOT in father.children

    def test_residences_marked_shared(self):
        template = person_template()
        assert template.node("residence").shared
        assert template.node("residence+1").shared
        assert not template.node("person+1").shared


class TestQuery:
    def run_query(self, n=60, seed=7):
        db = generate_people(n, seed=seed)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        plan = Filter(
            Assembly(
                ListSource(layout.root_order),
                store,
                person_template(),
                window_size=10,
                scheduler="elevator",
            ),
            lives_close_to_father,
        )
        return db, plan.execute()

    def test_query_matches_oracle(self):
        db, close = self.run_query()
        person_ids = sorted(c.root.ints[1] for c in close)
        expected = sorted(
            2 * i for i, flag in enumerate(db.close_to_father) if flag
        )
        assert person_ids == expected

    def test_query_with_orphans_matches_oracle(self, monkeypatch):
        """Shallow data (null fathers) assembles and filters correctly."""
        monkeypatch.setattr(person, "ORPHAN_PROBABILITY", 0.3)
        db, close = self.run_query(n=80, seed=12)
        person_ids = sorted(c.root.ints[1] for c in close)
        expected = sorted(
            2 * i for i, flag in enumerate(db.close_to_father) if flag
        )
        assert person_ids == expected

    def test_assembled_people_fully_swizzled(self):
        _db, close = self.run_query(n=20)
        for cobj in close:
            cobj.verify_swizzled()
            father_home = cobj.root.follow(FATHER_SLOT, RESIDENCE_SLOT)
            own_home = cobj.root.follow(RESIDENCE_SLOT)
            assert father_home.ints[0] == own_home.ints[0]
