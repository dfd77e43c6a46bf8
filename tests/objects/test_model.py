"""Tests for the application-level object model."""

import copy
import pickle

import pytest

from repro.objects.model import (
    ComplexObjectDef,
    ModelError,
    ObjectDef,
    TypeRegistry,
    validate_database,
)
from repro.storage.oid import NULL_OID, Oid


@pytest.fixture
def registry():
    reg = TypeRegistry()
    reg.define("Person", int_fields=("age",), ref_fields=("father", "home"))
    reg.define("Residence", int_fields=("city",))
    return reg


class TestObjectType:
    def test_slots_by_name(self, registry):
        person = registry.by_name("Person")
        assert person.int_slot("age") == 0
        assert person.ref_slot("father") == 0
        assert person.ref_slot("home") == 1

    def test_unknown_field(self, registry):
        with pytest.raises(ModelError):
            registry.by_name("Person").int_slot("height")

    def test_too_many_fields(self):
        reg = TypeRegistry()
        with pytest.raises(ModelError):
            reg.define("Wide", int_fields=tuple(f"i{i}" for i in range(5)))
        with pytest.raises(ModelError):
            reg.define("Wide2", ref_fields=tuple(f"r{i}" for i in range(9)))

    def test_duplicate_field_names(self):
        reg = TypeRegistry()
        with pytest.raises(ModelError):
            reg.define("Bad", int_fields=("x",), ref_fields=("x",))

    def test_slot_maps_leave_value_semantics_alone(self, registry):
        """The name -> slot dicts are no dataclass fields: equality,
        hashing, repr, copies and pickles are what the fields say."""
        person = registry.by_name("Person")
        twin = copy.deepcopy(person)
        assert twin == person and hash(twin) == hash(person)
        assert repr(twin) == repr(person)
        assert "_int_slots" not in repr(person)
        restored = pickle.loads(pickle.dumps(person))
        assert restored == person
        assert [restored.ref_slot(n) for n in ("father", "home")] == [0, 1]


class TestTypeRegistry:
    def test_dense_type_ids(self, registry):
        assert registry.by_name("Person").type_id == 1
        assert registry.by_name("Residence").type_id == 2

    def test_duplicate_type_name(self, registry):
        with pytest.raises(ModelError):
            registry.define("Person")

    def test_unknown_lookups(self, registry):
        with pytest.raises(ModelError):
            registry.by_name("Ghost")

    def test_new_oid_sequences_per_type(self, registry):
        first = registry.new_oid("Person")
        second = registry.new_oid("Person")
        other = registry.new_oid("Residence")
        assert first == Oid(1, 1)
        assert second == Oid(1, 2)
        assert other == Oid(2, 1)


class TestObjectDef:
    def test_to_record_pads_slots(self, registry):
        person = registry.by_name("Person")
        oid = registry.new_oid("Person")
        target = Oid(2, 1)
        obj = ObjectDef(oid=oid, otype=person, ints={"age": 30}, refs={"home": target})
        record = obj.to_record()
        assert record.ints == [30, 0, 0, 0]
        assert record.refs[1] == target
        assert record.refs[0] == NULL_OID

    def test_oid_type_mismatch(self, registry):
        person = registry.by_name("Person")
        with pytest.raises(ModelError):
            ObjectDef(oid=Oid(2, 1), otype=person)

    def test_unknown_fields_rejected(self, registry):
        person = registry.by_name("Person")
        oid = registry.new_oid("Person")
        with pytest.raises(ModelError):
            ObjectDef(oid=oid, otype=person, ints={"height": 1})
        with pytest.raises(ModelError):
            ObjectDef(oid=oid, otype=person, refs={"age": Oid(1, 1)})

    def test_field_added_after_construction_fails_to_render(self, registry):
        person = registry.by_name("Person")
        obj = ObjectDef(oid=registry.new_oid("Person"), otype=person)
        obj.refs["mother"] = Oid(1, 7)
        with pytest.raises(ModelError, match="mother"):
            obj.to_record()

    def test_referenced_oids_in_field_order(self, registry):
        person = registry.by_name("Person")
        oid = registry.new_oid("Person")
        obj = ObjectDef(
            oid=oid,
            otype=person,
            refs={"home": Oid(2, 2), "father": Oid(1, 9)},
        )
        assert obj.referenced_oids() == [Oid(1, 9), Oid(2, 2)]


def build_person_complex(registry, with_father=True):
    person_t = registry.by_name("Person")
    res_t = registry.by_name("Residence")
    home = ObjectDef(oid=registry.new_oid("Residence"), otype=res_t, ints={"city": 1})
    refs = {"home": home.oid}
    objects = {home.oid: home}
    if with_father:
        father = ObjectDef(oid=registry.new_oid("Person"), otype=person_t)
        refs["father"] = father.oid
        objects[father.oid] = father
    root = ObjectDef(oid=registry.new_oid("Person"), otype=person_t, refs=refs)
    objects[root.oid] = root
    return ComplexObjectDef(root=root.oid, objects=objects)


class TestComplexObjectDef:
    def test_root_must_be_member(self, registry):
        with pytest.raises(ModelError):
            ComplexObjectDef(root=Oid(1, 99), objects={})

    def test_add_duplicate(self, registry):
        cobj = build_person_complex(registry)
        with pytest.raises(ModelError):
            cobj.add(cobj.objects[cobj.root])

    def test_traverse_depth_first_order(self, registry):
        cobj = build_person_complex(registry)
        order = cobj.traverse_depth_first()
        assert order[0].oid == cobj.root
        # father (slot 0) before home (slot 1)
        assert order[1].otype.name == "Person"
        assert order[2].otype.name == "Residence"


class TestValidateDatabase:
    def test_valid_database_passes(self, registry):
        database = [build_person_complex(registry) for _ in range(3)]
        validate_database(database)

    def test_dangling_reference(self, registry):
        cobj = build_person_complex(registry)
        cobj.objects[cobj.root].refs["father"] = Oid(1, 999)
        with pytest.raises(ModelError):
            validate_database([cobj])

    def test_shared_pool_satisfies_reference(self, registry):
        cobj = build_person_complex(registry, with_father=False)
        shared_oid = registry.new_oid("Residence")
        shared = ObjectDef(
            oid=shared_oid, otype=registry.by_name("Residence")
        )
        cobj.objects[cobj.root].refs["home"] = shared_oid
        validate_database([cobj], {shared_oid: shared})

    def test_object_in_two_complexes(self, registry):
        one = build_person_complex(registry)
        two = build_person_complex(registry)
        stolen = one.objects[one.root]
        two.objects[stolen.oid] = stolen
        with pytest.raises(ModelError):
            validate_database([one, two])
