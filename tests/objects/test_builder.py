"""Tests for the graph builder."""

import pytest

from repro.objects.builder import GraphBuilder
from repro.objects.model import ModelError


@pytest.fixture
def builder():
    b = GraphBuilder()
    b.define_type("Node", int_fields=("value",), ref_fields=("next", "other"))
    return b


class TestBuilding:
    def test_new_object_gets_fresh_oid(self, builder):
        first = builder.new_object("Node")
        second = builder.new_object("Node")
        assert first.oid != second.oid

    def test_get(self, builder):
        obj = builder.new_object("Node")
        assert builder.get(obj.oid) is obj

    def test_get_unknown(self, builder):
        from repro.storage.oid import Oid

        with pytest.raises(ModelError):
            builder.get(Oid(1, 42))


class TestGrouping:
    def test_complex_object_claims_components(self, builder):
        child = builder.new_object("Node")
        root = builder.new_object("Node", refs={"next": child.oid})
        cobj = builder.complex_object(root, [child])
        assert cobj.root == root.oid
        assert len(cobj) == 2
        assert builder.ungrouped() == []

    def test_component_cannot_join_twice(self, builder):
        child = builder.new_object("Node")
        root1 = builder.new_object("Node", refs={"next": child.oid})
        builder.complex_object(root1, [child])
        root2 = builder.new_object("Node", refs={"next": child.oid})
        with pytest.raises(ModelError):
            builder.complex_object(root2, [child])

    def test_shared_objects(self, builder):
        shared = builder.new_object("Node")
        builder.mark_shared(shared)
        root = builder.new_object("Node", refs={"other": shared.oid})
        builder.complex_object(root)
        builder.validate()
        assert shared.oid in builder.shared_objects

    def test_shared_cannot_be_private(self, builder):
        shared = builder.new_object("Node")
        builder.mark_shared(shared)
        root = builder.new_object("Node")
        with pytest.raises(ModelError):
            builder.complex_object(root, [shared])

    def test_grouped_cannot_become_shared(self, builder):
        root = builder.new_object("Node")
        builder.complex_object(root)
        with pytest.raises(ModelError):
            builder.mark_shared(root)


class TestValidate:
    def test_ungrouped_object_fails(self, builder):
        builder.new_object("Node")
        with pytest.raises(ModelError):
            builder.validate()

    def test_dangling_reference_fails(self, builder):
        from repro.storage.oid import Oid

        root = builder.new_object("Node", refs={"next": Oid(1, 999)})
        builder.complex_object(root)
        with pytest.raises(ModelError):
            builder.validate()

    def test_clean_build_validates(self, builder):
        leaf = builder.new_object("Node", ints={"value": 2})
        root = builder.new_object("Node", ints={"value": 1}, refs={"next": leaf.oid})
        builder.complex_object(root, [leaf])
        builder.validate()
        assert len(builder.complex_objects) == 1
