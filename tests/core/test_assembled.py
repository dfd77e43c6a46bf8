"""Tests for the pointer-swizzled in-memory representation."""

import pytest

from repro.core.assembled import AssembledComplexObject, AssembledObject
from repro.core.template import binary_tree_template
from repro.errors import AssemblyError
from repro.storage.oid import NULL_OID, Oid
from repro.storage.record import ObjectRecord


def record(refs=None, ints=None):
    full_refs = [NULL_OID] * 8
    for slot, oid in (refs or {}).items():
        full_refs[slot] = oid
    return ObjectRecord(ints=(ints or [0] * 4), refs=full_refs)


@pytest.fixture
def template():
    return binary_tree_template(2)  # root + two leaves


def make_tree(template):
    root_oid, left_oid, right_oid = Oid(1, 1), Oid(2, 1), Oid(3, 1)
    root = AssembledObject(
        root_oid, template.root, record(refs={0: left_oid, 1: right_oid}, ints=[1, 0, 0, 0])
    )
    left = AssembledObject(left_oid, template.node("n1"), record(ints=[2, 0, 0, 0]))
    right = AssembledObject(right_oid, template.node("n2"), record(ints=[3, 0, 0, 0]))
    root.swizzle(0, left)
    root.swizzle(1, right)
    return root, left, right


class TestAssembledObject:
    def test_swizzle_and_child(self, template):
        root, left, right = make_tree(template)
        assert root.child(0) is left
        assert root.child(1) is right
        assert root.child(5) is None

    def test_swizzle_twice_rejected(self, template):
        root, left, _right = make_tree(template)
        with pytest.raises(AssemblyError):
            root.swizzle(0, left)

    def test_swizzle_bad_slot(self, template):
        root, left, _right = make_tree(template)
        with pytest.raises(AssemblyError):
            root.swizzle(99, left)

    def test_follow_path(self, template):
        root, left, _right = make_tree(template)
        assert root.follow(0) is left
        assert root.follow() is root

    def test_follow_missing_hop(self, template):
        root, _left, _right = make_tree(template)
        with pytest.raises(AssemblyError):
            root.follow(0, 0)

    def test_walk_preorder(self, template):
        root, left, right = make_tree(template)
        assert [o.ints[0] for o in root.walk()] == [1, 2, 3]

    def test_count_objects_dedupes_shared(self, template):
        root, left, _right = make_tree(template)
        # Simulate sharing: both slots point to the same child object.
        other = AssembledObject(Oid(1, 2), template.root, record(refs={0: left.oid, 1: left.oid}))
        other.swizzle(0, left)
        other.swizzle(1, left)
        assert other.count_objects() == 2

    def test_find_by_label(self, template):
        root, _left, right = make_tree(template)
        assert root.find("n2") is right
        assert root.find("nope") is None


class TestAssembledComplexObject:
    def test_metadata(self, template):
        root, *_ = make_tree(template)
        cobj = AssembledComplexObject(root=root, serial=0, fetches=3)
        assert cobj.root_oid == Oid(1, 1)
        assert cobj.object_count() == 3
        assert [o.oid for o in cobj.scan()][0] == Oid(1, 1)

    def test_verify_swizzled_passes_on_complete(self, template):
        root, *_ = make_tree(template)
        AssembledComplexObject(root=root, serial=0).verify_swizzled()

    def test_verify_swizzled_catches_dangling(self, template):
        root_oid = Oid(1, 1)
        root = AssembledObject(
            root_oid, template.root, record(refs={0: Oid(2, 1)})
        )
        cobj = AssembledComplexObject(root=root, serial=0)
        with pytest.raises(AssemblyError):
            cobj.verify_swizzled()

    def test_verify_swizzled_catches_wrong_target(self, template):
        root = AssembledObject(
            Oid(1, 1), template.root, record(refs={0: Oid(2, 1)})
        )
        imposter = AssembledObject(Oid(2, 99), template.node("n1"), record())
        root.children[0] = imposter  # bypass swizzle checks
        with pytest.raises(AssemblyError):
            AssembledComplexObject(root=root, serial=0).verify_swizzled()

    def test_null_refs_need_no_swizzle(self, template):
        root = AssembledObject(Oid(1, 1), template.root, record())
        AssembledComplexObject(root=root, serial=0).verify_swizzled()
