"""Tests for the component iterator."""

import pytest

from repro.core.assembled import AssembledObject
from repro.core.component_iterator import UNPLACED, ComponentIterator
from repro.core.predicates import always_true, int_less_than
from repro.core.schedulers import UnresolvedReference
from repro.core.template import Template, TemplateNode, binary_tree_template
from repro.errors import AssemblyError
from repro.storage.oid import NULL_OID, Oid
from repro.storage.record import ObjectRecord


def record(refs=None, ints=None):
    full_refs = [NULL_OID] * 8
    for slot, oid in (refs or {}).items():
        full_refs[slot] = oid
    full_ints = (ints or []) + [0] * (4 - len(ints or []))
    return ObjectRecord(ints=full_ints, refs=full_refs)


@pytest.fixture
def tree_ci():
    return ComponentIterator(binary_tree_template(3))


class TestMaterialize:
    def test_returns_object_and_children(self, tree_ci):
        template = tree_ci.template
        rec = record(refs={0: Oid(2, 1), 1: Oid(3, 1)}, ints=[7])
        assembled, children, missing_nodes, missing_predicates = (
            tree_ci.materialize(Oid(1, 1), template.root, rec)
        )
        assert assembled.ints[0] == 7
        assert [c.oid for c in children] == [Oid(2, 1), Oid(3, 1)]
        assert [c.node.label for c in children] == ["n1", "n2"]
        assert all(c.parent is assembled for c in children)
        assert (missing_nodes, missing_predicates) == (0, 0)

    def test_children_are_pool_ready_except_for_placement(self, tree_ci):
        rec = record(refs={0: Oid(2, 1), 1: Oid(3, 1)})
        _obj, children, _n, _p = tree_ci.materialize(
            Oid(1, 1), tree_ci.template.root, rec
        )
        assert [type(c) for c in children] == [UnresolvedReference] * 2
        assert [c.parent_slot for c in children] == [0, 1]
        for child in children:
            assert not child.is_root and child.client is None
            assert child.page_id == child.owner == child.seq == UNPLACED

    def test_root_reference(self, tree_ci):
        ref = tree_ci.root_reference(Oid(1, 1))
        assert type(ref) is UnresolvedReference
        assert ref.is_root and ref.parent is None and ref.parent_slot == -1
        assert ref.oid == Oid(1, 1) and ref.node is tree_ci.template.root
        assert ref.page_id == ref.owner == ref.seq == UNPLACED

    def test_null_refs_skipped(self, tree_ci):
        template = tree_ci.template
        rec = record(refs={1: Oid(3, 1)})
        _obj, children, _n, _p = tree_ci.materialize(
            Oid(1, 1), template.root, rec
        )
        assert [c.parent_slot for c in children] == [1]

    def test_leaf_has_no_children(self, tree_ci):
        template = tree_ci.template
        _obj, children, missing_nodes, missing_predicates = (
            tree_ci.materialize(Oid(4, 1), template.node("n3"), record())
        )
        assert children == []
        assert (missing_nodes, missing_predicates) == (0, 0)

    def test_template_beyond_record_slots_rejected(self):
        root = TemplateNode("r")
        root.child(9, "far")  # slot 9 of an 8-ref record
        ci = ComponentIterator(Template(root))
        with pytest.raises(AssemblyError):
            ci.materialize(Oid(1, 1), ci.template.root, record(refs={0: Oid(1, 2)}))


class TestExpand:
    def test_already_swizzled_slots_skipped(self, tree_ci):
        template = tree_ci.template
        rec = record(refs={0: Oid(2, 1), 1: Oid(3, 1)})
        parent = AssembledObject(Oid(1, 1), template.root, rec)
        child = AssembledObject(Oid(2, 1), template.node("n1"), record())
        parent.swizzle(0, child)
        remaining, missing_nodes, missing_predicates = tree_ci.expand(parent)
        assert [c.parent_slot for c in remaining] == [1]
        # A swizzled slot is neither unresolved nor missing.
        assert (missing_nodes, missing_predicates) == (0, 0)

    def test_expand_partial_walks_structure(self, tree_ci):
        template = tree_ci.template
        root_rec = record(refs={0: Oid(2, 1), 1: Oid(3, 1)})
        root = AssembledObject(Oid(1, 1), template.root, root_rec)
        left_rec = record(refs={0: Oid(4, 1), 1: Oid(5, 1)})
        left = AssembledObject(Oid(2, 1), template.node("n1"), left_rec)
        root.swizzle(0, left)
        refs = tree_ci.expand_partial(root)
        oids = sorted(c.oid for c in refs)
        # Missing: root's right (3,1) and left's two leaves.
        assert oids == [Oid(3, 1), Oid(4, 1), Oid(5, 1)]


class TestStatistics:
    def test_subtree_rejection_max_over_predicates(self):
        root = TemplateNode("root")
        a = root.child(0, "a", predicate=int_less_than(0, 5, 0.8))
        a.child(0, "a1", predicate=int_less_than(0, 5, 0.3))
        root.child(1, "b")
        ci = ComponentIterator(Template(root))
        rec = record(refs={0: Oid(2, 1), 1: Oid(3, 1)})
        _obj, (to_a, to_b), _n, _p = ci.materialize(
            Oid(1, 1), ci.template.root, rec
        )
        assert to_a.rejection == pytest.approx(0.7)
        assert to_b.rejection == 0.0
        assert ci.root_reference(Oid(1, 1)).rejection == pytest.approx(0.7)

    def test_rejection_cached(self):
        root = TemplateNode("root", predicate=int_less_than(0, 5, 0.5))
        ci = ComponentIterator(Template(root))
        assert ci.root_reference(Oid(1, 1)).rejection == 0.5
        assert ci.root_reference(Oid(1, 2)).rejection == 0.5

    def test_missing_subtree_counts(self, tree_ci):
        template = tree_ci.template
        # Root with only the right child present.
        rec = record(refs={1: Oid(3, 1)})
        _obj, children, nodes, predicates = tree_ci.materialize(
            Oid(1, 1), template.root, rec
        )
        assert [c.parent_slot for c in children] == [1]
        assert nodes == 3  # the whole absent left subtree (n1, n3, n4)
        assert predicates == 0

    def test_missing_counts_with_predicates(self):
        root = TemplateNode("root")
        a = root.child(0, "a", predicate=always_true())
        a.child(0, "a1", predicate=always_true())
        ci = ComponentIterator(Template(root))
        rec = record()  # no children at all
        _obj, children, nodes, predicates = ci.materialize(
            Oid(1, 1), ci.template.root, rec
        )
        assert children == []
        assert nodes == 2
        assert predicates == 2
