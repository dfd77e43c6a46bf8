"""Tests for assembly templates."""

import pytest

from repro.core.predicates import int_less_than
from repro.core.template import Template, TemplateNode, binary_tree_template
from repro.errors import TemplateError
from tests.helpers import always_true


def simple_template():
    root = TemplateNode("root", type_name="A")
    root.child(0, "left", type_name="B")
    root.child(1, "right", type_name="C")
    return Template(root).finalize()


class TestTemplateNode:
    def test_child_attachment(self):
        root = TemplateNode("r")
        child = root.child(2, "c")
        assert root.children == {2: child}
        assert root.child_slots() == [2]

    def test_duplicate_slot_rejected(self):
        root = TemplateNode("r")
        root.child(0, "a")
        with pytest.raises(TemplateError):
            root.child(0, "b")

    def test_negative_slot_rejected(self):
        with pytest.raises(TemplateError):
            TemplateNode("r").child(-1, "c")

    def test_empty_label_rejected(self):
        with pytest.raises(TemplateError):
            TemplateNode("")

    def test_sharing_degree_requires_shared(self):
        with pytest.raises(TemplateError):
            TemplateNode("r").child(0, "n", sharing_degree=0.5)

    def test_sharing_degree_bounds(self):
        with pytest.raises(TemplateError):
            TemplateNode("r").child(0, "n", shared=True, sharing_degree=1.5)

    def test_walk_preorder(self):
        template = simple_template()
        assert [n.label for n in template.root.walk()] == [
            "root", "left", "right",
        ]


class TestFinalize:
    def test_annotations(self):
        template = simple_template()
        assert template.node_count == 3
        assert template.predicate_count == 0
        assert template.max_depth == 1
        assert template.root.subtree_nodes == 3
        assert template.node("left").subtree_nodes == 1
        assert template.node("left").depth == 1

    def test_predicate_counting(self):
        root = TemplateNode("root")
        root.child(0, "a", predicate=always_true())
        child = root.child(1, "b")
        child.child(0, "b1", predicate=always_true())
        template = Template(root).finalize()
        assert template.predicate_count == 2
        assert template.node("b").subtree_predicates == 1
        assert template.has_predicates()

    def test_duplicate_labels_rejected(self):
        root = TemplateNode("x")
        root.child(0, "x")
        with pytest.raises(TemplateError):
            Template(root).finalize()

    def test_unfinalized_queries_rejected(self):
        template = Template(TemplateNode("r"))
        with pytest.raises(TemplateError):
            _ = template.node_count

    def test_finalize_idempotent(self):
        template = simple_template()
        assert template.finalize() is template

    def test_reannotate_after_mutation(self):
        template = simple_template()
        template.node("left").predicate = int_less_than(0, 10, 0.5)
        assert template.predicate_count == 0  # stale until reannotate
        template.reannotate()
        assert template.predicate_count == 1
        assert template.node("left").subtree_predicates == 1

    def test_fingerprint_memo_is_cleared_by_reannotate(self):
        template = simple_template()
        first = template.fingerprint()
        assert template.fingerprint() is first  # the memo, not a re-render
        template.node("left").predicate = int_less_than(0, 10, 0.5)
        template.reannotate()
        second = template.fingerprint()
        assert second != first
        assert template.fingerprint() is second
        assert second == template.clone().fingerprint()  # fresh render

    def test_node_lookup_unknown(self):
        with pytest.raises(TemplateError):
            simple_template().node("ghost")

    def test_shared_labels(self):
        root = TemplateNode("root")
        root.child(0, "s", shared=True, sharing_degree=0.2)
        template = Template(root).finalize()
        assert template.shared_labels() == ["s"]

class TestRecursion:
    def test_single_level_unroll(self):
        person = TemplateNode("person")
        person.child(1, "home")
        person.recurse(0, "person", max_depth=1)
        template = Template(person).finalize()
        # person, home, father-copy(person), father's home.
        assert template.node_count == 4
        labels = [n.label for n in template.nodes()]
        assert labels[0] == "person"
        assert sum("person" in l for l in labels) == 2

    def test_two_level_unroll(self):
        node = TemplateNode("n")
        node.recurse(0, "n", max_depth=3)
        template = Template(node).finalize()
        # A chain of 4 nodes (root + 3 unrolled levels).
        assert template.node_count == 4
        assert template.max_depth == 3

    def test_zero_depth_ignored(self):
        node = TemplateNode("n")
        node.recurse(0, "n", max_depth=0)
        template = Template(node).finalize()
        assert template.node_count == 1

    def test_recurse_to_non_ancestor_rejected(self):
        root = TemplateNode("root")
        child = root.child(0, "child")
        root.child(1, "sibling")
        child.recurse(0, "sibling", max_depth=1)
        with pytest.raises(TemplateError):
            Template(root).finalize()

    def test_negative_depth_rejected(self):
        with pytest.raises(TemplateError):
            TemplateNode("n").recurse(0, "n", max_depth=-1)

    def test_recursion_copies_annotations(self):
        person = TemplateNode("person")
        person.child(1, "home", shared=True, sharing_degree=0.3)
        person.recurse(0, "person", max_depth=1)
        template = Template(person).finalize()
        shared = template.shared_labels()
        assert len(shared) == 2  # both residences marked shared

    def test_recursion_inside_branch(self):
        root = TemplateNode("root")
        branch = root.child(0, "branch")
        branch.recurse(1, "branch", max_depth=2)
        template = Template(root).finalize()
        assert template.node_count == 4  # root + branch chain of 3


class TestBinaryTreeTemplate:
    def test_three_levels_is_paper_object(self):
        template = binary_tree_template(3)
        assert template.node_count == 7
        assert template.max_depth == 2
        assert template.node("n0").child_slots() == [0, 1]
        assert template.node("n3").child_slots() == []

    def test_positional_labels(self):
        template = binary_tree_template(3)
        assert template.node("n0").children[0].label == "n1"
        assert template.node("n0").children[1].label == "n2"
        assert template.node("n1").children[0].label == "n3"

    def test_one_level(self):
        assert binary_tree_template(1).node_count == 1

    def test_bad_levels(self):
        with pytest.raises(TemplateError):
            binary_tree_template(0)
