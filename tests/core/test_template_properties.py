"""Property-based tests for templates: clone, annotations, recursion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.template import Template, TemplateNode
from tests.helpers import always_true


@st.composite
def random_trees(draw):
    """Build a random template tree, returning (root, node_count)."""
    counter = [0]

    def build(depth):
        label = f"node{counter[0]}"
        counter[0] += 1
        node = TemplateNode(label)
        node.shared = draw(st.booleans())
        node.predicate = always_true() if draw(st.booleans()) else None
        if depth < 3:
            n_children = draw(st.integers(0, 3))
            slots = draw(
                st.lists(
                    st.integers(0, 7),
                    min_size=n_children,
                    max_size=n_children,
                    unique=True,
                )
            )
            for slot in slots:
                node.attach(slot, build(depth + 1))
        return node

    root = build(0)
    return root, counter[0]


@settings(max_examples=50, deadline=None)
@given(random_trees())
def test_finalize_counts_every_node(tree):
    root, expected_nodes = tree
    template = Template(root).finalize()
    assert template.node_count == expected_nodes
    assert len(template.nodes()) == expected_nodes
    # Subtree counts are consistent: root's equals the total.
    assert template.root.subtree_nodes == expected_nodes
    # Predicate count equals nodes carrying one.
    assert template.predicate_count == sum(
        1 for n in template.nodes() if n.predicate is not None
    )


@settings(max_examples=50, deadline=None)
@given(random_trees())
def test_clone_is_deep_and_equal(tree):
    root, _count = tree
    template = Template(root).finalize()
    copy = template.clone()
    originals = template.nodes()
    copies = copy.nodes()
    assert len(originals) == len(copies)
    for original, cloned in zip(originals, copies):
        assert cloned is not original
        assert cloned.label == original.label
        assert cloned.shared == original.shared
        assert cloned.predicate is original.predicate
        assert cloned.child_slots() == original.child_slots()
        assert cloned.subtree_nodes == original.subtree_nodes
    # Mutating the clone does not touch the original.
    copies[0].predicate = always_true()
    copy.reannotate()
    assert template.predicate_count == sum(
        1 for n in template.nodes() if n.predicate is not None
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3))
def test_linear_recursion_node_count(depth, extra_children):
    """A self-recursive chain of depth d unrolls to d+1 nodes, each
    carrying its non-recursive children."""
    node = TemplateNode("n")
    for slot in range(extra_children):
        node.child(slot + 2, f"leaf{slot}")
    node.recurse(0, "n", max_depth=depth)
    template = Template(node).finalize()
    assert template.node_count == (depth + 1) * (1 + extra_children)
    expected_depth = depth + (1 if extra_children else 0)
    assert template.max_depth == expected_depth
