"""Tree walks with an explicit stack return what the recursive ones did.

A recursive local function is a reference cycle (the function holds the
cell that holds the function), left for the collector on every call.
``ACOBDatabase.type_ids_depth_first``, ``binary_tree_template``,
``Template._collect_recursive``, ``Template.clone`` and
``Template._copy_subtree`` now walk with an explicit stack; the recursive versions are kept here as the oracles and
must agree exactly, over generated databases and templates.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.template import (
    Template,
    TemplateNode,
    _RecursiveEdge,
    binary_tree_template,
)
from repro.workloads import acob
from repro.workloads.acob import generate_acob


def recursive_type_ids_depth_first(database):
    order = []

    def visit(position, level):
        order.append(database.registry.by_name(f"T{position}").type_id)
        if level + 1 < database.levels:
            visit(2 * position + 1, level + 1)
            visit(2 * position + 2, level + 1)

    visit(0, 0)
    return order


def recursive_binary_tree_template(levels, left_slot, right_slot):
    def build(position, level):
        node = TemplateNode(label=f"n{position}", type_name=f"T{position}")
        if level + 1 < levels:
            node.attach(left_slot, build(2 * position + 1, level + 1))
            node.attach(right_slot, build(2 * position + 2, level + 1))
        return node

    return Template(build(0, 0)).finalize()


def recursive_collect_recursive(template):
    found = []

    def visit(node, ancestors):
        here = dict(ancestors)
        here[node.label] = node
        if node._recursive:
            found.append((node, here))
        for child in node._children.values():
            visit(child, here)

    visit(template.root, {})
    return found


def recursive_clone(template):
    def rec(node):
        copy = TemplateNode(label=node.label, type_name=node.type_name)
        copy.shared = node.shared
        copy.sharing_degree = node.sharing_degree
        copy.predicate = node.predicate
        for slot, child in node._children.items():
            copy.attach(slot, rec(child))
        return copy

    return Template(rec(template.root)).finalize()


class RecursiveCopyTemplate(Template):
    """Unrolls recursive edges with the recursive ``_copy_subtree``."""

    def _copy_subtree(self, root):
        self._copy_counter += 1
        suffix = f"+{self._copy_counter}"
        relabel = {}

        def rec(node):
            copy = node._clone_shallow(suffix)
            relabel[node.label] = copy.label
            for slot, child in node._children.items():
                copy.attach(slot, rec(child))
            copy._recursive = [
                _RecursiveEdge(
                    slot=edge.slot,
                    target_label=relabel.get(
                        edge.target_label, edge.target_label
                    ),
                    max_depth=edge.max_depth - 1,
                )
                for edge in node._recursive
            ]
            return copy

        return rec(root)


def shape(node):
    """A node's subtree with every child in its dict's insertion order."""
    return (
        node.label,
        node.type_name,
        node.shared,
        node.sharing_degree,
        node.predicate,
        node.depth,
        [(slot, shape(child)) for slot, child in node._children.items()],
        node.slot_children == sorted(node._children.items()),
    )


@st.composite
def tree_specs(draw):
    """Up to 12 nodes with arbitrary slots and child order, and a few
    recursive edges to ancestors: ``(children, edges)`` to build from."""
    n_nodes = draw(st.integers(1, 12))
    children = []  # (parent, slot) of node 1, 2, ...
    used = {0: set()}
    parents = {0: None}
    for index in range(1, n_nodes):
        parent = draw(
            st.sampled_from([i for i in used if len(used[i]) < 8])
        )
        slot = draw(st.sampled_from(sorted(set(range(8)) - used[parent])))
        used[parent].add(slot)
        used[index] = set()
        parents[index] = parent
        children.append((parent, slot))
    edges = []  # (node, slot, ancestor, max_depth)
    for index in draw(st.lists(st.integers(0, n_nodes - 1), max_size=3)):
        ancestors = []
        walk = index
        while walk is not None:
            ancestors.append(walk)
            walk = parents[walk]
        free = [slot for slot in range(8, 12) if slot not in used[index]]
        if free:
            used[index].add(free[0])
            edges.append((
                index,
                free[0],
                draw(st.sampled_from(ancestors)),
                draw(st.integers(0, 2)),
            ))
    return children, edges


def build(spec, template_class=Template):
    """An unfinalized template from a :func:`tree_specs` spec."""
    children, edges = spec
    nodes = [TemplateNode(label="n0", type_name="T0")]
    for index, (parent, slot) in enumerate(children, start=1):
        node = TemplateNode(label=f"n{index}", type_name=f"T{index % 3}")
        nodes[parent].attach(slot, node)
        nodes.append(node)
    for index, slot, target, max_depth in edges:
        nodes[index].recurse(slot, f"n{target}", max_depth)
    return template_class(nodes[0])


@settings(max_examples=40, deadline=None)
@given(
    n_objects=st.integers(1, 6),
    levels=st.integers(1, 6),
    seed=st.integers(0, 50),
)
def test_type_ids_depth_first(n_objects, levels, seed):
    with mock.patch.object(acob, "LEVELS", levels):
        database = generate_acob(n_objects, seed=seed)
    assert database.type_ids_depth_first() == recursive_type_ids_depth_first(
        database
    )


@settings(max_examples=40, deadline=None)
@given(
    levels=st.integers(1, 7),
    slots=st.sampled_from([(0, 1), (1, 0), (3, 5), (7, 2)]),
)
def test_binary_tree_template(levels, slots):
    left, right = slots
    built = binary_tree_template(levels, left, right)
    oracle = recursive_binary_tree_template(levels, left, right)
    assert shape(built.root) == shape(oracle.root)
    assert built.fingerprint() == oracle.fingerprint()


@settings(max_examples=60, deadline=None)
@given(spec=tree_specs())
def test_collect_recursive(spec):
    template = build(spec)
    found = template._collect_recursive()
    expected = recursive_collect_recursive(template)
    assert [node for node, _ in found] == [node for node, _ in expected]
    for (_node, here), (_oracle_node, there) in zip(found, expected):
        assert list(here.items()) == list(there.items())


@settings(max_examples=60, deadline=None)
@given(spec=tree_specs())
def test_clone(spec):
    template = build(spec).finalize()
    clone = template.clone()
    oracle = recursive_clone(template)
    assert shape(clone.root) == shape(oracle.root)
    assert clone.fingerprint() == oracle.fingerprint()


@settings(max_examples=60, deadline=None)
@given(spec=tree_specs())
def test_unrolling_copies_subtrees(spec):
    """``finalize`` unrolls recursive edges with ``_copy_subtree``."""
    unrolled = build(spec).finalize()
    oracle = build(spec, RecursiveCopyTemplate).finalize()
    assert shape(unrolled.root) == shape(oracle.root)
    assert unrolled.fingerprint() == oracle.fingerprint()
