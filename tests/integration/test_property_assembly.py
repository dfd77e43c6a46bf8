"""Property-based end-to-end test: assembly reconstructs arbitrary graphs.

Hypothesis generates random tree-shaped complex-object databases
(random fan-out, random depths, random null slots), lays them out under
a random clustering policy, assembles with a random scheduler and
window, and checks the operator's fundamental contract:

* every complex object is emitted exactly once,
* every template-followed reference is swizzled to the right object,
* every object's integer state survives the disk round trip,
* all buffer pins are released.
"""

from __future__ import annotations

import random
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import (
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.core.assembly import Assembly
from repro.core.template import Template, TemplateNode
from repro.objects.builder import GraphBuilder
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource


@st.composite
def tree_shapes(draw):
    """A random template shape: nested dict of slot -> subtree."""

    def subtree(depth):
        if depth >= 3:
            return {}
        n_children = draw(st.integers(0, 3 if depth == 0 else 2))
        slots = draw(
            st.lists(
                st.integers(0, 7),
                min_size=n_children,
                max_size=n_children,
                unique=True,
            )
        )
        return {slot: subtree(depth + 1) for slot in slots}

    return subtree(0)


def shape_size(shape) -> int:
    return 1 + sum(shape_size(child) for child in shape.values())


def build_template(shape) -> Template:
    counter = [0]

    def build(node_shape) -> TemplateNode:
        label = f"t{counter[0]}"
        counter[0] += 1
        node = TemplateNode(label, type_name="Node")
        for slot, child_shape in sorted(node_shape.items()):
            node.attach(slot, build(child_shape))
        return node

    return Template(build(shape)).finalize()


def build_database(shape, n_objects: int, null_rate: float, rng: random.Random):
    builder = GraphBuilder()
    builder.define_type(
        "Node",
        int_fields=("marker",),
        ref_fields=tuple(f"r{i}" for i in range(8)),
    )
    expected: List[Dict[str, int]] = []

    def build_object(node_shape, markers, built):
        refs = {}
        for slot, child_shape in sorted(node_shape.items()):
            if rng.random() < null_rate:
                continue  # data shallower than the template
            child = build_object(child_shape, markers, built)
            refs[f"r{slot}"] = child.oid
        marker = rng.randrange(1_000_000)
        obj = builder.new_object("Node", ints={"marker": marker}, refs=refs)
        markers[obj.oid] = marker
        built.append(obj)
        return obj

    for _ in range(n_objects):
        markers: Dict = {}
        built: List = []
        root = build_object(shape, markers, built)
        components = [obj for obj in built if obj is not root]
        builder.complex_object(root, components)
        expected.append(markers)
    builder.validate()
    return builder, expected


@settings(max_examples=25, deadline=None)
@given(
    shape=tree_shapes(),
    n_objects=st.integers(1, 12),
    null_rate=st.floats(0.0, 0.5),
    scheduler=st.sampled_from(["depth-first", "breadth-first", "elevator"]),
    window=st.integers(1, 6),
    policy_name=st.sampled_from(["inter", "intra", "unclustered"]),
    seed=st.integers(0, 1000),
)
def test_assembly_reconstructs_random_graphs(
    shape, n_objects, null_rate, scheduler, window, policy_name, seed
):
    rng = random.Random(seed)
    builder, expected = build_database(shape, n_objects, null_rate, rng)
    template = build_template(shape)

    store = ObjectStore(SimulatedDisk())
    if policy_name == "inter":
        policy = InterObjectClustering(cluster_pages=max(4, shape_size(shape) * n_objects // 9 + 1))
    elif policy_name == "intra":
        policy = IntraObjectClustering()
    else:
        policy = Unclustered()
    layout = layout_database(
        builder.complex_objects, store, policy, seed=seed
    )

    op = Assembly(
        ListSource(layout.root_order),
        store,
        template,
        window_size=window,
        scheduler=scheduler,
    )
    emitted = {c.root_oid: c for c in op.execute()}

    assert len(emitted) == n_objects
    for markers, cobj_def in zip(expected, builder.complex_objects):
        assembled = emitted[cobj_def.root]
        assembled.verify_swizzled()
        for obj in assembled.scan():
            assert obj.ints[0] == markers[obj.oid]
    assert store.buffer.pinned_pages == 0
