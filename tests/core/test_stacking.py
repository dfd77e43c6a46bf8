"""Tests for stacked (bottom-up + top-down) assembly — Figure 17."""

import pytest

from repro.core.assembly import Assembly
from repro.core.predicates import Predicate
from repro.core.stacking import StackedAssembly
from repro.core.template import Template, TemplateNode
from repro.errors import AssemblyError
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource

from tests.core.test_assembly import (
    figure4_database,
    figure4_template,
    lay_out_figure4,
)


def b_subtree_template():
    """Template for the bottom-up stage: B → D (Figure 17's Assembly1)."""
    b = TemplateNode("B", type_name="B")
    b.child(0, "D", type_name="D")
    return Template(b).finalize()


def build_stacked(n=5, window=2):
    store = ObjectStore(SimulatedDisk())
    builder = figure4_database(n)
    layout = lay_out_figure4(builder, store)
    b_roots = [
        cobj.objects[cobj.root].refs["b"]
        for cobj in builder.complex_objects
    ]
    op = StackedAssembly(
        lower_source=ListSource(b_roots),
        lower_template=b_subtree_template(),
        upper_source=ListSource(layout.root_order),
        upper_template=figure4_template(),
        store=store,
        window_size=window,
        scheduler="elevator",
    )
    return builder, store, layout, op


class TestStackedAssembly:
    def test_produces_same_objects_as_direct(self):
        builder, store, layout, stacked = build_stacked()
        stacked_out = {c.root_oid: c for c in stacked.execute()}

        direct_store = ObjectStore(SimulatedDisk())
        direct_layout = lay_out_figure4(figure4_database(5), direct_store)
        direct = Assembly(
            ListSource(direct_layout.root_order),
            direct_store,
            figure4_template(),
            window_size=2,
        )
        direct_out = {c.root_oid: c for c in direct.execute()}

        assert set(stacked_out) == set(direct_out)
        for oid, cobj in stacked_out.items():
            cobj.verify_swizzled()
            assert cobj.object_count() == direct_out[oid].object_count() == 4

    def test_upper_stage_links_not_fetches(self):
        _builder, _store, _layout, stacked = build_stacked()
        stacked.execute()
        # Lower fetched B and D (2 per complex object); upper fetched
        # only A and C; the B subtrees were linked via preassembled.
        assert stacked.lower.stats.fetches == 5 * 2
        assert stacked.upper.stats.fetches == 5 * 2

    def test_preassembled_table_exposed(self):
        _builder, _store, _layout, stacked = build_stacked()
        stacked.execute()
        assert len(stacked.preassembled) == 5
        for root in stacked.preassembled.values():
            assert root.node.label == "B"

    def test_upper_before_open_rejected(self):
        _builder, _store, _layout, stacked = build_stacked()
        with pytest.raises(AssemblyError):
            _ = stacked.upper

    def test_pins_released(self):
        _builder, store, _layout, stacked = build_stacked()
        stacked.execute()
        assert store.buffer.pinned_pages == 0

    def test_reopen(self):
        _builder, _store, _layout, stacked = build_stacked()
        assert len(stacked.execute()) == 5
        assert len(stacked.execute()) == 5

    def test_rejecting_link_of_the_last_outstanding_node_aborts(self):
        """Linking a pre-assembled B leaves nothing outstanding and then
        fails B's predicate: the object is aborted, not completed."""
        builder, store, layout, _stacked = build_stacked()
        b_roots = [
            cobj.objects[cobj.root].refs["b"]
            for cobj in builder.complex_objects
        ]
        lower_template = b_subtree_template()
        lower = Assembly(ListSource(b_roots), store, lower_template)
        preassembled = {row.root_oid: row.root for row in lower.execute()}
        # The linked objects' node; the lower stage already passed it.
        lower_template.root.predicate = Predicate("never", lambda _r: False)
        a = TemplateNode("A", type_name="A")
        a.child(0, "B", type_name="B").child(0, "D", type_name="D")
        upper = Assembly(
            ListSource(layout.root_order), store, Template(a),
            preassembled=preassembled,
        )
        assert upper.execute() == []
        assert upper.stats.aborted == 5 and upper.stats.emitted == 0
        assert store.buffer.pinned_pages == 0


class TestPartialInputs:
    def test_assembly_accepts_partial_complex_objects(self):
        """Section 4: partially assembled inputs are completed."""
        store = ObjectStore(SimulatedDisk())
        builder = figure4_database(4)
        layout = lay_out_figure4(builder, store)

        # Stage 1: assemble only the A + C part (template without B).
        a_only = TemplateNode("A", type_name="A")
        a_only.child(1, "C", type_name="C")
        partial_op = Assembly(
            ListSource(layout.root_order),
            store,
            Template(a_only).finalize(),
            window_size=2,
        )
        partials = partial_op.execute()
        assert all(p.object_count() == 2 for p in partials)

        # Stage 2: feed the partial assemblies through the full
        # template; only B and D remain to fetch.
        # Re-key the partial roots to the full template's nodes.
        full = figure4_template()
        for partial in partials:
            partial.root.node = full.root
            partial.root.children[1].node = full.node("C")
        complete_op = Assembly(
            ListSource(partials), store, full, window_size=2
        )
        completed = complete_op.execute()
        assert len(completed) == 4
        for cobj in completed:
            cobj.verify_swizzled()
            assert cobj.object_count() == 4
        assert complete_op.stats.fetches == 4 * 2  # B and D only
