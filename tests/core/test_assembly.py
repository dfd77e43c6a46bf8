"""Tests for the assembly operator itself.

The first test class replays the paper's running example (Figures 4–5):
complex objects shaped A → {B → D, C}, assembled through a window of 2,
checking the exact resolution orders Section 6.2 lists for depth-first
and breadth-first scheduling.
"""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.core.assembled import AssembledComplexObject
from repro.core.assembly import Assembly
from repro.core.template import Template, TemplateNode
from repro.errors import AssemblyError
from repro.objects.builder import GraphBuilder
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def figure4_database(n=3):
    """The paper's example complex object: A → {B → D, C}."""
    builder = GraphBuilder()
    builder.define_type("A", int_fields=("id",), ref_fields=("b", "c"))
    builder.define_type("B", int_fields=("id",), ref_fields=("d",))
    builder.define_type("C", int_fields=("id",))
    builder.define_type("D", int_fields=("id",))
    for index in range(n):
        d = builder.new_object("D", ints={"id": index})
        b = builder.new_object("B", ints={"id": index}, refs={"d": d.oid})
        c = builder.new_object("C", ints={"id": index})
        a = builder.new_object(
            "A", ints={"id": index}, refs={"b": b.oid, "c": c.oid}
        )
        builder.complex_object(a, [b, c, d])
    builder.validate()
    return builder


def figure4_template():
    a = TemplateNode("A", type_name="A")
    b = a.child(0, "B", type_name="B")
    a.child(1, "C", type_name="C")
    b.child(0, "D", type_name="D")
    return Template(a).finalize()


def lay_out_figure4(builder, store):
    return layout_database(
        builder.complex_objects,
        store,
        Unclustered(),
        shared=builder.shared_objects,
        shuffle_roots=False,
    )


def spy_fetch_order(store):
    """Record the label-carrying serials of fetched objects, in order."""
    order = []
    original = store.fetch_pinned

    def spy(oid):
        order.append(oid)
        return original(oid)

    store.fetch_pinned = spy
    return order


def label_of(builder, oid):
    type_name = builder.registry.by_id(oid.type_id).name
    return f"{type_name}{oid.serial}"


class TestPaperExampleOrders:
    """Section 6.2's resolution orders, replayed exactly."""

    def run(self, scheduler, window, n=3):
        store = ObjectStore(SimulatedDisk())
        builder = figure4_database(n)
        layout = lay_out_figure4(builder, store)
        order = spy_fetch_order(store)
        op = Assembly(
            ListSource(layout.root_order),
            store,
            figure4_template(),
            window_size=window,
            scheduler=scheduler,
        )
        emitted = op.execute()
        assert len(emitted) == n
        return [label_of(builder, oid) for oid in order]

    def test_depth_first_window_2(self):
        """'A1, B1, D1, C1, A2, ...' — object-at-a-time despite W=2."""
        order = self.run("depth-first", window=2)
        assert order == [
            "A1", "B1", "D1", "C1",
            "A2", "B2", "D2", "C2",
            "A3", "B3", "D3", "C3",
        ]

    def test_breadth_first_window_2(self):
        """'A1, A2, B1, C1, B2, C2, D1, D2, A3, B3, C3, D3'."""
        order = self.run("breadth-first", window=2)
        assert order == [
            "A1", "A2", "B1", "C1", "B2", "C2", "D1", "D2",
            "A3", "B3", "C3", "D3",
        ]

    def test_depth_first_window_1_is_naive(self):
        order = self.run("depth-first", window=1)
        assert order == [
            "A1", "B1", "D1", "C1",
            "A2", "B2", "D2", "C2",
            "A3", "B3", "D3", "C3",
        ]


class TestCorrectness:
    @pytest.mark.parametrize("scheduler", ["depth-first", "breadth-first", "elevator"])
    @pytest.mark.parametrize("window", [1, 3, 10])
    def test_assembles_everything_swizzled(self, scheduler, window):
        db = generate_acob(25, seed=2)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db),
            window_size=window,
            scheduler=scheduler,
        )
        emitted = op.execute()
        assert len(emitted) == 25
        assert {e.root_oid for e in emitted} == set(layout.roots)
        for cobj in emitted:
            cobj.verify_swizzled()
            assert cobj.object_count() == 7

    def test_content_matches_database(self):
        db = generate_acob(10, seed=4)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4, scheduler="elevator",
        )
        by_root = {e.root_oid: e for e in op.execute()}
        for index, cobj in enumerate(db.complex_objects):
            assembled = by_root[cobj.root]
            for obj in assembled.scan():
                expected = cobj.objects[obj.oid]
                assert obj.ints[3] == expected.ints["payload"]

    def test_emits_promptly_not_batched(self):
        """'As soon as any one … becomes assembled and passed up the
        query tree, the operator retrieves another one.'"""
        db = generate_acob(6, seed=1)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(db.complex_objects, store, Unclustered())
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=2, scheduler="depth-first",
        )
        op.open()
        first = op.next()
        assert isinstance(first, AssembledComplexObject)
        # Only the first object's fetches (7) plus nothing else finished.
        assert op.stats.emitted == 1
        assert op.stats.fetches <= 7 + 6  # window lookahead is bounded
        op.close()

    def test_pins_released_after_run(self, small_acob, small_layout):
        store = small_layout.store
        op = Assembly(
            ListSource(small_layout.root_order),
            store,
            make_template(small_acob),
            window_size=5,
            scheduler="elevator",
        )
        op.execute()
        assert store.buffer.pinned_pages == 0

    def test_pins_released_on_early_close(self, small_acob, small_layout):
        store = small_layout.store
        op = Assembly(
            ListSource(small_layout.root_order),
            store,
            make_template(small_acob),
            window_size=5,
            scheduler="elevator",
        )
        op.open()
        op.next()  # one object out, others mid-assembly
        op.close()
        assert store.buffer.pinned_pages == 0

    def test_window_size_validation(self, small_acob, small_layout):
        with pytest.raises(AssemblyError):
            Assembly(
                ListSource([]), small_layout.store, make_template(small_acob),
                window_size=0,
            )

    def test_bad_input_type(self, small_acob, small_layout):
        op = Assembly(
            ListSource(["not an oid"]),
            small_layout.store,
            make_template(small_acob),
        )
        with pytest.raises(AssemblyError):
            op.execute()

    def test_empty_input(self, small_acob, small_layout):
        op = Assembly(
            ListSource([]), small_layout.store, make_template(small_acob)
        )
        assert op.execute() == []

    def test_stats_populated(self, small_acob, small_layout):
        op = Assembly(
            ListSource(small_layout.root_order),
            small_layout.store,
            make_template(small_acob),
            window_size=4,
        )
        op.execute()
        stats = op.stats
        assert stats.emitted == 30
        assert stats.fetches == 30 * 7
        assert stats.refs_resolved == 30 * 7
        assert stats.scheduler_ops > 0
        assert stats.peak_pinned_pages <= 6 * 3 + 7

    def test_reopen_reruns(self, small_acob, small_layout):
        op = Assembly(
            ListSource(small_layout.root_order),
            small_layout.store,
            make_template(small_acob),
            window_size=2,
        )
        assert len(op.execute()) == 30
        assert len(op.execute()) == 30


class TestSharing:
    def make(self, n=20, sharing=0.25, use_stats=True, window=5):
        db = generate_acob(n, sharing=sharing, seed=6)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db, sharing=sharing),
            window_size=window,
            scheduler="elevator",
            use_sharing_statistics=use_stats,
        )
        return db, store, op

    def test_shared_components_loaded_once(self):
        db, _store, op = self.make()
        op.execute()
        # Every reference beyond the first to a pool object is a link.
        from repro.workloads.sharing import measure_sharing

        profile = measure_sharing(db.complex_objects, db.shared_pool)
        assert op.stats.shared_links == profile.duplicate_references
        assert op.stats.fetches == 20 * 6 + profile.shared_objects

    def test_shared_objects_are_identical_in_memory(self):
        """Section 5: not 'loaded twice … into two different memory
        locations'."""
        _db, _store, op = self.make()
        emitted = op.execute()
        by_oid = {}
        for cobj in emitted:
            leaf = cobj.root.follow(1, 1)  # position 6 leaf (shared)
            by_oid.setdefault(leaf.oid, set()).add(id(leaf))
        assert all(len(ids) == 1 for ids in by_oid.values())

    def test_without_statistics_duplicates_load(self):
        db, _store, op = self.make(use_stats=False)
        op.execute()
        assert op.stats.shared_links == 0
        assert op.stats.fetches == 20 * 7  # every reference fetched

    def test_shared_pages_unpinned_when_last_referrer_leaves(self):
        _db, store, op = self.make()
        op.execute()
        assert store.buffer.pinned_pages == 0

    def test_swizzle_valid_with_sharing(self):
        _db, _store, op = self.make()
        for cobj in op.execute():
            cobj.verify_swizzled()


class TestPredicates:
    def make(self, n=40, selectivity=0.5, window=5, scheduler="elevator",
             selective=None, position=1):
        from repro.workloads.acob import payload_predicate

        db = generate_acob(n, seed=9)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(db.complex_objects, store, Unclustered())
        template = make_template(
            db,
            predicate_position=position,
            predicate=payload_predicate(selectivity),
        )
        op = Assembly(
            ListSource(layout.root_order), store, template,
            window_size=window, scheduler=scheduler, selective=selective,
        )
        return db, op

    def oracle(self, db, selectivity, position=1):
        from repro.workloads.acob import PAYLOAD_RANGE

        bound = int(selectivity * PAYLOAD_RANGE)
        return sum(
            1 for payloads in db.payloads if payloads[position] < bound
        )

    def test_emits_only_satisfying_objects(self):
        db, op = self.make(selectivity=0.5)
        emitted = op.execute()
        assert len(emitted) == self.oracle(db, 0.5)
        assert op.stats.aborted == 40 - len(emitted)

    def test_rejected_objects_fetch_only_predicate_path(self):
        """Section 6.5: wasted fetches are eliminated."""
        db, op = self.make(selectivity=0.3)
        emitted = op.execute()
        assert op.stats.fetches == len(emitted) * 7 + op.stats.aborted * 2

    def test_unselective_mode_fetches_more(self):
        db, op = self.make(selectivity=0.3, selective=False)
        emitted = op.execute()
        # Without deferral, sibling subtrees race the predicate fetch.
        assert op.stats.fetches > len(emitted) * 7 + op.stats.aborted * 2

    def test_zero_selectivity_emits_nothing(self):
        _db, op = self.make(selectivity=0.0)
        assert op.execute() == []
        assert op.stats.aborted == 40

    def test_full_selectivity_emits_everything(self):
        _db, op = self.make(selectivity=1.0)
        assert len(op.execute()) == 40
        assert op.stats.aborted == 0

    def test_predicate_on_root(self):
        db, op = self.make(selectivity=0.4, position=0)
        emitted = op.execute()
        assert len(emitted) == self.oracle(db, 0.4, position=0)
        # Rejection at the root costs exactly one fetch.
        assert op.stats.fetches == len(emitted) * 7 + op.stats.aborted * 1

    def test_predicate_on_leaf(self):
        db, op = self.make(selectivity=0.5, position=6)
        emitted = op.execute()
        assert len(emitted) == self.oracle(db, 0.5, position=6)
        # Path to position 6: n0 -> n2 -> n6 = 3 fetches per rejection.
        assert op.stats.fetches == len(emitted) * 7 + op.stats.aborted * 3

    def test_aborts_release_pins(self):
        _db, op = self.make(selectivity=0.2)
        op.execute()
        assert op.stats.aborted > 0

    def test_deferred_refs_scheduled_after_pass(self):
        _db, op = self.make(selectivity=1.0)
        op.execute()
        assert op.stats.deferred_scheduled > 0

    @pytest.mark.parametrize("scheduler", ["depth-first", "breadth-first", "elevator"])
    def test_every_scheduler_agrees_on_results(self, scheduler):
        db, op = self.make(selectivity=0.6, scheduler=scheduler)
        emitted = op.execute()
        assert len(emitted) == self.oracle(db, 0.6)
        for cobj in emitted:
            cobj.verify_swizzled()
