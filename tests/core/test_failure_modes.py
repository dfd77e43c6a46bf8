"""Failure-injection tests: how assembly fails when things are wrong.

A production operator's error behaviour matters as much as its happy
path: dangling references, templates that do not match the data,
buffers too small for the window, and corrupted directories must fail
loudly and leave the buffer pool clean.
"""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.core.assembly import Assembly
from repro.core.schedulers import ElevatorScheduler
from repro.core.template import Template, TemplateNode, binary_tree_template
from repro.errors import (
    AssemblyError,
    BufferFullError,
    StorageError,
    UnknownOidError,
)
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.core.predicates import int_less_than
from repro.workloads.acob import generate_acob, make_template
from tests.integration.test_batch_equivalence import fingerprint_object


def load(n=10, buffer_capacity=None, seed=5):
    db = generate_acob(n, seed=seed)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk, capacity=buffer_capacity))
    layout = layout_database(
        db.complex_objects, store, Unclustered(), validate=False
    )
    return db, store, layout


class TestDanglingReferences:
    def test_unknown_root_oid(self):
        db, store, layout = load()
        ghost = Oid(1, 99999)
        op = Assembly(ListSource([ghost]), store, make_template(db))
        with pytest.raises(UnknownOidError):
            op.execute()

    @pytest.mark.parametrize("bad_row", [Oid(99, 12345), "not-an-oid"])
    def test_failed_open_strands_nothing(self, bad_row):
        """A root that cannot be admitted undoes the ones before it:
        an externally owned pool (a device server's is shared by every
        client) keeps no reference of theirs, no page stays pinned, and
        the source is closed — the operator never opened, so nobody
        could close it afterwards."""
        db, store, layout = load()
        pool = ElevatorScheduler(head_fn=lambda: store.disk.head_position)
        source = ListSource(layout.root_order[:2] + [bad_row])
        op = Assembly(
            source, store, make_template(db), window_size=4, scheduler=pool
        )
        with pytest.raises((UnknownOidError, AssemblyError)):
            op.open()
        assert len(pool) == 0
        assert store.buffer.pinned_pages == 0
        assert not source.is_open and not op.is_open
        # The shared pool is clean: the next operator over it completes.
        good = Assembly(
            ListSource(layout.root_order[2:4]), store, make_template(db),
            window_size=4, scheduler=pool,
        )
        assert len(good.execute()) == 2

    def test_dangling_child_reference(self):
        """A stored reference to a never-stored OID fails at fetch."""
        db, store, layout = load()
        # Corrupt: repoint a root's left child to a ghost.
        root_oid = layout.roots[0]
        record = store.fetch(root_oid)
        record.refs[0] = Oid(2, 88888)
        rid = store.directory.lookup(root_oid)
        with store.buffer.fixed(rid.page_id, dirty=True) as page:
            page.update(rid.slot, root_oid.encode() + record.encode())
        store.buffer.flush_all()
        op = Assembly(
            ListSource([root_oid]), store, make_template(db), window_size=1,
            scheduler="depth-first",
        )
        with pytest.raises(UnknownOidError):
            op.execute()


class TestTemplateMismatch:
    def test_template_deeper_than_data_is_fine(self):
        """Null slots end recursion early: shallow data is legal."""
        db, store, layout = load()
        deep = binary_tree_template(5)  # data only has 3 levels
        op = Assembly(ListSource(layout.root_order), store, deep)
        emitted = op.execute()
        assert len(emitted) == 10
        assert all(c.object_count() == 7 for c in emitted)

    def test_template_shallower_than_data_is_fine(self):
        db, store, layout = load()
        shallow = binary_tree_template(2)
        op = Assembly(ListSource(layout.root_order), store, shallow)
        emitted = op.execute()
        assert all(c.object_count() == 3 for c in emitted)

    def test_template_wrong_slots_sees_nulls(self):
        """A template following unused slots assembles just the root."""
        db, store, layout = load()
        root = TemplateNode("root")
        root.child(6, "phantom")  # slot 6 is always null in ACOB data
        op = Assembly(ListSource(layout.root_order), store, Template(root))
        emitted = op.execute()
        assert all(c.object_count() == 1 for c in emitted)


class TestBufferPressure:
    def test_window_larger_than_buffer_fails_loudly(self):
        db, store, layout = load(n=40, buffer_capacity=16)
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=10,  # pin bound 61 > 16 frames
        )
        with pytest.raises(BufferFullError):
            op.execute()

    def test_failed_run_leaves_no_pins_after_close(self):
        db, store, layout = load(n=40, buffer_capacity=16)
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=10,
        )
        with pytest.raises(BufferFullError):
            for _ in op.rows():
                pass
        # rows() closed the operator in its finally block.
        assert store.buffer.pinned_pages == 0


class TestPinsOfARaisingFetch:
    """A fetch that raises after its page was pinned — a record the
    template does not fit, a predicate that cannot evaluate the record
    — leaves no pin once the operator closed, and the same store then
    serves a good request exactly as a fresh one does."""

    @staticmethod
    def rows(db, store, layout):
        """Fingerprints of every complex object of ``layout``, by root
        (the elevator's emission order follows the head)."""
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=3,
        )
        return sorted(fingerprint_object(row.root) for row in op.execute())

    def assert_serves_like_fresh(self, db, store, layout):
        assert store.buffer.pinned_pages == 0
        fresh = load(n=6, seed=4)
        assert self.rows(db, store, layout) == self.rows(*fresh)
        assert store.buffer.pinned_pages == 0

    def test_template_that_does_not_fit_the_record(self):
        db, store, layout = load(n=6, seed=4)
        template = binary_tree_template(2, left_slot=0, right_slot=8)
        op = Assembly(ListSource(layout.root_order), store, template)
        with pytest.raises(AssemblyError, match="reference slot 8"):
            op.execute()
        self.assert_serves_like_fresh(db, store, layout)

    def test_predicate_that_raises_on_a_shared_node(self):
        db, store, layout = load(n=6, seed=4)
        template = make_template(
            db,
            sharing=0.5,
            predicate_position=db.positions - 1,
            predicate=int_less_than(9, 5, 0.5),  # the record has fewer ints
        )
        assert template.node(f"n{db.positions - 1}").shared
        op = Assembly(ListSource(layout.root_order), store, template)
        with pytest.raises(IndexError):
            op.execute()
        self.assert_serves_like_fresh(db, store, layout)


class TestDirectoryCorruption:
    def test_directory_slot_mismatch_detected(self):
        """If the directory points at the wrong slot, the stored-OID
        cross-check catches it instead of returning a wrong object."""
        db, store, layout = load()
        first, second = layout.roots[0], layout.roots[1]
        rid_second = store.directory.lookup(second)
        # Corrupt the directory: first now points at second's record.
        store.directory.rids[first] = rid_second
        with pytest.raises(StorageError):
            store.fetch(first)
        with pytest.raises(StorageError):
            store.fetch_pinned(first)
        assert store.buffer.pinned_pages == 0  # pin rolled back


class TestStalledAssembly:
    def test_stall_raises_instead_of_spinning(self):
        """A window with nothing schedulable raises AssemblyError."""
        db, store, layout = load()
        op = Assembly(ListSource([]), store, make_template(db))
        op.open()
        # Force an inconsistent state: occupied window, empty pool.
        op._window.admit(layout.roots[0], total_nodes=7, total_predicates=0)
        with pytest.raises(AssemblyError):
            op.next()
        op.close()
