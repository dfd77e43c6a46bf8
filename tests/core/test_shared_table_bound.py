"""Tests for the bounded shared-component table."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.core.assembly import Assembly
from repro.errors import AssemblyError
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def build(n=40, sharing=0.25, capacity=None, seed=11):
    db = generate_acob(n, sharing=sharing, seed=seed)
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(
        db.complex_objects, store, Unclustered(), shared=db.shared_pool
    )
    op = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db, sharing=sharing),
        window_size=4,
        scheduler="elevator",
        shared_table_capacity=capacity,
    )
    return db, store, op


class TestBoundedSharedTable:
    def test_bad_capacity(self):
        db, store, _op = build()
        with pytest.raises(AssemblyError):
            Assembly(
                ListSource([]), store, make_template(db),
                shared_table_capacity=0,
            )

    def test_unbounded_never_evicts(self):
        _db, _store, op = build(capacity=None)
        op.execute()
        assert op.stats.shared_evictions == 0

    def test_tiny_table_evicts_and_refetches(self):
        _db, _store, unbounded = build(capacity=None)
        unbounded.execute()

        _db, _store, bounded = build(capacity=1)
        emitted = bounded.execute()
        assert len(emitted) == 40
        assert bounded.stats.shared_evictions > 0
        # Evicted components must be fetched again when re-referenced.
        assert bounded.stats.fetches > unbounded.stats.fetches
        assert bounded.stats.shared_links < unbounded.stats.shared_links

    def test_results_identical_under_bound(self):
        _db, _store, unbounded = build(capacity=None)
        expected = {c.root_oid for c in unbounded.execute()}
        _db, _store, bounded = build(capacity=2)
        got = {c.root_oid for c in bounded.execute()}
        assert got == expected

    def test_swizzling_valid_under_bound(self):
        _db, _store, bounded = build(capacity=1)
        for cobj in bounded.execute():
            cobj.verify_swizzled()

    def test_pins_released_under_bound(self):
        _db, store, bounded = build(capacity=1)
        bounded.execute()
        assert store.buffer.pinned_pages == 0

    def test_in_use_entries_survive(self):
        """With a window holding referrers, live entries never drop."""
        _db, _store, op = build(capacity=1)
        op.open()
        first = op.next()
        assert first is not None
        # Any entry still referenced by an in-window object remains.
        for entry in op._shared.values():
            if entry.refcount > 0:
                assert entry.assembled is not None
        op.close()
