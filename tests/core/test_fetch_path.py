"""The fetch path shares the stored tuples.

``ObjectStore.fetch_pinned`` hands the engine the store's own decoded
record — an immutable :class:`StoredRecord` — so an assembled object
keeps the cached ``ints`` / ``refs`` tuples themselves instead of
copies.  Sharing must never leak mutation or staleness: ``fetch``
still returns a private, mutable :class:`ObjectRecord`, a page changed
behind the cache is read from the page, and predicates still receive
an :class:`ObjectRecord`.
"""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.core.assembly import Assembly
from repro.core.predicates import Predicate
from repro.iterator import ListSource
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.storage.store import ObjectStore, StoredRecord
from repro.workloads.acob import generate_acob, make_template


@pytest.fixture
def loaded():
    db = generate_acob(6, seed=4)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(db.complex_objects, store, Unclustered())
    return db, store, layout


def assemble(db, store, roots, template=None):
    operator = Assembly(
        ListSource(list(roots)), store, template or make_template(db)
    )
    return operator.execute()


def test_assembling_twice_shares_the_stored_tuples(loaded):
    db, store, layout = loaded
    root = layout.roots[0]
    first = assemble(db, store, [root])[0].root
    second = assemble(db, store, [root])[0].root
    assert first is not second
    assert first.ints is second.ints
    assert first.ref_oids is second.ref_oids
    for one, other in zip(first.walk(), second.walk()):
        assert one.ref_oids is other.ref_oids
    assert store.buffer.pinned_pages == 0


def test_fetched_record_is_a_private_copy(loaded):
    db, store, layout = loaded
    root = layout.roots[0]
    before = assemble(db, store, [root])[0]
    record = store.fetch(root)
    assert isinstance(record.ints, list) and isinstance(record.refs, list)
    record.ints[0] = -1
    record.refs[0] = Oid(2, 88888)
    assert store.fetch(root).ints[0] != -1
    view = store.fetch_pinned(root)
    store.unpin(root)
    assert view.refs[0] != Oid(2, 88888)
    after = assemble(db, store, [root])[0]
    assert after.root.ints == before.root.ints
    assert after.root.ref_oids == before.root.ref_oids
    after.verify_swizzled()


def test_page_updated_behind_the_cache_is_read_from_the_page(loaded):
    _db, store, layout = loaded
    root = layout.roots[0]
    record = store.fetch(root)
    record.ints[0] += 7
    rid = store.directory.lookup(root)
    with store.buffer.fixed(rid.page_id, dirty=True) as page:
        page.update(rid.slot, root.encode() + record.encode())
    store.buffer.flush_all()
    view = store.fetch_pinned(root)
    store.unpin(root)
    assert list(view.ints) == record.ints
    assert list(view.refs) == record.refs
    assert view.oid == root


def test_predicate_receives_a_mutable_object_record(loaded):
    db, store, layout = loaded
    seen = []

    def test(record):
        seen.append(record)
        return True

    template = make_template(
        db, predicate_position=1, predicate=Predicate("spy", test, 0.5)
    )
    emitted = assemble(db, store, layout.roots, template)
    assert len(emitted) == len(layout.roots)
    assert len(seen) == len(layout.roots)
    for record in seen:
        assert isinstance(record, ObjectRecord)
        assert isinstance(record.ints, list)
        assert isinstance(record.refs, list)


def test_stored_record_is_immutable(loaded):
    _db, store, layout = loaded
    root = layout.roots[0]
    view = store.fetch_pinned(root)
    store.unpin(root)
    assert isinstance(view, StoredRecord)
    assert isinstance(view.ints, tuple) and isinstance(view.refs, tuple)
    with pytest.raises(AttributeError):
        view.ints = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        view.refs[0] = Oid(2, 88888)
