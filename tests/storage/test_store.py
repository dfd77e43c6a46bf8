"""Tests for the OID-addressed object store and page planner."""

import pytest

from repro.errors import (
    BadSlotError,
    DuplicateOidError,
    PageFullError,
    RecordError,
    StorageError,
    UnknownOidError,
)
from repro.storage.costmodel import CostedDisk
from repro.storage.oid import NULL_OID, Oid, Rid
from repro.storage.record import ObjectRecord, RecordFormat
from repro.storage.store import ObjectStore, PagePlanner


def record(marker: int) -> ObjectRecord:
    return ObjectRecord(ints=[marker, 0, 0, 0])


class TestStoreFetch:
    def test_roundtrip(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(42))])
        fetched = store.fetch(Oid(1, 1))
        assert fetched.ints[0] == 42

    def test_objects_per_page_is_nine(self, store):
        """Paper geometry: nine 96-byte objects per 1 KB page."""
        assert store.objects_per_page() == 9

    def test_page_fills_then_rejects(self, store):
        extent = store.disk.allocate(1)
        for serial in range(9):
            store.store_page(extent.start, [(Oid(1, serial + 1), record(serial))])
        with pytest.raises(PageFullError):
            store.store_page(extent.start, [(Oid(1, 100), record(0))])

    def test_duplicate_oid_rejected(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(0))])
        with pytest.raises(DuplicateOidError):
            store.store_page(extent.start, [(Oid(1, 1), record(1))])

    def test_store_page_bulk(self, store):
        extent = store.disk.allocate(1)
        items = [(Oid(1, s + 1), record(s)) for s in range(9)]
        rids = store.store_page(extent.start, items)
        assert [rid.slot for rid in rids] == list(range(9))
        for serial in range(9):
            assert store.fetch(Oid(1, serial + 1)).ints[0] == serial

    def test_store_page_duplicate_rolls_back_nothing_registered(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(0))])
        with pytest.raises(DuplicateOidError):
            store.store_page(extent.start, [(Oid(1, 1), record(1))])

    def test_page_of(self, store):
        extent = store.disk.allocate(3)
        store.store_page(extent.start + 2, [(Oid(1, 1), record(0))])
        assert store.directory.page_of(Oid(1, 1)) == extent.start + 2

    def test_fetch_goes_through_buffer(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(0))])
        store.disk.reset_stats()
        store.fetch(Oid(1, 1))
        store.fetch(Oid(1, 1))
        assert store.disk.stats.reads == 1  # second fetch is a buffer hit
        assert store.buffer.stats.hits >= 1


def store_state(store):
    """The disk image, directory and decoded cache of ``store``."""
    return (
        store.disk.dump_state(),
        store.directory.dump(),
        store.dump_decoded(),
    )


class TestStorePageIsAllOrNothing:
    """A failing ``store_page`` writes, registers and counts nothing."""

    @pytest.mark.parametrize(
        "items, error, match",
        [
            # the same OID twice in one batch
            (
                [(Oid(2, 1), record(1)), (Oid(2, 2), record(2)),
                 (Oid(2, 1), record(3))],
                DuplicateOidError,
                "twice in the batch",
            ),
            # an OID the directory already holds
            (
                [(Oid(2, 1), record(1)), (Oid(1, 1), record(2))],
                DuplicateOidError,
                "already stored",
            ),
            # a record in another format
            (
                [(Oid(2, 1), record(1)),
                 (Oid(2, 2), ObjectRecord([0], [], RecordFormat(1, 0)))],
                RecordError,
                "format",
            ),
            # nine objects on a page that holds one already
            ([(Oid(2, s), record(s)) for s in range(1, 10)], PageFullError, "bytes"),
            ([(NULL_OID, record(1))], UnknownOidError, "null OID"),
        ],
        ids=["in-batch-duplicate", "registered", "format", "overflow", "null"],
    )
    def test_failed_batch_leaves_no_trace(self, store, items, error, match):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(0))])
        written = []
        store.add_write_hook(written.append)
        before = store_state(store)
        writes = store.disk.stats.writes
        with pytest.raises(error, match=match):
            store.store_page(extent.start, items)
        assert store_state(store) == before
        assert store.disk.stats.writes == writes
        assert written == []


class TestLoadingChargesNoRead:
    def test_store_page_reads_nothing(self):
        disk = CostedDisk()
        disk.allocate(100)
        page_id = disk.allocate(1).start
        store = ObjectStore(disk)
        assert store.store_page(page_id, [(Oid(1, 1), record(1))]) == [
            Rid(page_id, 0)
        ]
        assert disk.stats.reads == 0
        assert disk.stats.read_seeks == []
        assert disk.service_time_total == 0.0
        assert disk.stats.writes == 1
        assert disk.head_position == page_id
        # A second batch on the page continues its slot numbers.
        assert store.store_page(
            page_id, [(Oid(1, 2), record(2)), (Oid(1, 3), record(3))]
        ) == [Rid(page_id, 1), Rid(page_id, 2)]
        assert [store.fetch(Oid(1, s)).ints[0] for s in (1, 2, 3)] == [1, 2, 3]


class TestPinnedFetch:
    def test_fetch_pinned_holds_page(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(7))])
        fetched = store.fetch_pinned(Oid(1, 1))
        assert fetched.ints[0] == 7
        assert store.buffer.pin_count(extent.start) == 1
        store.unpin(Oid(1, 1))
        assert store.buffer.pin_count(extent.start) == 0

    def test_two_objects_same_page_two_pins(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(1))])
        store.store_page(extent.start, [(Oid(1, 2), record(2))])
        store.fetch_pinned(Oid(1, 1))
        store.fetch_pinned(Oid(1, 2))
        assert store.buffer.pin_count(extent.start) == 2
        store.unpin(Oid(1, 1))
        store.unpin(Oid(1, 2))


    @pytest.mark.parametrize("slot", [0, 5])
    def test_failed_fetch_holds_no_pin(self, store, slot):
        """A directory entry that points at another object's slot (0)
        or at no slot at all (5) fails either fetch form with the page
        unpinned."""
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(1))])
        store.store_page(extent.start, [(Oid(1, 2), record(2))])
        store.directory.relocate(Oid(1, 2), Rid(extent.start, slot))
        for fetch in (store.fetch, store.fetch_pinned):
            with pytest.raises(StorageError):
                fetch(Oid(1, 2))
            assert store.buffer.pin_count(extent.start) == 0


class TestAFailedWriteWritesNothing:
    """A store write that raises leaves no dirty frame behind."""

    def assert_flush_writes_nothing(self, store, page_id, image):
        stats = store.disk.stats
        before = (stats.writes, stats.write_seek_total)
        store.buffer.flush_all()
        assert (stats.writes, stats.write_seek_total) == before
        assert store.disk.dump_state()[0][page_id] is image

    def test_migrate_onto_a_full_page(self, store):
        extent = store.disk.allocate(2)
        full, other = extent.start, extent.start + 1
        per_page = store.objects_per_page()
        store.store_page(
            full, [(Oid(1, s + 1), record(s)) for s in range(per_page)]
        )
        store.store_page(other, [(Oid(1, 100), record(100))])
        image = store.disk.dump_state()[0][full]
        with pytest.raises(PageFullError):
            store.migrate(Oid(1, 100), full)
        self.assert_flush_writes_nothing(store, full, image)
        assert store.directory.lookup(Oid(1, 100)).page_id == other
        assert store.fetch(Oid(1, 100)).ints[0] == 100

    def test_overwrite_of_a_dead_slot(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(1))])
        with store.buffer.fixed(extent.start, dirty=True) as page:
            page.delete(0)
        store.buffer.flush_all()
        image = store.disk.dump_state()[0][extent.start]
        with pytest.raises(BadSlotError):
            store.overwrite(Oid(1, 1), record(2))
        self.assert_flush_writes_nothing(store, extent.start, image)
        assert store.buffer.pinned_pages == 0


class TestEntriesNameTheirImage:
    """A cache entry is trusted while its page's image is its own."""

    def test_loaded_entries_share_the_disk_image(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(1))])
        store.store_page(extent.start, [(Oid(1, 2), record(2))])
        image = store.disk.dump_state()[0][extent.start]
        for serial in (1, 2):
            view = store.fetch_pinned(Oid(1, serial))
            store.unpin(Oid(1, serial))
            assert view.image is image
        # The first entry was stamped with the image its batch wrote;
        # the fetch decoded it again and kept its tuples.
        assert store.dump_decoded()[Rid(extent.start, 0)].image is image

    def test_migrated_entry_keeps_its_tuples(self, store):
        extent = store.disk.allocate(2)
        store.store_page(extent.start, [(Oid(1, 1), record(1))])
        store.store_page(extent.start + 1, [(Oid(1, 2), record(2))])
        before = store.fetch_pinned(Oid(1, 1))
        store.unpin(Oid(1, 1))
        store.migrate(Oid(1, 1), extent.start + 1)
        after = store.fetch_pinned(Oid(1, 1))
        store.unpin(Oid(1, 1))
        assert after is not before
        assert after.ints is before.ints and after.refs is before.refs
        again = store.fetch_pinned(Oid(1, 1))
        store.unpin(Oid(1, 1))
        assert again is after

    def test_overwrite_stamps_the_written_image(self, store):
        extent = store.disk.allocate(1)
        store.store_page(extent.start, [(Oid(1, 1), record(1))])
        store.overwrite(Oid(1, 1), record(5))
        entry = store.dump_decoded()[Rid(extent.start, 0)]
        view = store.fetch_pinned(Oid(1, 1))
        store.unpin(Oid(1, 1))
        assert view is entry and view.ints[0] == 5
        store.buffer.flush_all()
        assert store.disk.dump_state()[0][extent.start] is entry.image


class TestScanExtent:
    def test_scan_extent_physical_order(self, store):
        extent = store.disk.allocate(2)
        store.store_page(extent.start + 1, [(Oid(1, 1), record(1))])
        store.store_page(extent.start, [(Oid(1, 2), record(2))])
        scanned = list(store.scan_extent(extent))
        assert [oid for oid, _ in scanned] == [Oid(1, 2), Oid(1, 1)]


class TestPagePlanner:
    def test_capacity(self, store):
        extent = store.disk.allocate(3)
        planner = PagePlanner(store, extent)
        assert store.objects_per_page() == 9
        assert len(planner.slots_in_order()) == 27

    def test_slots_in_order(self, store):
        extent = store.disk.allocate(2)
        planner = PagePlanner(store, extent)
        slots = planner.slots_in_order()
        assert len(slots) == 18
        assert slots[:9] == [extent.start] * 9
        assert slots[9:] == [extent.start + 1] * 9

    def test_claim_enforces_fill(self, store):
        extent = store.disk.allocate(1)
        planner = PagePlanner(store, extent)
        for _ in range(9):
            planner.claim(extent.start)
        with pytest.raises(PageFullError):
            planner.claim(extent.start)

    def test_claim_outside_extent(self, store):
        store.disk.allocate(2)
        extent = store.disk.allocate(1)
        planner = PagePlanner(store, extent)
        for page_id in (extent.start - 1, extent.end, extent.start + 5):
            with pytest.raises(StorageError):
                planner.claim(page_id)
        assert planner.claim(extent.start) == 1

    def test_next_sequential_skips_full_pages(self, store):
        extent = store.disk.allocate(2)
        planner = PagePlanner(store, extent)
        for _ in range(9):
            planner.claim(extent.start)
        assert planner.next_sequential() == extent.start + 1

    def test_next_sequential_exhausted(self, store):
        extent = store.disk.allocate(1)
        planner = PagePlanner(store, extent)
        for _ in range(9):
            planner.claim(planner.next_sequential())
        with pytest.raises(PageFullError):
            planner.next_sequential()

    def test_slots_reflect_claims(self, store):
        extent = store.disk.allocate(1)
        planner = PagePlanner(store, extent)
        planner.claim(extent.start)
        assert len(planner.slots_in_order()) == 8
