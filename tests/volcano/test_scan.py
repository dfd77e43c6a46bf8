"""Tests for scan operators, including the TID-scan baseline."""

import pytest

from repro.errors import PlanError
from repro.storage.btree import BTree
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.iterator import ListSource
from repro.volcano.scan import FileScan, IndexScan, StoreScan, TidScan


class TestFileScan:
    def test_scans_in_file_order(self):
        disk = SimulatedDisk()
        heap = HeapFile(disk, BufferManager(disk))
        payloads = [f"r{i}".encode() for i in range(5)]
        for p in payloads:
            heap.append(p)
        rows = FileScan(heap).execute()
        assert [record for _rid, record in rows] == payloads

    def test_decode_hook(self):
        disk = SimulatedDisk()
        heap = HeapFile(disk, BufferManager(disk))
        heap.append(b"42")
        rows = FileScan(heap, decode=lambda rid, data: int(data)).execute()
        assert rows == [42]


class TestIndexScan:
    def make_index(self):
        disk = SimulatedDisk()
        tree = BTree(disk, BufferManager(disk), max_leaf_keys=4, max_internal_keys=4)
        for key in range(20):
            tree.insert(key, key.to_bytes(10, "big"))
        return tree

    def test_full_scan_key_order(self):
        rows = IndexScan(self.make_index()).execute()
        assert [key for key, _ in rows] == list(range(20))

    def test_range(self):
        rows = IndexScan(self.make_index(), low=5, high=8).execute()
        assert [key for key, _ in rows] == [5, 6, 7, 8]

    def test_decode(self):
        rows = IndexScan(
            self.make_index(), low=3, high=3,
            decode=lambda k, v: int.from_bytes(v, "big"),
        ).execute()
        assert rows == [3]

    def test_bad_range(self):
        with pytest.raises(PlanError):
            IndexScan(self.make_index(), low=9, high=2)


class TestTidScan:
    def populate(self, store, n=30):
        extent = store.disk.allocate(-(-n // 9))
        oids = []
        for serial in range(n):
            oid = Oid(1, serial + 1)
            page = extent.start + serial // 9
            store.store_at(oid, ObjectRecord(ints=[serial, 0, 0, 0]), page)
            oids.append(oid)
        store.disk.reset_stats()
        return oids

    def test_input_order(self, store):
        oids = self.populate(store)
        shuffled = list(reversed(oids))
        rows = TidScan(ListSource(shuffled), store, order="input").execute()
        assert [oid for oid, _ in rows] == shuffled

    def test_sorted_order_fetches_by_page(self, store):
        oids = self.populate(store)
        shuffled = list(reversed(oids))
        scan = TidScan(ListSource(shuffled), store, order="sorted")
        rows = scan.execute()
        pages = [store.page_of(oid) for oid, _ in rows]
        assert pages == sorted(pages)

    def test_sorted_reduces_seeks(self, store):
        """Section 2: sorting the pointer set avoids unclustered-scan seeks."""
        import random

        oids = self.populate(store, n=90)
        rng = random.Random(0)
        shuffled = list(oids)
        rng.shuffle(shuffled)

        TidScan(ListSource(shuffled), store, order="input").execute()
        naive_seek = store.disk.stats.read_seek_total

        store.buffer.drop_clean()
        store.disk.reset_stats()
        TidScan(ListSource(shuffled), store, order="sorted").execute()
        sorted_seek = store.disk.stats.read_seek_total
        assert sorted_seek < naive_seek

    def test_rejects_non_oid_input(self, store):
        scan = TidScan(ListSource([1, 2, 3]), store)
        with pytest.raises(PlanError):
            scan.execute()

    def test_unknown_order(self, store):
        with pytest.raises(PlanError):
            TidScan(ListSource([]), store, order="elevator")

    def test_records_come_back_decoded(self, store):
        oids = self.populate(store, n=5)
        rows = TidScan(ListSource(oids), store).execute()
        assert [record.ints[0] for _oid, record in rows] == list(range(5))


class TestStoreScan:
    def test_scans_extent(self, store):
        extent = store.disk.allocate(2)
        for serial in range(12):
            store.store_at(
                Oid(1, serial + 1),
                ObjectRecord(ints=[serial, 0, 0, 0]),
                extent.start + serial // 9,
            )
        rows = StoreScan(store, extent).execute()
        assert len(rows) == 12
        assert [record.ints[0] for _oid, record in rows] == list(range(12))
