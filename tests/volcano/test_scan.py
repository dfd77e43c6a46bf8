"""Tests for the TID-scan baseline and the object-store scan."""

import pytest

from repro.errors import PlanError
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.iterator import ListSource
from repro.volcano.scan import StoreScan, TidScan


class TestTidScan:
    def populate(self, store, n=30):
        extent = store.disk.allocate(-(-n // 9))
        oids = []
        for serial in range(n):
            oid = Oid(1, serial + 1)
            page = extent.start + serial // 9
            store.store_page(page, [(oid, ObjectRecord(ints=[serial, 0, 0, 0]))])
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
        pages = [store.directory.page_of(oid) for oid, _ in rows]
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
            store.store_page(
                extent.start + serial // 9,
                [(Oid(1, serial + 1), ObjectRecord(ints=[serial, 0, 0, 0]))],
            )
        rows = StoreScan(store, extent).execute()
        assert len(rows) == 12
        assert [record.ints[0] for _oid, record in rows] == list(range(12))
