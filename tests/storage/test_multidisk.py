"""Tests for the multi-device disk."""

import pytest

from repro.errors import DiskError, ExtentError
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.page import Page


class TestGeometry:
    def test_address_space(self):
        disk = MultiDeviceDisk(n_devices=3, pages_per_device=100)
        assert disk.device_of(0) == 0
        assert disk.device_of(99) == 0
        assert disk.device_of(100) == 1
        assert disk.device_of(299) == 2
        with pytest.raises(DiskError):
            disk.device_of(300)

    def test_bad_parameters(self):
        with pytest.raises(DiskError):
            MultiDeviceDisk(n_devices=0, pages_per_device=10)
        with pytest.raises(DiskError):
            MultiDeviceDisk(n_devices=2, pages_per_device=0)


class TestIndependentHeads:
    def test_seeks_charged_per_device(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        disk.read(50)    # device 0: head 0 -> 50
        disk.read(150)   # device 1: head 100 -> 150
        disk.read(60)    # device 0: head 50 -> 60 (10, not 90!)
        assert disk.device_stats[0].read_seeks == [50, 10]
        assert disk.device_stats[1].read_seeks == [50]
        assert disk.stats.read_seek_total == 110

    def test_interleaving_does_not_interfere(self):
        """Alternating devices costs the same as visiting each alone."""
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=1000)
        for offset in range(10):
            disk.read(offset * 10)          # device 0 sweep
            disk.read(1000 + offset * 10)   # device 1 sweep
        # Each device swept 0..90 in 10-page steps: 90 total each.
        assert disk.device_stats[0].read_seek_total == 90
        assert disk.device_stats[1].read_seek_total == 90

    def test_reset_parks_all_heads(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        disk.read(70)
        disk.read(170)
        disk.reset_stats()
        assert disk.head_of(0) == 0
        assert disk.head_of(1) == 100
        assert disk.device_stats[0].reads == 0


class TestAllocation:
    def test_round_robin_across_devices(self):
        disk = MultiDeviceDisk(n_devices=3, pages_per_device=100)
        extents = [disk.allocate(10) for _ in range(6)]
        devices = [disk.device_of(e.start) for e in extents]
        assert devices == [0, 1, 2, 0, 1, 2]

    def test_skip_full_device(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=30)
        disk.allocate(25)  # device 0
        disk.allocate(1)  # device 1; device 0 is next in turn
        extent = disk.allocate(10)  # does not fit device 0's remainder
        assert disk.device_of(extent.start) == 1

    def test_all_full_raises(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=10)
        disk.allocate(10)
        disk.allocate(10)
        with pytest.raises(ExtentError):
            disk.allocate(1)

    def test_extent_never_straddles_devices(self):
        disk = MultiDeviceDisk(n_devices=4, pages_per_device=50)
        for _ in range(4):
            extent = disk.allocate(30)
            assert disk.device_of(extent.start) == disk.device_of(
                extent.end - 1
            )


class TestPersistence:
    def test_read_write_roundtrip(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        page = Page(150)
        page.insert(b"on device one")
        disk.write(page)
        assert disk.read(150).read(0) == b"on device one"


class TestAccountingConsistency:
    """Aggregate stats must equal the sum of the per-device stats —
    including after a parent ``reset_stats`` (the regression: child
    run/batch accounting used to be able to drift from the parent)."""

    def exercise(self, disk):
        for page_id in (10, 150, 30, 170):
            page = Page(page_id)
            page.insert(b"x")
            disk.write(page)
        disk.read(10)
        disk.read(150)
        disk.read_run(20, 4)
        disk.read_run(160, 3)

    def assert_consistent(self, disk):
        for field in (
            "reads",
            "writes",
            "read_seek_total",
            "write_seek_total",
            "pages_read",
            "run_reads",
        ):
            aggregate = getattr(disk.stats, field)
            mirrored = sum(getattr(s, field) for s in disk.device_stats)
            assert aggregate == mirrored, field
        assert disk.stats.busy_ms == sum(
            s.busy_ms for s in disk.device_stats
        )

    def test_writes_mirrored_per_device(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        self.exercise(disk)
        assert disk.device_stats[0].writes == 2
        assert disk.device_stats[1].writes == 2
        self.assert_consistent(disk)

    def test_parent_reset_resets_children(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        self.exercise(disk)
        disk.reset_stats()
        for stats in [disk.stats] + list(disk.device_stats):
            assert stats.reads == 0
            assert stats.writes == 0
            assert stats.pages_read == 0
            assert stats.run_reads == 0
            assert stats.read_seek_total == 0
            assert stats.write_seek_total == 0
            assert stats.busy_ms == 0.0

    def test_accounting_consistent_after_reset(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=100)
        self.exercise(disk)
        disk.reset_stats()
        self.exercise(disk)
        self.assert_consistent(disk)


class TestExchangeResetConsistency:
    """The exchange path keeps multi-device accounting honest.

    ``PartitionedExecute`` drives several assembly fragments over one
    multi-device store; the aggregate stats must stay the exact sum of
    the per-device stats through that traffic, and ``reset_stats`` must
    restore a cold disk so a rerun is bit-identical (parked heads, zero
    run accounting) — the drift a plain unit exercise can miss."""

    def build(self):
        from repro.cluster.layout import layout_database
        from repro.cluster.policies import InterObjectClustering
        from repro.storage.buffer import BufferManager
        from repro.storage.store import ObjectStore
        from repro.workloads.acob import generate_acob

        disk = MultiDeviceDisk(n_devices=3, pages_per_device=600)
        store = ObjectStore(disk, BufferManager(disk))
        db = generate_acob(18, seed=3)
        layout = layout_database(
            db.complex_objects,
            store,
            InterObjectClustering(cluster_pages=16),
            shared=db.shared_pool,
        )
        return db, store, layout

    def run_exchange(self, db, store, layout):
        from repro.volcano.assembly import AssemblyOperator
        from repro.volcano.exchange import PartitionedExecute
        from repro.workloads.acob import make_template

        plan = PartitionedExecute(
            rows=list(layout.root_order),
            n_partitions=3,
            fragment=lambda source: AssemblyOperator(
                source, store, make_template(db), window_size=2
            ),
        )
        return plan.execute()

    @staticmethod
    def snapshot(disk):
        def fields(stats):
            return (
                stats.reads,
                stats.writes,
                stats.read_seek_total,
                stats.write_seek_total,
                stats.pages_read,
                stats.run_reads,
                stats.busy_ms,
            )

        return (fields(disk.stats), tuple(fields(s) for s in disk.device_stats))

    def test_aggregate_mirrors_devices_through_exchange(self):
        db, store, layout = self.build()
        store.disk.reset_stats()
        rows = self.run_exchange(db, store, layout)
        assert len(rows) == 18
        aggregate, per_device = self.snapshot(store.disk)
        assert aggregate == tuple(map(sum, zip(*per_device)))
        assert aggregate[0] > 0  # the exchange actually read pages

    def test_reset_makes_reruns_bit_identical(self):
        db, store, layout = self.build()

        def cold_run():
            store.buffer.drop_clean()
            store.disk.reset_stats()
            self.run_exchange(db, store, layout)
            return self.snapshot(store.disk)

        assert cold_run() == cold_run()
