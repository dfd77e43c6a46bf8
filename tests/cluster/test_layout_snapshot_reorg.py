"""Snapshot/restore must round-trip *reorganized* layouts.

:func:`repro.cluster.layout.snapshot_layout` predates online
reorganization and used to dump raw disk pages while migrations were
still sitting dirty in the buffer — the directory pointed at the new
addresses, the page images held the old bytes.  The flush-first fix is
pinned here: a layout snapshotted *after* migration rounds restores
onto a fresh store bit-identically — disk image, directory, the
``reorg-N`` extents, and the behaviour of an assembly (with a bounded
buffer, so the sweep pool's residency tracking is exercised) running
on top.  Ground truth throughout is the naive reference — the
generator's own object definitions — so corruption cannot hide behind
a symmetric bug.
"""

from repro.cluster.layout import (
    layout_database,
    restore_layout,
    snapshot_layout,
)
from repro.cluster.policies import Unclustered
from repro.cluster.reorg import Reorganizer, ReorgPolicy
from repro.core.assembly import Assembly
from repro.core.schedulers import make_scheduler
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template
from tests.faults.test_chaos_property import fingerprint

DB_SIZE = 24
EAGER = ReorgPolicy(min_weight=1.0, min_observations=1)


def reorganized_layout():
    """A laid-out database after two migration rounds.

    Round one packs the first six roots onto one fresh extent, round
    two the next six — two ``reorg-N`` extents, a dozen tombstoned
    source slots, and dirty buffer frames at snapshot time: exactly
    the state the pre-fix snapshot got wrong.
    """
    db = generate_acob(DB_SIZE, seed=5)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, Unclustered(), shared=db.shared_pool
    )
    reorg = Reorganizer(store, EAGER).bind_layout(layout)
    for round_start in (0, 6):
        hot = layout.roots[round_start : round_start + 6]
        for context in range(3):
            for root in hot:
                reorg.observe(("q", context, round_start), root)
        report = reorg.run_round()
        assert report.migrations > 0
    assert "reorg-1" in layout.extents and "reorg-2" in layout.extents
    return db, store, layout


def fresh_store():
    disk = SimulatedDisk()
    return ObjectStore(disk, BufferManager(disk))


class TestReorganizedRoundTrip:
    def test_disk_image_round_trips_including_dirty_frames(self):
        _db, store, layout = reorganized_layout()
        snapshot = snapshot_layout(layout)

        restored_store = fresh_store()
        restore_layout(snapshot, restored_store)

        built_pages, built_free = store.disk.dump_state()
        restored_pages, restored_free = restored_store.disk.dump_state()
        assert restored_pages == built_pages
        assert restored_free == built_free

    def test_directory_and_reorg_extents_round_trip(self):
        _db, store, layout = reorganized_layout()
        snapshot = snapshot_layout(layout)

        restored_store = fresh_store()
        restored = restore_layout(snapshot, restored_store)

        assert restored.extents == layout.extents
        assert restored_store.directory.dump() == store.directory.dump()
        for root in layout.roots[:12]:
            assert (
                restored_store.directory.page_of(root)
                in range(
                    layout.extents["reorg-1"].start,
                    layout.extents["reorg-2"].end,
                )
            )

    def test_restored_records_match_the_naive_reference(self):
        """Every object on the restored clone is byte-equal to the
        generator's definition — migrations and the snapshot round-trip
        moved bytes, never changed them."""
        db, _store, layout = reorganized_layout()
        snapshot = snapshot_layout(layout)

        restored_store = fresh_store()
        restore_layout(snapshot, restored_store)

        definitions = dict(db.shared_pool)
        for cobj in db.complex_objects:
            definitions.update(cobj.objects)
        for oid, definition in definitions.items():
            assert (
                restored_store.fetch(oid).encode()
                == definition.to_record().encode()
            )

    def test_assembly_on_restored_layout_is_bit_identical(self):
        """An elevator-scheduled run with a bounded buffer — residency
        probing and all — sees no difference between the reorganized
        store and its restored clone."""
        db, store, layout = reorganized_layout()
        snapshot = snapshot_layout(layout)

        def run(target_store):
            operator = Assembly(
                ListSource(layout.root_order),
                target_store,
                make_template(db),
                window_size=2,
                scheduler=make_scheduler(
                    "elevator",
                    head_fn=lambda: target_store.disk.head_position,
                    resident_fn=target_store.buffer.is_resident,
                ),
            )
            return fingerprint(operator.execute())

        disk = SimulatedDisk()
        restored_store = ObjectStore(
            disk, BufferManager(disk, capacity=16)
        )
        restore_layout(snapshot, restored_store)

        # Fresh clone for the baseline too (same buffer geometry; the
        # original store has warm frames from the migration rounds).
        baseline_disk = SimulatedDisk()
        baseline_store = ObjectStore(
            baseline_disk, BufferManager(baseline_disk, capacity=16)
        )
        restore_layout(snapshot_layout(layout), baseline_store)

        assert run(restored_store) == run(baseline_store)
        assert restored_store.buffer.pinned_pages == 0
