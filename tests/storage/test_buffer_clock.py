"""Tests for the clock (second-chance) replacement policy."""

import pytest

from repro.errors import BufferFullError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk


def make(capacity=3):
    disk = SimulatedDisk()
    return BufferManager(disk, capacity=capacity, policy="clock")


class TestClockReplacement:
    def test_unknown_policy_rejected(self):
        with pytest.raises(BufferFullError):
            BufferManager(SimulatedDisk(), policy="fifo")

    def test_second_chance_protects_rereferenced_page(self):
        buffer = make(capacity=2)
        buffer.fix(0)
        buffer.unfix(0)
        buffer.fix(1)
        buffer.unfix(1)
        # Touch 0 again: its reference bit is set.
        buffer.fix(0)
        buffer.unfix(0)
        # Need room: the sweep clears bits; page 1, touched longest
        # ago... both have bits set (1 from its fault), so the hand
        # clears 0's bit first, clears 1's, then evicts 0?  The exact
        # victim depends on hand position; what MUST hold is that a
        # page re-touched after every sweep survives indefinitely.
        buffer.fix(2)
        buffer.unfix(2)
        assert buffer.resident_pages == 2

    def test_hot_page_survives_cold_stream(self):
        """A page touched between every miss is never evicted."""
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=3, policy="clock")
        page_reads = []
        original_read = disk.read

        def spy(page_id):
            page_reads.append(page_id)
            return original_read(page_id)

        disk.read = spy
        buffer.fix(100)  # the hot page
        buffer.unfix(100)
        for cold in range(20):
            buffer.fix(cold)
            buffer.unfix(cold)
            buffer.fix(100)  # re-reference: bit set again
            buffer.unfix(100)
        assert buffer.is_resident(100)
        # The very first sweep may claim it (all reference bits set,
        # hand parked on it); after that the persistent hand rotates
        # through the cold frames and the hot page never faults again.
        assert page_reads.count(100) <= 2

    def test_pinned_pages_skipped(self):
        buffer = make(capacity=2)
        buffer.fix(0)  # pinned
        buffer.fix(1)
        buffer.unfix(1)
        buffer.fix(2)  # must evict 1, never pinned 0
        assert buffer.is_resident(0)
        assert not buffer.is_resident(1)

    def test_all_pinned_raises(self):
        buffer = make(capacity=2)
        buffer.fix(0)
        buffer.fix(1)
        with pytest.raises(BufferFullError):
            buffer.fix(2)

    def test_eviction_writes_back_dirty(self):
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=1, policy="clock")
        page = buffer.fix(0)
        page.insert(b"clock dirty")
        buffer.unfix(0, dirty=True)
        buffer.fix(1)
        buffer.unfix(1)
        assert disk.read(0).read(0) == b"clock dirty"

    def test_capacity_respected_under_long_stream(self):
        buffer = make(capacity=4)
        for page_id in range(50):
            buffer.fix(page_id)
            buffer.unfix(page_id)
            assert buffer.resident_pages <= 4

    def test_assembly_runs_under_clock_policy(self):
        from repro.cluster.layout import layout_database
        from repro.cluster.policies import Unclustered
        from repro.core.assembly import Assembly
        from repro.storage.store import ObjectStore
        from repro.iterator import ListSource
        from repro.workloads.acob import generate_acob, make_template

        db = generate_acob(30, seed=4)
        disk = SimulatedDisk()
        store = ObjectStore(
            disk, BufferManager(disk, capacity=40, policy="clock")
        )
        layout = layout_database(db.complex_objects, store, Unclustered())
        op = Assembly(
            ListSource(layout.root_order), store, make_template(db),
            window_size=4,
        )
        emitted = op.execute()
        assert len(emitted) == 30
        for cobj in emitted:
            cobj.verify_swizzled()
