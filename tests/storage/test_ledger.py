"""The device-time ledger: one pricer over the disk's one read tap.

Property-tested over random ``read`` / ``read_run`` / ``read_batch``
sequences on single- and multi-device disks (runs may cross a device
boundary).  The reference is the per-read fold every pricer used to
perform privately: ``total = 0.0; total += run_service_time(seek, n)``
over the physical reads in order, kept here as the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransientReadError
from repro.storage.costmodel import (
    MIGRATION,
    SERVING,
    CostModel,
    CostedDisk,
    DeviceLedger,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultConfig, FaultInjector
from repro.storage.multidisk import MultiDeviceDisk

DEVICES, PER_DEVICE = 3, 16
PAGES = DEVICES * PER_DEVICE
MODEL = CostModel()

page = st.integers(0, PAGES - 1)
operation = st.one_of(
    st.tuples(st.just("read"), page),
    st.tuples(st.just("run"), page, st.integers(1, PER_DEVICE + 4)),
    st.tuples(st.just("batch"), st.lists(page, min_size=1, max_size=6)),
)
operations = st.lists(operation, max_size=30)
disk_kind = st.sampled_from(["single", "multi"])


def make_disk(kind):
    if kind == "single":
        return SimulatedDisk(n_pages=PAGES)
    return MultiDeviceDisk(n_devices=DEVICES, pages_per_device=PER_DEVICE)


def perform(disk, op):
    if op[0] == "read":
        disk.read(op[1])
    elif op[0] == "run":
        start, length = op[1], min(op[2], PAGES - op[1])
        disk.read_run(start, length)
    else:
        disk.read_batch(op[1])


def ledger_on(disk, **kwargs):
    """A ledger fed from ``disk``'s read tap."""
    ledger = DeviceLedger(disk.n_devices, MODEL, **kwargs)
    disk.add_read_tap(ledger.record)
    return ledger


def watch(disk):
    """Every physical read as the tap reports it, in order."""
    reads = []
    disk.add_read_tap(lambda device, start, seek, n: reads.append(
        (device, start, seek, n)
    ))
    return reads


def heads(disk):
    return [disk.head_of(device) for device in range(disk.n_devices)]


@settings(max_examples=60, deadline=None)
@given(kind=disk_kind, ops=operations)
def test_total_is_the_per_read_fold_bit_for_bit(kind, ops):
    disk = make_disk(kind)
    reads = watch(disk)
    ledger = ledger_on(disk)
    for op in ops:
        perform(disk, op)
    total = 0.0
    per_device = [0.0] * disk.n_devices
    for device, _start, seek, n_pages in reads:
        cost = MODEL.run_service_time(seek, n_pages)
        total += cost
        per_device[device] += cost
    assert ledger.total == total
    assert ledger.busy_until == per_device
    assert sum(ledger.busy_time) == pytest.approx(total)
    # The tap and DiskStats describe the same reads.
    assert [seek for _d, _s, seek, _n in reads] == disk.stats.read_seeks
    assert sum(n for _d, _s, _k, n in reads) == disk.stats.pages_read


@settings(max_examples=60, deadline=None)
@given(kind=disk_kind, ops=operations)
def test_intervals_are_contiguous_per_device(kind, ops):
    disk = make_disk(kind)
    reads = watch(disk)
    ledger = ledger_on(disk, intervals=True)
    for op in ops:
        perform(disk, op)
    assert sum(len(t) for t in ledger.intervals) == len(reads)
    for device, timeline in enumerate(ledger.intervals):
        clock = 0.0
        for begin, end, kind_, pages, seek in timeline:
            assert begin == clock and end > begin
            assert kind_ == SERVING
            clock = end
        assert ledger.busy_until[device] == clock
        assert [(iv[3], iv[4]) for iv in timeline] == [
            (n, seek) for d, _s, seek, n in reads if d == device
        ]


@settings(max_examples=60, deadline=None)
@given(
    kind=disk_kind, before=operations, inside=operations, after=operations,
    origin=st.floats(0.0, 1e6),
)
def test_since_returns_exactly_the_reads_of_the_bracket(
    kind, before, inside, after, origin
):
    disk = make_disk(kind)
    ledger = ledger_on(disk)
    for op in before:
        perform(disk, op)
    placed = list(ledger.busy_until)
    reads = watch(disk)
    mark = ledger.mark(origin, disk.fault_injector)
    for op in inside:
        perform(disk, op)
    n_reads, n_pages, end, injected = ledger.since(mark, disk.fault_injector)
    bracketed = list(reads)
    expected = origin
    for _device, _start, seek, n in bracketed:
        expected += MODEL.run_service_time(seek, n)
    assert (n_reads, n_pages) == (
        len(bracketed), sum(n for _d, _s, _k, n in bracketed)
    )
    assert end == expected
    assert injected == 0.0
    # Bracketed reads are priced into the total but placed by nobody;
    # once the bracket is closed, reads occupy their devices again.
    assert ledger.busy_until == placed
    for op in after:
        perform(disk, op)
    for device, _start, seek, n in reads[len(bracketed):]:
        placed[device] += MODEL.run_service_time(seek, n)
    assert ledger.busy_until == placed


@settings(max_examples=40, deadline=None)
@given(kind=disk_kind, ops=operations, n_ledgers=st.integers(0, 2))
def test_ledgers_change_no_accounting(kind, ops, n_ledgers):
    bare, tapped = make_disk(kind), make_disk(kind)
    for _ in range(n_ledgers):
        ledger_on(tapped, intervals=True)
    for disk in (bare, tapped):
        for op in ops:
            perform(disk, op)
    assert tapped.stats == bare.stats
    assert heads(tapped) == heads(bare)
    if kind == "multi":
        assert tapped.device_stats == bare.device_stats


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_faulted_read_records_nothing(kind):
    disk = make_disk(kind)
    ledger = ledger_on(disk, intervals=True)
    FaultInjector(
        FaultConfig(always_fail_pages=frozenset({20}),
                    max_consecutive_failures=2)
    ).attach(disk)
    disk.read(5)
    recorded = (ledger.total, list(ledger.busy_until), heads(disk))
    with pytest.raises(TransientReadError):
        disk.read(20)
    with pytest.raises(TransientReadError):
        disk.read_run(20, 3)
    assert (ledger.total, ledger.busy_until, heads(disk)) == recorded
    assert sum(len(t) for t in ledger.intervals) == 1
    disk.read(20)  # the bound forces the retry through
    assert ledger.total > recorded[0]


def test_run_crossing_devices_is_one_read_per_device():
    disk = MultiDeviceDisk(n_devices=DEVICES, pages_per_device=PER_DEVICE)
    ledger = ledger_on(disk, intervals=True)
    disk.read_run(PER_DEVICE - 2, PER_DEVICE + 4)  # devices 0, 1, 2
    assert [len(t) for t in ledger.intervals] == [1, 1, 1]
    assert [t[0][3] for t in ledger.intervals] == [2, PER_DEVICE, 2]
    assert ledger.total == pytest.approx(sum(ledger.busy_until))


def test_untapped_ledger_stops_recording_and_reset_forgets():
    disk = SimulatedDisk()
    ledger = ledger_on(disk, intervals=True)
    disk.read(4)
    disk.remove_read_tap(ledger.record)
    disk.read(9)
    assert len(ledger.intervals[0]) == 1
    ledger.reset()
    assert (ledger.total, ledger.busy_until, ledger.intervals) == (
        0.0, [0.0], [[]]
    )


def test_occupy_stamps_the_current_kind():
    ledger = DeviceLedger(1, MODEL, intervals=True)
    ledger.occupy(0, 0.0, 4.0, pages=2, seek=7)
    ledger.kind = MIGRATION
    ledger.occupy(0, 4.0, 5.0)
    assert ledger.intervals[0] == [
        (0.0, 4.0, SERVING, 2, 7), (4.0, 5.0, MIGRATION, 0, 0)
    ]
    assert ledger.busy_until == [5.0] and ledger.busy_time == [5.0]


def test_default_costed_disks_do_not_share_a_cost_model():
    first, second = CostedDisk(), CostedDisk()
    assert first.cost_model is not second.cost_model
    first.read(9)
    assert second.cost_model._run_cache == {}
