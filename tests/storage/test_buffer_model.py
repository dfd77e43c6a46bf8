"""Property-based model test for the buffer manager.

A random stream of fix/unfix operations against a capacity-bounded
buffer must agree with a reference model tracking pin counts, and must
uphold the manager's invariants: pinned pages stay resident, capacity
is never exceeded, and hit/fault counts sum to fixes.

Under injected read faults a fix counts only once its read succeeded,
as a batch fix does: a failed attempt leaves the counters alone.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferFullError, FaultError, PinError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultConfig, FaultInjector

N_PAGES = 12


@st.composite
def operation_streams(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fix", "unfix"]),
                st.integers(0, N_PAGES - 1),
            ),
            max_size=120,
        )
    )
    capacity = draw(st.integers(2, 8))
    return ops, capacity


@settings(max_examples=60, deadline=None)
@given(operation_streams())
def test_buffer_matches_pin_model(stream):
    ops, capacity = stream
    disk = SimulatedDisk()
    buffer = BufferManager(disk, capacity=capacity)
    pins = {page: 0 for page in range(N_PAGES)}

    for op, page in ops:
        if op == "fix":
            distinct_pinned = sum(1 for c in pins.values() if c > 0)
            try:
                buffer.fix(page)
            except BufferFullError:
                # Legal only when every frame is pinned and the page
                # itself is not resident.
                assert distinct_pinned >= capacity
                assert not buffer.is_resident(page)
                continue
            pins[page] += 1
        else:
            if pins[page] > 0:
                buffer.unfix(page)
                pins[page] -= 1
            else:
                try:
                    buffer.unfix(page)
                except PinError:
                    pass
                else:
                    raise AssertionError("unfix of unpinned page succeeded")

        # Invariants after every operation:
        assert buffer.resident_pages <= capacity
        for target, count in pins.items():
            assert buffer.pin_count(target) == count
            if count > 0:
                assert buffer.is_resident(target)
        assert buffer.pinned_pages == sum(1 for c in pins.values() if c > 0)

    stats = buffer.stats
    assert stats.hits + stats.faults == stats.fixes


def faulting_buffer(seed, capacity):
    """A buffer over a disk whose reads fail half the time."""
    disk = SimulatedDisk()
    FaultInjector(FaultConfig(seed=seed, read_error_rate=0.5)).attach(disk)
    return BufferManager(disk, capacity=capacity)


def counted(stats):
    """The counters a failed fix must not move (an eviction it made
    room with did happen, so ``evictions`` may)."""
    return stats.fixes, stats.hits, stats.faults, stats.re_reads


def fix_retrying(buffer, fix, page):
    """Fix ``page`` until a read succeeds; returns the failed attempts."""
    failures = 0
    while True:
        before = replace(buffer.stats)
        try:
            fix(page)
        except FaultError:
            if buffer.capacity is None:
                assert buffer.stats == before
            assert counted(buffer.stats) == counted(before)
            failures += 1
            continue
        return failures


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, N_PAGES - 1), max_size=60),
    st.integers(0, 10_000),
    st.sampled_from([None, 2, 4]),
)
def test_failed_fix_counts_nothing(pages, seed, capacity):
    buffer = faulting_buffer(seed, capacity)
    for page in pages:
        resident = buffer.is_resident(page)
        before = replace(buffer.stats)
        fix_retrying(buffer, buffer.fix, page)
        stats = buffer.stats
        # However many attempts failed: one fix, one hit or one fault.
        assert stats.fixes == before.fixes + 1
        assert stats.hits == before.hits + resident
        assert stats.faults == before.faults + (not resident)
        assert stats.hits + stats.faults == stats.fixes
        buffer.unfix(page)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, N_PAGES - 1), max_size=60),
    st.integers(0, 10_000),
    st.sampled_from([None, 2, 4]),
)
def test_fix_and_fix_many_count_faults_alike(pages, seed, capacity):
    one = faulting_buffer(seed, capacity)
    many = faulting_buffer(seed, capacity)
    for page in pages:
        assert fix_retrying(one, one.fix, page) == fix_retrying(
            many, lambda p: many.fix_many([p]), page
        )
        assert one.stats == many.stats
        one.unfix(page)
        many.unfix(page)
