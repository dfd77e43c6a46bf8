"""Tests for the external merge sort."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.volcano.sort import ExternalSort


def make_store():
    disk = SimulatedDisk()
    return ObjectStore(disk, BufferManager(disk))


class TestInMemory:
    def test_sorts_within_one_run(self):
        op = ExternalSort(ListSource([3, 1, 2]), key=lambda n: n)
        assert op.execute() == [1, 2, 3]
        assert op.runs_spilled == 0

    def test_key_function(self):
        rows = [("b", 2), ("a", 1), ("c", 3)]
        op = ExternalSort(ListSource(rows), key=lambda r: r[0])
        assert [r[0] for r in op.execute()] == ["a", "b", "c"]

    def test_reverse(self):
        op = ExternalSort(ListSource([1, 3, 2]), key=lambda n: n, reverse=True)
        assert op.execute() == [3, 2, 1]

    def test_empty_input(self):
        assert ExternalSort(ListSource([]), key=lambda n: n).execute() == []

    def test_input_of_exactly_one_run_is_not_spilled(self):
        data = [3, 1, 4, 2]
        store = make_store()
        spilling = ExternalSort(
            ListSource(data), key=lambda n: n, run_capacity=4, store=store
        )
        assert spilling.execute() == [1, 2, 3, 4]
        assert spilling.runs_spilled == 0
        assert store.disk.allocated_pages == 0
        in_memory = ExternalSort(ListSource(data), key=lambda n: n, run_capacity=4)
        assert in_memory.execute() == [1, 2, 3, 4]

    def test_overflow_without_store_rejected(self):
        op = ExternalSort(ListSource(range(10)), key=lambda n: n, run_capacity=4)
        with pytest.raises(PlanError):
            op.execute()

    def test_bad_run_capacity(self):
        with pytest.raises(PlanError):
            ExternalSort(ListSource([]), key=lambda n: n, run_capacity=0)


class TestSpilling:
    def test_spills_and_merges(self):
        rng = random.Random(7)
        data = [rng.randrange(10_000) for _ in range(500)]
        op = ExternalSort(
            ListSource(data),
            key=lambda n: n,
            run_capacity=64,
            store=make_store(),
        )
        assert op.execute() == sorted(data)
        assert op.runs_spilled == 8

    def test_spilled_reverse_numeric(self):
        data = [5, 1, 9, 3, 7, 2, 8]
        op = ExternalSort(
            ListSource(data),
            key=lambda n: n,
            run_capacity=3,
            store=make_store(),
            reverse=True,
        )
        assert op.execute() == sorted(data, reverse=True)

    def test_spilled_complex_rows(self):
        rows = [{"k": i % 5, "v": i} for i in range(40)]
        op = ExternalSort(
            ListSource(rows),
            key=lambda r: (r["k"], r["v"]),
            run_capacity=8,
            store=make_store(),
        )
        out = op.execute()
        assert out == sorted(rows, key=lambda r: (r["k"], r["v"]))

    def test_run_boundary_exact_multiple(self):
        data = list(range(16, 0, -1))
        op = ExternalSort(
            ListSource(data), key=lambda n: n, run_capacity=8, store=make_store()
        )
        assert op.execute() == sorted(data)

    def test_reopen_resorts(self):
        op = ExternalSort(
            ListSource([2, 1]), key=lambda n: n, run_capacity=1, store=make_store()
        )
        assert op.execute() == [1, 2]
        assert op.execute() == [1, 2]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), max_size=200),
    st.integers(1, 50),
)
def test_external_sort_matches_sorted(data, run_capacity):
    op = ExternalSort(
        ListSource(data),
        key=lambda n: n,
        run_capacity=run_capacity,
        store=make_store(),
    )
    assert op.execute() == sorted(data)
