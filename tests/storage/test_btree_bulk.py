"""Tests for B+-tree bulk loading."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, IndexError_
from repro.storage.btree import BTree
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk


def value(n: int) -> bytes:
    return n.to_bytes(10, "big")


def small_tree(**kwargs):
    disk = SimulatedDisk()
    return BTree(
        disk, BufferManager(disk), max_leaf_keys=4, max_internal_keys=4,
        **kwargs,
    )


class TestBulkLoad:
    def test_loads_and_searches(self):
        tree = small_tree()
        items = [(k, value(k)) for k in range(100)]
        tree.bulk_load(items)
        tree.check_invariants()
        assert len(tree) == 100
        for k in (0, 37, 99):
            assert tree.search(k) == [value(k)]
        assert [k for k, _ in tree.items()] == list(range(100))

    def test_matches_incremental_build(self):
        bulk = small_tree()
        bulk.bulk_load([(k, value(k)) for k in range(57)])
        incremental = small_tree()
        for k in range(57):
            incremental.insert(k, value(k))
        assert list(bulk.items()) == list(incremental.items())

    def test_empty_input(self):
        tree = small_tree()
        tree.bulk_load([])
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_single_item(self):
        tree = small_tree()
        tree.bulk_load([(5, value(5))])
        assert tree.search(5) == [value(5)]
        tree.check_invariants()

    def test_duplicates_allowed(self):
        tree = small_tree()
        tree.bulk_load([(1, value(1)), (1, value(2)), (2, value(3))])
        assert len(tree.search(1)) == 2

    def test_unique_rejects_duplicates(self):
        tree = small_tree(unique=True)
        with pytest.raises(DuplicateKeyError):
            tree.bulk_load([(1, value(1)), (1, value(2))])

    def test_unsorted_rejected(self):
        tree = small_tree()
        with pytest.raises(IndexError_):
            tree.bulk_load([(2, value(2)), (1, value(1))])

    def test_nonempty_tree_rejected(self):
        tree = small_tree()
        tree.insert(1, value(1))
        with pytest.raises(IndexError_):
            tree.bulk_load([(2, value(2))])

    def test_bad_fill(self):
        tree = small_tree()
        with pytest.raises(IndexError_):
            tree.bulk_load([(1, value(1))], fill=0.0)

    def test_bad_value_size(self):
        tree = small_tree()
        with pytest.raises(IndexError_):
            tree.bulk_load([(1, b"short")])

    def test_partial_fill_leaves_insert_room(self):
        tree = small_tree()
        tree.bulk_load([(k * 2, value(k)) for k in range(40)], fill=0.5)
        tree.check_invariants()
        # Odd keys insert into the half-full leaves without issue.
        for k in range(1, 20, 2):
            tree.insert(k, value(k))
        tree.check_invariants()

    def test_mutations_after_bulk_load(self):
        tree = small_tree()
        tree.bulk_load([(k, value(k)) for k in range(30)])
        tree.delete(17)
        tree.insert(100, value(100))
        tree.check_invariants()
        assert tree.search(17) == []
        assert tree.search(100) == [value(100)]

    def test_bulk_is_cheaper_than_incremental(self):
        """Fewer page writes than repeated insert (the point of it)."""
        disk_bulk = SimulatedDisk()
        bulk = BTree(disk_bulk, BufferManager(disk_bulk),
                     max_leaf_keys=4, max_internal_keys=4)
        bulk.bulk_load([(k, value(k)) for k in range(200)])
        bulk.buffer.flush_all()

        disk_inc = SimulatedDisk()
        incremental = BTree(disk_inc, BufferManager(disk_inc),
                            max_leaf_keys=4, max_internal_keys=4)
        for k in range(200):
            incremental.insert(k, value(k))
        incremental.buffer.flush_all()
        assert disk_bulk.stats.writes < disk_inc.stats.writes


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-500, 500), max_size=150))
def test_bulk_load_matches_sorted_input(keys):
    tree = small_tree()
    items = sorted((k, value(abs(k))) for k in keys)
    tree.bulk_load(items)
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(keys)
