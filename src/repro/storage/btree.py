"""A page-backed B+-tree.

Volcano's file system includes B-trees (Section 3).  In this
reproduction the B+-tree serves two roles:

* index scans for the Volcano engine (clustered and unclustered), and
* the related-work baseline of Section 2 — the TID-scan style join
  that looks up record pointers retrieved from an index, whose seek
  behaviour motivated the assembly operator in the first place.

Every node occupies one disk page and is read and written through the
buffer manager, so index traffic is charged seeks like any other I/O.
Keys are signed 64-bit integers; values are fixed 10-byte opaque
payloads (large enough for an encoded OID or RID).  Duplicate keys are
allowed unless the tree is created ``unique=True``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.errors import (
    DuplicateKeyError,
    IndexError_,
    KeyNotFoundError,
    StorageError,
)
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.page import PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_SIZE

_VALUE_SIZE = 10
_NODE_HEADER = struct.Struct(">BHI")  # is_leaf, n_keys, next_leaf
_KEY = struct.Struct(">q")
_CHILD = struct.Struct(">I")
_NO_NEXT = 0xFFFFFFFF

#: Usable bytes for a node record inside a one-record page.
_NODE_BYTES = PAGE_SIZE - PAGE_HEADER_SIZE - SLOT_SIZE

_LEAF_ENTRY = 8 + _VALUE_SIZE
_MAX_LEAF_KEYS = (_NODE_BYTES - _NODE_HEADER.size) // _LEAF_ENTRY
_MAX_INTERNAL_KEYS = (_NODE_BYTES - _NODE_HEADER.size - _CHILD.size) // (
    8 + _CHILD.size
)


class _Node:
    """In-memory image of one B+-tree node."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: List[int] = []
        self.values: List[bytes] = []  # leaves only
        self.children: List[int] = []  # internals only
        self.next_leaf: Optional[int] = None

    # -- serialization ------------------------------------------------------

    def encode(self) -> bytes:
        next_leaf = _NO_NEXT if self.next_leaf is None else self.next_leaf
        parts = [_NODE_HEADER.pack(1 if self.is_leaf else 0, len(self.keys), next_leaf)]
        if self.is_leaf:
            for key, value in zip(self.keys, self.values):
                parts.append(_KEY.pack(key))
                parts.append(value)
        else:
            for key in self.keys:
                parts.append(_KEY.pack(key))
            for child in self.children:
                parts.append(_CHILD.pack(child))
        body = b"".join(parts)
        if len(body) > _NODE_BYTES:
            raise StorageError("B+-tree node overflows its page")
        return body + b"\x00" * (_NODE_BYTES - len(body))

    @classmethod
    def decode(cls, page_id: int, data: bytes) -> "_Node":
        is_leaf, n_keys, next_leaf = _NODE_HEADER.unpack(
            data[: _NODE_HEADER.size]
        )
        node = cls(page_id, bool(is_leaf))
        node.next_leaf = None if next_leaf == _NO_NEXT else next_leaf
        pos = _NODE_HEADER.size
        if node.is_leaf:
            for _ in range(n_keys):
                (key,) = _KEY.unpack(data[pos : pos + 8])
                pos += 8
                node.values.append(bytes(data[pos : pos + _VALUE_SIZE]))
                pos += _VALUE_SIZE
                node.keys.append(key)
        else:
            for _ in range(n_keys):
                (key,) = _KEY.unpack(data[pos : pos + 8])
                pos += 8
                node.keys.append(key)
            for _ in range(n_keys + 1):
                (child,) = _CHILD.unpack(data[pos : pos + _CHILD.size])
                pos += _CHILD.size
                node.children.append(child)
        return node


class BTree:
    """A B+-tree index mapping int64 keys to 10-byte values.

    ``max_keys`` caps the fan-out (defaults to what fits in a page);
    tests use small values to force deep trees.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer: Optional[BufferManager] = None,
        max_leaf_keys: int = _MAX_LEAF_KEYS,
        max_internal_keys: int = _MAX_INTERNAL_KEYS,
        unique: bool = False,
        name: str = "btree",
    ) -> None:
        if max_leaf_keys < 2 or max_internal_keys < 2:
            raise IndexError_("B+-tree fan-out must be at least 2")
        if max_leaf_keys > _MAX_LEAF_KEYS or max_internal_keys > _MAX_INTERNAL_KEYS:
            raise IndexError_("B+-tree fan-out exceeds page capacity")
        self._disk = disk
        self.buffer = buffer if buffer is not None else BufferManager(disk)
        self._max_leaf = max_leaf_keys
        self._max_internal = max_internal_keys
        self.unique = unique
        self.name = name
        self._size = 0
        root = self._new_node(is_leaf=True)
        self._root_page = root.page_id
        self._save(root)

    # -- node I/O -------------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> _Node:
        extent = self._disk.allocate(1)
        node = _Node(extent.start, is_leaf)
        # Materialize the node record so later loads can update in place.
        with self.buffer.fixed(node.page_id, dirty=True) as page:
            page.insert(node.encode())
        return node

    def _load(self, page_id: int) -> _Node:
        with self.buffer.fixed(page_id) as page:
            data = page.read(0)
        return _Node.decode(page_id, data)

    def _save(self, node: _Node) -> None:
        with self.buffer.fixed(node.page_id, dirty=True) as page:
            page.update(0, node.encode())

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 = a lone leaf)."""
        levels = 1
        node = self._load(self._root_page)
        while not node.is_leaf:
            node = self._load(node.children[0])
            levels += 1
        return levels

    # -- search ----------------------------------------------------------------------

    def _descend_to_leaf(self, key: int) -> _Node:
        """Leftmost leaf that can contain ``key``.

        Descends with ``bisect_left``: when a separator equals the key,
        duplicates may sit in the child left of it (a leaf split puts
        the separator's equals on both sides), so lookups must start
        there and continue rightward along the leaf chain.
        """
        node = self._load(self._root_page)
        while not node.is_leaf:
            index = bisect_left(node.keys, key)
            node = self._load(node.children[index])
        return node

    def search(self, key: int) -> List[bytes]:
        """All values stored under ``key`` (possibly empty)."""
        node = self._descend_to_leaf(key)
        results: List[bytes] = []
        while node is not None:
            start = bisect_left(node.keys, key)
            if start == len(node.keys) and node.next_leaf is not None:
                node = self._load(node.next_leaf)
                continue
            for i in range(start, len(node.keys)):
                if node.keys[i] != key:
                    return results
                results.append(node.values[i])
            if node.next_leaf is None:
                break
            node = self._load(node.next_leaf)
        return results

    def range_scan(
        self, low: Optional[int] = None, high: Optional[int] = None
    ) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high``.

        ``None`` bounds are open.  Pairs come out in key order via the
        leaf chain.
        """
        if low is None:
            node = self._load(self._root_page)
            while not node.is_leaf:
                node = self._load(node.children[0])
            start = 0
        else:
            node = self._descend_to_leaf(low)
            start = bisect_left(node.keys, low)
        while node is not None:
            for i in range(start, len(node.keys)):
                key = node.keys[i]
                if high is not None and key > high:
                    return
                yield key, node.values[i]
            if node.next_leaf is None:
                return
            node = self._load(node.next_leaf)
            start = 0

    def items(self) -> Iterator[Tuple[int, bytes]]:
        """Full scan, in key order."""
        return self.range_scan()

    # -- insertion -------------------------------------------------------------------

    def insert(self, key: int, value: bytes) -> None:
        """Insert ``(key, value)``.

        Raises :class:`DuplicateKeyError` on a unique index when the
        key already exists.
        """
        if len(value) != _VALUE_SIZE:
            raise IndexError_(
                f"values must be {_VALUE_SIZE} bytes, got {len(value)}"
            )
        if self.unique and self.search(key):
            raise DuplicateKeyError(f"key {key} already in unique index")
        split = self._insert_into(self._root_page, key, value)
        if split is not None:
            sep_key, right_page = split
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root_page, right_page]
            self._save(new_root)
            self._root_page = new_root.page_id
        self._size += 1

    def _insert_into(
        self, page_id: int, key: int, value: bytes
    ) -> Optional[Tuple[int, int]]:
        """Insert under ``page_id``; return ``(sep_key, new_right_page)`` on split."""
        node = self._load(page_id)
        if node.is_leaf:
            index = bisect_right(node.keys, key)
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) <= self._max_leaf:
                self._save(node)
                return None
            return self._split_leaf(node)
        index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        sep_key, right_page = split
        node.keys.insert(index, sep_key)
        node.children.insert(index + 1, right_page)
        if len(node.keys) <= self._max_internal:
            self._save(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        right = self._new_node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right.page_id
        self._save(node)
        self._save(right)
        return right.keys[0], right.page_id

    def _split_internal(self, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = self._new_node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._save(node)
        self._save(right)
        return sep_key, right.page_id

    # -- bulk loading ----------------------------------------------------------------

    def bulk_load(
        self, items: List[Tuple[int, bytes]], fill: float = 1.0
    ) -> None:
        """Build the tree bottom-up from key-sorted ``(key, value)`` pairs.

        Orders of magnitude cheaper than repeated :meth:`insert` for an
        initial load: leaves are packed left to right at ``fill``
        occupancy and internal levels are stacked on top without any
        splitting.  Requires an empty tree and sorted input (verified);
        duplicates are allowed exactly as for :meth:`insert`.
        """
        if self._size:
            raise IndexError_("bulk load requires an empty tree")
        if not 0.0 < fill <= 1.0:
            raise IndexError_("fill must be in (0, 1]")
        for (key, value) in items:
            if len(value) != _VALUE_SIZE:
                raise IndexError_(
                    f"values must be {_VALUE_SIZE} bytes, got {len(value)}"
                )
        keys = [key for key, _value in items]
        if keys != sorted(keys):
            raise IndexError_("bulk load input must be key-sorted")
        if self.unique and len(set(keys)) != len(keys):
            raise DuplicateKeyError("duplicate keys in unique bulk load")
        if not items:
            return

        per_leaf = max(2, int(self._max_leaf * fill))
        # Reuse the pre-allocated empty root as the first leaf.
        leaves: List[_Node] = [self._load(self._root_page)]
        for start in range(0, len(items), per_leaf):
            chunk = items[start : start + per_leaf]
            if start == 0:
                leaf = leaves[0]
            else:
                leaf = self._new_node(is_leaf=True)
                leaves[-1].next_leaf = leaf.page_id
                leaves.append(leaf)
            leaf.keys = [key for key, _v in chunk]
            leaf.values = [value for _k, value in chunk]
        # Avoid a pathologically small last leaf (borrow one entry).
        if len(leaves) > 1 and len(leaves[-1].keys) < 2:
            donor = leaves[-2]
            leaves[-1].keys.insert(0, donor.keys.pop())
            leaves[-1].values.insert(0, donor.values.pop())
        for leaf in leaves:
            self._save(leaf)

        # Stack internal levels until a single root remains.
        level: List[Tuple[int, int]] = [
            (leaf.page_id, leaf.keys[0]) for leaf in leaves
        ]
        per_internal = max(2, self._max_internal)
        while len(level) > 1:
            next_level: List[Tuple[int, int]] = []
            for start in range(0, len(level), per_internal + 1):
                group = level[start : start + per_internal + 1]
                if len(group) == 1 and next_level:
                    # Fold a lone straggler into the previous parent.
                    parent = self._load(next_level[-1][0])
                    parent.keys.append(group[0][1])
                    parent.children.append(group[0][0])
                    self._save(parent)
                    continue
                node = self._new_node(is_leaf=False)
                node.children = [page for page, _k in group]
                node.keys = [k for _page, k in group[1:]]
                self._save(node)
                next_level.append((node.page_id, group[0][1]))
            level = next_level
        self._root_page = level[0][0]
        self._size = len(items)

    # -- deletion --------------------------------------------------------------------

    def delete(self, key: int, value: Optional[bytes] = None) -> None:
        """Remove one entry with ``key`` (and ``value``, if given).

        Raises :class:`KeyNotFoundError` when no matching entry exists.
        Underflowing nodes borrow from or merge with siblings, so the
        tree stays balanced under mixed workloads.
        """
        removed = self._delete_from(self._root_page, key, value)
        if not removed:
            raise KeyNotFoundError(f"key {key} not found")
        self._size -= 1
        root = self._load(self._root_page)
        if not root.is_leaf and len(root.children) == 1:
            self._root_page = root.children[0]

    def _min_leaf(self) -> int:
        return (self._max_leaf + 1) // 2

    def _min_internal(self) -> int:
        return (self._max_internal + 1) // 2

    def _delete_from(
        self, page_id: int, key: int, value: Optional[bytes]
    ) -> bool:
        node = self._load(page_id)
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            while index < len(node.keys) and node.keys[index] == key:
                if value is None or node.values[index] == value:
                    del node.keys[index]
                    del node.values[index]
                    self._save(node)
                    return True
                index += 1
            return False
        # Start at the leftmost child that can hold the key and walk
        # right while the separator still equals the key (duplicates
        # may straddle several children).
        index = bisect_left(node.keys, key)
        while True:
            child_page = node.children[index]
            if self._delete_from(child_page, key, value):
                self._rebalance_child(node, index)
                return True
            if index < len(node.keys) and node.keys[index] == key:
                index += 1
                continue
            return False

    def _rebalance_child(self, parent: _Node, index: int) -> None:
        child = self._load(parent.children[index])
        min_keys = self._min_leaf() if child.is_leaf else self._min_internal()
        if len(child.keys) >= min_keys or parent.children == [child.page_id]:
            return
        left = self._load(parent.children[index - 1]) if index > 0 else None
        right = (
            self._load(parent.children[index + 1])
            if index + 1 < len(parent.children)
            else None
        )
        if left is not None and len(left.keys) > min_keys:
            self._borrow_from_left(parent, index, left, child)
        elif right is not None and len(right.keys) > min_keys:
            self._borrow_from_right(parent, index, child, right)
        elif left is not None:
            self._merge(parent, index - 1, left, child)
        elif right is not None:
            self._merge(parent, index, child, right)
        self._save(parent)

    def _borrow_from_left(
        self, parent: _Node, index: int, left: _Node, child: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._save(left)
        self._save(child)

    def _borrow_from_right(
        self, parent: _Node, index: int, child: _Node, right: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._save(right)
        self._save(child)

    def _merge(
        self, parent: _Node, left_index: int, left: _Node, right: _Node
    ) -> None:
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_index]
        del parent.children[left_index + 1]
        self._save(left)

    # -- validation (for tests) --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises :class:`StorageError` on violation."""
        leaves: List[int] = []
        self._check_node(self._root_page, None, None, leaves, is_root=True)
        # Leaf chain must visit exactly the leaves, left to right.
        node = self._load(self._root_page)
        while not node.is_leaf:
            node = self._load(node.children[0])
        chained: List[int] = []
        keys: List[int] = []
        while True:
            chained.append(node.page_id)
            keys.extend(node.keys)
            if node.next_leaf is None:
                break
            node = self._load(node.next_leaf)
        if chained != leaves:
            raise StorageError("leaf chain does not match tree leaves")
        if keys != sorted(keys):
            raise StorageError("leaf keys are not globally sorted")
        if len(keys) != self._size:
            raise StorageError(
                f"size counter {self._size} != {len(keys)} stored keys"
            )

    def _check_node(
        self,
        page_id: int,
        low: Optional[int],
        high: Optional[int],
        leaves: List[int],
        is_root: bool = False,
    ) -> int:
        node = self._load(page_id)
        if node.keys != sorted(node.keys):
            raise StorageError(f"node {page_id} keys out of order")
        for key in node.keys:
            if low is not None and key < low:
                raise StorageError(f"node {page_id} violates lower bound")
            if high is not None and key > high:
                raise StorageError(f"node {page_id} violates upper bound")
        if node.is_leaf:
            leaves.append(page_id)
            return 1
        if len(node.children) != len(node.keys) + 1:
            raise StorageError(f"node {page_id} child count mismatch")
        depths = set()
        bounds = [low] + list(node.keys) + [high]
        for i, child in enumerate(node.children):
            depths.add(
                self._check_node(child, bounds[i], bounds[i + 1], leaves)
            )
        if len(depths) != 1:
            raise StorageError(f"node {page_id} has uneven subtree depths")
        return depths.pop() + 1

    def __repr__(self) -> str:
        return (
            f"BTree(name={self.name!r}, size={self._size}, "
            f"height={self.height}, unique={self.unique})"
        )
