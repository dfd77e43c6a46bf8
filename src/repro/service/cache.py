"""LRU cache of assembled complex objects.

The dynamic-clustering literature (Darmont et al.; see PAPERS.md)
motivates keeping *hot* shared structures in memory across requests
instead of re-fetching them per query.  For the assembly service the
natural unit is the finished product: an
:class:`~repro.core.assembled.AssembledComplexObject`, keyed by
``(root OID, template fingerprint)`` — the same root assembled under a
different template (different predicates, different shared borders) is
a different result.

Consistency comes from the object store's write hooks
(:meth:`~repro.storage.store.ObjectStore.add_write_hook`): every write
of an OID invalidates each cached complex object *containing* that
object, not just the entries rooted at it.  A reverse index from member
OID to cache keys makes that O(entries containing the OID).

Cached objects are returned by reference; callers treat assembled
structures as immutable (all of this repository does).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.assembled import AssembledComplexObject
from repro.errors import ServiceStateError
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore

#: Cache key: (root OID, template fingerprint).
CacheKey = Tuple[Oid, str]


@dataclass
class CacheStats:
    """Hit/miss/eviction/invalidation accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class _CacheEntry:
    """One cached complex object plus its member-OID set."""

    __slots__ = ("value", "members")

    def __init__(
        self, value: AssembledComplexObject, members: Set[Oid]
    ) -> None:
        self.value = value
        self.members = members


class AssembledObjectCache:
    """Bounded LRU over finished complex objects.

    ``capacity`` counts complex objects, not pages: the service's unit
    of reuse is one assembled result.  ``get`` refreshes recency;
    ``put`` evicts the least recently used entry beyond capacity.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ServiceStateError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, _CacheEntry]" = OrderedDict()
        self._by_member: Dict[Oid, Set[CacheKey]] = {}
        self.stats = CacheStats()
        self._wired_store: Optional["weakref.ref[ObjectStore]"] = None

    # -- lookup / insert ------------------------------------------------------

    def get(
        self, root_oid: Oid, fingerprint: str
    ) -> Optional[AssembledComplexObject]:
        """The cached result for this root under this template, if any."""
        entry = self._entries.get((root_oid, fingerprint))
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end((root_oid, fingerprint))
        self.stats.hits += 1
        return entry.value

    def put(
        self, fingerprint: str, assembled: AssembledComplexObject
    ) -> None:
        """Insert (or refresh) one finished complex object."""
        key: CacheKey = (assembled.root_oid, fingerprint)
        existing = self._entries.pop(key, None)
        if existing is not None:
            self._unindex(key, existing)
        members = {obj.oid for obj in assembled.scan()}
        self._entries[key] = _CacheEntry(assembled, members)
        for oid in members:
            self._by_member.setdefault(oid, set()).add(key)
        while len(self._entries) > self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._unindex(evicted_key, evicted)
            self.stats.evictions += 1

    def _unindex(self, key: CacheKey, entry: _CacheEntry) -> None:
        for oid in entry.members:
            keys = self._by_member.get(oid)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_member[oid]

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, oid: Oid) -> int:
        """Drop every cached complex object containing ``oid``.

        This is the write hook: a write anywhere inside a cached
        structure makes the whole cached structure stale.  Returns the
        number of entries dropped.
        """
        keys = self._by_member.get(oid)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            entry = self._entries.pop(key, None)
            if entry is None:
                continue
            self._unindex(key, entry)
            dropped += 1
        self.stats.invalidations += dropped
        return dropped

    # -- store wiring ---------------------------------------------------------

    def wire(self, store: ObjectStore) -> None:
        """Subscribe to a store's writes (idempotent per store).

        The store's hook list holds the cache; the cache holds the
        store only weakly, so the pair is no reference cycle.
        """
        if self._wired_store is not None and self._wired_store() is store:
            return
        self.unwire()
        store.add_write_hook(self.invalidate)
        self._wired_store = weakref.ref(store)

    def unwire(self) -> None:
        """Stop following the previously wired store's writes."""
        if self._wired_store is not None:
            store = self._wired_store()
            if store is not None:
                store.remove_write_hook(self.invalidate)
            self._wired_store = None
