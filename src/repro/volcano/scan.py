"""Scan operators: the TID-scan baseline and the object-store scan.

The TID scan is the related-work seed of the whole paper (Section 2):
looking up pointers retrieved from an unclustered index is expensive;
sorting the full pointer set first avoids seeks but "may require
substantial sort space"; the assembly operator generalizes the middle
ground.  :class:`TidScan` implements both endpoints (naive order and
fully sorted order) so the Section 2 baseline figure can bracket the
assembly operator.  It is the engine's one pointer-lookup operator:
``order="input"`` is the functional (pointer) join that dereferences
one OID per input row.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import PlanError
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.storage.store import ObjectStore
from repro.iterator import Row, VolcanoIterator


class TidScan(VolcanoIterator):
    """Fetch objects for a stream of OIDs (Kooi's TID-scan join).

    ``order='input'`` looks pointers up in arrival order — the naive
    unclustered-index behaviour.  ``order='sorted'`` materializes the
    *entire* pointer set, sorts it by physical page, and fetches in
    physical order — minimal seeks, maximal "sort space", exactly the
    trade-off Section 2 describes.  Yields ``(oid, ObjectRecord)``.
    """

    #: accepted fetch orders.
    ORDERS = ("input", "sorted")

    def __init__(
        self,
        source: VolcanoIterator,
        store: ObjectStore,
        order: str = "input",
    ) -> None:
        super().__init__()
        if order not in self.ORDERS:
            raise PlanError(f"order must be one of {self.ORDERS}, got {order!r}")
        self._source = source
        self._store = store
        self._order = order
        self._pending: Optional[List[Oid]] = None
        self._pos = 0

    def _open(self) -> None:
        self._source.open()
        self._pos = 0
        if self._order == "sorted":
            oids: List[Oid] = []
            while True:
                row = self._source.next()
                if row is None:
                    break
                oids.append(self._as_oid(row))
            oids.sort(key=self._store.directory.page_of)
            self._pending = oids
        else:
            self._pending = None

    @staticmethod
    def _as_oid(row: Row) -> Oid:
        if isinstance(row, Oid):
            return row
        raise PlanError(f"TidScan input must yield Oids, got {type(row).__name__}")

    def _next(self) -> Optional[Tuple[Oid, ObjectRecord]]:
        if self._pending is not None:
            if self._pos >= len(self._pending):
                return None
            oid = self._pending[self._pos]
            self._pos += 1
        else:
            row = self._source.next()
            if row is None:
                return None
            oid = self._as_oid(row)
        return oid, self._store.fetch(oid)

    def _close(self) -> None:
        self._source.close()
        self._pending = None


class StoreScan(VolcanoIterator):
    """Physical-order scan of an object-store extent.

    Yields ``(oid, ObjectRecord)`` in page order — the clustered-scan
    baseline, and a convenient way to enumerate a whole database.
    """

    def __init__(self, store: ObjectStore, extent_name_pages) -> None:
        super().__init__()
        self._store = store
        self._extent = extent_name_pages
        self._iter = None

    def _open(self) -> None:
        self._iter = self._store.scan_extent(self._extent)

    def _next(self) -> Optional[Row]:
        assert self._iter is not None
        try:
            return next(self._iter)
        except StopIteration:
            return None

    def _close(self) -> None:
        self._iter = None
