"""Heap files: append-ordered record files over the simulated disk.

Volcano's file system provides heap files (Section 3); here they hold
the sorted runs that :class:`~repro.volcano.sort.ExternalSort` spills.

A heap file owns a chain of pages allocated in extents, fills each
extent's pages in order, and supports append, fetch-by-RID, update,
delete, and full scans of the pages written.  Records are raw byte
strings; schemas live above this layer.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import BadSlotError, PageFullError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Rid

#: Pages claimed from the disk each time a heap file grows.
DEFAULT_EXTENT_PAGES = 8


class HeapFile:
    """An unordered file of variable-length records.

    Pages are acquired from the shared disk in contiguous extents but a
    heap file's pages need not be globally contiguous — extents from
    different files interleave on disk, just as in a real system.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer: Optional[BufferManager] = None,
        extent_pages: int = DEFAULT_EXTENT_PAGES,
        name: str = "heap",
    ) -> None:
        if extent_pages <= 0:
            raise StorageError("extent_pages must be positive")
        self._disk = disk
        self.buffer = buffer if buffer is not None else BufferManager(disk)
        self._extent_pages = extent_pages
        self.name = name
        self._pages: List[int] = []
        self._next_page = self._extent_end = 0
        self._record_count = 0

    # -- growth ------------------------------------------------------------

    def _grow(self) -> None:
        """Add the next page of the current extent, claiming one if spent."""
        if self._next_page == self._extent_end:
            extent = self._disk.allocate(self._extent_pages)
            self._next_page, self._extent_end = extent.start, extent.end
        self._pages.append(self._next_page)
        self._next_page += 1

    @property
    def page_ids(self) -> Tuple[int, ...]:
        """The pages that hold the file's records, in file order."""
        return tuple(self._pages)

    def __len__(self) -> int:
        return self._record_count

    # -- modification -------------------------------------------------------

    def append(self, record: bytes) -> Rid:
        """Add a record at the end of the file; return its RID."""
        if not record:
            raise StorageError("cannot append an empty record")
        if not self._pages:
            self._grow()
        last = self._pages[-1]
        page = self.buffer.fix(last)
        try:
            slot = page.insert(record)
            self.buffer.unfix(last, dirty=True)
        except PageFullError:
            self.buffer.unfix(last)
            self._grow()
            new_last = self._pages[-1]
            with self.buffer.fixed(new_last, dirty=True) as fresh:
                slot = fresh.insert(record)
            last = new_last
        self._record_count += 1
        return Rid(last, slot)

    def fetch(self, rid: Rid) -> bytes:
        """Read the record stored at ``rid``."""
        if rid.page_id not in self._page_set():
            raise BadSlotError(f"{rid} is not in heap file {self.name!r}")
        with self.buffer.fixed(rid.page_id) as page:
            return page.read(rid.slot)

    def update(self, rid: Rid, record: bytes) -> None:
        """Overwrite the record at ``rid`` (same length only)."""
        if rid.page_id not in self._page_set():
            raise BadSlotError(f"{rid} is not in heap file {self.name!r}")
        with self.buffer.fixed(rid.page_id, dirty=True) as page:
            page.update(rid.slot, record)

    def delete(self, rid: Rid) -> None:
        """Tombstone the record at ``rid``."""
        if rid.page_id not in self._page_set():
            raise BadSlotError(f"{rid} is not in heap file {self.name!r}")
        with self.buffer.fixed(rid.page_id, dirty=True) as page:
            page.delete(rid.slot)
        self._record_count -= 1

    def _page_set(self) -> set:
        return set(self._pages)

    # -- scanning -------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[Rid, bytes]]:
        """Yield ``(rid, record)`` for every live record in file order."""
        for page_id in self._pages:
            with self.buffer.fixed(page_id) as page:
                contents = list(page.records())
            for slot, record in contents:
                yield Rid(page_id, slot), record

    def flush(self) -> None:
        """Write all dirty buffered pages of this file back to disk."""
        self.buffer.flush_all()
