"""OID-addressed object storage with explicit physical placement.

The clustering layouts of Figures 8–10 need to decide *which page* each
storage-layer object lands on; the assembly operator then fetches
objects by OID through the buffer manager.  :class:`ObjectStore` is the
meeting point: a layout writes objects to chosen pages, the store
registers OID → RID in the :class:`~repro.storage.oid.OidDirectory`,
and fetches go page-at-a-time through the buffer so every access is
charged a seek by the simulated disk.

Stored form of an object: 10-byte OID prefix + fixed-size payload.
With the paper's 96-byte payload this packs nine objects per 1 KB page.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import (
    DuplicateOidError,
    PageFullError,
    RecordError,
    StorageError,
    UnknownOidError,
)
from repro.storage.buffer import BufferManager
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.oid import NULL_OID, OID_SIZE, Oid, OidDirectory, Rid
from repro.storage.page import records_per_page
from repro.storage.record import PAPER_FORMAT, ObjectRecord, RecordFormat


class StoredRecord(NamedTuple):
    """One stored object as the store decoded it, immutable.

    ``ints`` and ``refs`` are the decoded field values, ``oid`` the
    owner OID the stored bytes carry and ``image`` the page image they
    were decoded from (the object the disk holds, not a copy).  The
    decoded-record cache holds one per object, and
    :meth:`ObjectStore.fetch_pinned` hands out that very entry: a fetch
    copies nothing, and whoever keeps the fields (an assembled object)
    shares the cache's tuples.
    """

    ints: Tuple[int, ...]
    refs: Tuple[Oid, ...]
    oid: Oid
    image: bytes

    def to_record(self, fmt: RecordFormat) -> ObjectRecord:
        """A fresh, mutable :class:`ObjectRecord` with copies of the fields."""
        return ObjectRecord(list(self.ints), list(self.refs), fmt)


class ObjectStore:
    """Objects addressable by OID, placed on explicit pages.

    The store does not own an extent: layouts allocate extents from the
    disk and then direct each object to a page.  ``bulk`` loading goes
    straight to the disk (it is the load phase, outside measurement);
    fetches go through the buffer manager so the measured phase sees
    buffer hits, faults, and seeks.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer: Optional[BufferManager] = None,
        fmt: RecordFormat = PAPER_FORMAT,
    ) -> None:
        self._disk = disk
        self.buffer = buffer if buffer is not None else BufferManager(disk)
        self.fmt = fmt
        self.directory = OidDirectory()
        self._stored_size = OID_SIZE + fmt.payload_size
        self._write_hooks: List[Callable[[Oid], None]] = []
        # Write-through cache of decoded objects, keyed by RID.  A fetch
        # trusts an entry only while the page's image *is* the entry's
        # (an image never changes, ``Page.to_bytes``); any write since,
        # out-of-band ones included, means a decode of the slot.  The
        # owner OID keeps the directory cross-check intact.  Entries
        # are immutable and handed out as they are.
        self._decoded: Dict[Rid, StoredRecord] = {}

    # -- write hooks ------------------------------------------------------------

    def add_write_hook(self, hook: Callable[[Oid], None]) -> None:
        """Register a callback invoked with every written OID.

        The assembly service's result cache subscribes here so any
        store write — bulk load or in-place update — invalidates cached
        complex objects containing the written object.
        """
        self._write_hooks.append(hook)

    def remove_write_hook(self, hook: Callable[[Oid], None]) -> None:
        """Unregister a previously added write hook (no-op if absent)."""
        try:
            self._write_hooks.remove(hook)
        except ValueError:
            pass

    def _notify_write(self, oid: Oid) -> None:
        for hook in self._write_hooks:
            hook(oid)

    # -- geometry ---------------------------------------------------------------

    @property
    def disk(self) -> SimulatedDisk:
        """The underlying simulated disk."""
        return self._disk

    def objects_per_page(self) -> int:
        """How many objects fit on one page (9 for the paper geometry)."""
        return records_per_page(self._stored_size)

    # -- loading (unmeasured phase) ------------------------------------------------

    def store_page(
        self, page_id: int, items: "List[Tuple[Oid, ObjectRecord]]"
    ) -> List[Rid]:
        """Place a whole page's objects in one write (bulk load path).

        Used by clustering layouts during the load phase.  The page is
        taken from the disk without a read (loading charges no read),
        each record goes on it with :meth:`Page.insert`, slots
        continuing after any records already there, and it is written
        once, bypassing the buffer; the OID directory then learns each
        physical address.

        All or nothing: an OID stored already or twice in ``items``
        (:class:`DuplicateOidError`), the null OID
        (:class:`UnknownOidError`), a record in another format
        (:class:`RecordError`) or a batch the page cannot hold
        (:class:`PageFullError`) raises before anything is written or
        registered.
        """
        directory = self.directory
        fmt = self.fmt
        seen = {NULL_OID}  # the batch so far, and the OID none may take
        pending: List[Tuple[Oid, ObjectRecord, bytes]] = []
        for oid, record in items:
            if oid in seen:
                if oid == NULL_OID:
                    raise UnknownOidError("cannot register the null OID")
                raise DuplicateOidError(f"{oid} appears twice in the batch")
            if oid in directory:
                raise DuplicateOidError(f"{oid} already stored")
            if record.fmt is not fmt and record.fmt != fmt:
                raise RecordError("record format does not match store format")
            seen.add(oid)
            pending.append((oid, record, oid.encode() + record.encode()))
        # The image is the page's own copy: a PageFullError part way
        # through leaves the disk as it was.
        page = self._disk.page_image(page_id)
        rids = [Rid(page_id, page.insert(stored)) for _oid, _record, stored in pending]
        self._disk.write(page)
        image = page.to_bytes()  # the object the disk now holds
        decoded = self._decoded
        for (oid, record, _stored), rid in zip(pending, rids):
            directory.register(oid, rid)
            decoded[rid] = StoredRecord(tuple(record.ints), tuple(record.refs), oid, image)
            self._notify_write(oid)
        return rids

    # -- snapshot / restore ----------------------------------------------------

    def dump_decoded(self) -> Dict[Rid, StoredRecord]:
        """A copy of the decoded-record cache (snapshot support).

        Entries are immutable tuples, so the copy is shallow and safe
        to share across store instances.
        """
        return dict(self._decoded)

    def load_decoded(self, entries: Dict[Rid, StoredRecord]) -> None:
        """Install decoded-cache entries captured by :meth:`dump_decoded`."""
        self._decoded = dict(entries)

    # -- fetching (measured phase) ----------------------------------------------------

    def _decode_stored(self, stored: bytes, image: bytes) -> StoredRecord:
        ints, refs = self.fmt.decode(stored[OID_SIZE:])
        return StoredRecord(ints, refs, Oid.decode(stored[:OID_SIZE]), image)

    def fetch(self, oid: Oid) -> ObjectRecord:
        """Read one object through the buffer (fix, copy, unfix).

        Returns a fresh, mutable :class:`ObjectRecord`: the caller may
        change it without touching what later fetches see.
        """
        record = self.fetch_pinned(oid)
        self.unpin(oid)
        return record.to_record(self.fmt)

    def fetch_pinned(self, oid: Oid) -> StoredRecord:
        """Read one object and leave its page pinned.

        The assembly operator uses this form: the page stays fixed
        until the owning complex object is emitted (or aborted), which
        is how partially assembled objects are guaranteed resident.
        Callers must balance with :meth:`unpin`.

        Returns the decoded-cache entry itself while the page's image
        is the entry's (an identity test); otherwise decodes the slot
        and caches the result under the current image, keeping the old
        tuples when the fields are unchanged.  Either way the record is
        immutable; :meth:`fetch` is the form that hands out a copy.
        An unwritten page's ``buf`` is its image: no ``to_bytes`` call.
        """
        try:
            rid = self.directory.rids[oid]
        except KeyError:
            rid = self.directory.lookup(oid)  # raises UnknownOidError
        page = self.buffer.fix(rid.page_id)
        try:
            record = self._decoded.get(rid)
            image = page.buf
            if record is None or record.image is not image:
                image = page.to_bytes()
                # page.read raises BadSlotError for a dead slot.
                fresh = self._decode_stored(page.read(rid.slot), image)
                if record is not None and fresh[:3] == record[:3]:
                    # Same fields: keep the tuples assembled objects share.
                    fresh = StoredRecord(record.ints, record.refs, record.oid, image)
                record = self._decoded[rid] = fresh
            if record.oid != oid:
                raise StorageError(
                    f"directory said {oid} at {rid}, page holds {record.oid}"
                )
        except BaseException:
            self.buffer.unfix(rid.page_id)  # a failed fetch holds no pin
            raise
        return record

    def unpin(self, oid: Oid) -> None:
        """Release the pin taken by :meth:`fetch_pinned`."""
        rid = self.directory.lookup(oid)
        self.buffer.unfix(rid.page_id)

    # -- updating (measured phase) -----------------------------------------------

    def overwrite(self, oid: Oid, record: ObjectRecord) -> None:
        """Replace the stored record of an existing object in place.

        Goes through the buffer (the frame is marked dirty once the
        update returned), keeps the object's physical address, and
        fires the write hooks — the update path that forces the
        assembly service's result cache to drop complex objects
        containing ``oid``.
        """
        if record.fmt is not self.fmt and record.fmt != self.fmt:
            raise RecordError("record format does not match store format")
        rid = self.directory.lookup(oid)
        buffer = self.buffer
        page = buffer.fix(rid.page_id)
        try:
            page.update(rid.slot, oid.encode() + record.encode())
        except BaseException:
            buffer.unfix(rid.page_id)  # nothing written: the frame stays clean
            raise
        image = page.to_bytes()
        buffer.unfix(rid.page_id, dirty=True)
        self._decoded[rid] = StoredRecord(tuple(record.ints), tuple(record.refs), oid, image)
        self._notify_write(oid)

    # -- reorganization (measured phase) -----------------------------------------

    def migrate(self, oid: Oid, target_page_id: int) -> Rid:
        """Move one object onto ``target_page_id``; returns the new RID.

        The online-reorganization primitive: the stored bytes are read
        from the source slot, inserted on the target page, the source
        slot is tombstoned, and the directory relocates the OID — all
        through the buffer, so concurrent readers never see a stale
        copy.  Ordering is the transactional part: the target insert
        happens *before* the source delete, so a full target page
        (:class:`PageFullError`) aborts the move with the object still
        intact at its old address.

        The decoded-record cache entry travels to the new RID (its next
        fetch decodes the rewritten page and keeps its tuples), and the
        write hooks fire once — which is what evicts every cached
        assembled object containing ``oid`` from the service's result
        cache.
        """
        source = self.directory.lookup(oid)
        if source.page_id == target_page_id:
            return source
        buffer = self.buffer
        with buffer.fixed(source.page_id) as page:
            stored = page.read(source.slot)
        page = buffer.fix(target_page_id)
        try:
            slot = page.insert(stored)
        except BaseException:
            buffer.unfix(target_page_id)  # nothing written: the frame stays clean
            raise
        buffer.unfix(target_page_id, dirty=True)
        # The slot was just read live, so this delete cannot raise.
        with buffer.fixed(source.page_id, dirty=True) as page:
            page.delete(source.slot)
        target = Rid(target_page_id, slot)
        self.directory.relocate(oid, target)
        entry = self._decoded.pop(source, None)
        if entry is not None:
            self._decoded[target] = entry
        self._notify_write(oid)
        return target

    # -- scanning -------------------------------------------------------------------------

    def scan_extent(self, extent: Extent) -> Iterator[Tuple[Oid, ObjectRecord]]:
        """Yield every object in an extent in physical order (via buffer)."""
        for page_id in range(extent.start, extent.end):
            with self.buffer.fixed(page_id) as page:
                stored_records = [rec for _slot, rec in page.records()]
                image = page.to_bytes()
            for stored in stored_records:
                record = self._decode_stored(stored, image)
                yield record.oid, record.to_record(self.fmt)

    def __len__(self) -> int:
        return len(self.directory)


class PagePlanner:
    """Sequential page-filling helper for layouts.

    Tracks how many objects each page already holds so layouts can pack
    ``objects_per_page`` objects per page without reading pages back.
    """

    def __init__(self, store: ObjectStore, extent: Extent) -> None:
        self._extent = extent
        self._per_page = store.objects_per_page()
        self._fill: Dict[int, int] = {}
        self._cursor = 0  # first extent index that may have room

    @property
    def objects_per_page(self) -> int:
        """Packing factor used by the planner."""
        return self._per_page

    def capacity(self) -> int:
        """Total objects the extent can hold."""
        return self._extent.length * self._per_page

    def slots_in_order(self) -> List[int]:
        """Page ids repeated once per free object slot, physical order."""
        pages: List[int] = []
        for index in range(self._extent.length):
            page_id = self._extent.page_at(index)
            free = self._per_page - self._fill.get(page_id, 0)
            pages.extend([page_id] * free)
        return pages

    def claim(self, page_id: int) -> int:
        """Reserve one object slot on ``page_id``; returns slots used so far."""
        if page_id not in self._extent:
            raise StorageError(
                f"page {page_id} outside extent {self._extent}"
            )
        used = self._fill.get(page_id, 0)
        if used >= self._per_page:
            raise PageFullError(f"page {page_id} already fully planned")
        self._fill[page_id] = used + 1
        return used + 1

    def next_sequential(self) -> int:
        """Page id of the next free slot in physical order.

        Amortized O(1): the cursor never moves backwards, and pages
        claimed out of order (via :meth:`claim` on arbitrary pages) are
        simply skipped when the cursor reaches them.
        """
        while self._cursor < self._extent.length:
            page_id = self._extent.page_at(self._cursor)
            if self._fill.get(page_id, 0) < self._per_page:
                return page_id
            self._cursor += 1
        raise PageFullError(f"extent {self._extent} is fully planned")
