"""Slotted 1 KB pages.

The paper's experiments use pages "of size 1K bytes" holding nine
96-byte objects each.  A :class:`Page` is a classic slotted page:

* an 8-byte header — page id (4), slot count (2), free-space offset (2),
* record bytes growing upward from the header,
* a slot directory (4 bytes per slot: offset, length) growing downward
  from the page end.

Stored objects carry a 10-byte OID prefix (see
:mod:`repro.storage.store`), so one object costs 10 + 96 = 106 payload
bytes plus a 4-byte slot: nine objects fit in a 1 KB page and a tenth
does not — exactly the paper's packing.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from repro.errors import BadSlotError, PageError, PageFullError

#: Page size in bytes (paper: 1 KB pages).
PAGE_SIZE = 1024
#: Bytes of page header: page_id (uint32), slot_count (uint16), free_offset (uint16).
PAGE_HEADER_SIZE = 8
#: Bytes per slot-directory entry: offset (uint16), length (uint16).
SLOT_SIZE = 4

_HEADER = struct.Struct(">IHH")
_SLOT = struct.Struct(">HH")


class Page:
    """A fixed-size slotted page of records.

    Records are addressed by slot number.  Deleting a record leaves a
    tombstone slot (length 0); slot numbers of live records never
    change, so RIDs stay valid.

    A page built from a ``bytes`` image (a disk read) shares it until
    its first write: a page that is only read copies nothing.

    ``buf`` is that image, a private ``bytearray`` after a write, until
    :meth:`to_bytes` freezes it; read-only outside this class.
    """

    __slots__ = ("buf", "page_id", "_slot_count", "_free_offset")

    def __init__(self, page_id: int, data: Optional[bytes] = None) -> None:
        if data is None:
            self.buf = bytearray(PAGE_SIZE)
            self.page_id = page_id
            self._slot_count = 0
            self._free_offset = PAGE_HEADER_SIZE
            self._write_header()
        else:
            if len(data) != PAGE_SIZE:
                raise PageError(
                    f"page image must be {PAGE_SIZE} bytes, got {len(data)}"
                )
            # An immutable image is shared until the first write
            # (:meth:`_writable`); anything else is copied once, so a
            # page never aliases its caller's buffer.
            self.buf = data if type(data) is bytes else bytearray(data)
            stored_id, self._slot_count, self._free_offset = (
                _HEADER.unpack_from(self.buf)
            )
            self.page_id = stored_id
            if page_id != stored_id:
                raise PageError(
                    f"page image says id {stored_id}, expected {page_id}"
                )

    # -- header helpers ----------------------------------------------------

    def _writable(self) -> None:
        """Switch a shared ``bytes`` image to a private copy before a write."""
        if type(self.buf) is bytes:
            self.buf = bytearray(self.buf)

    def _write_header(self) -> None:
        _HEADER.pack_into(
            self.buf, 0, self.page_id, self._slot_count, self._free_offset
        )

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self._slot_count:
            raise BadSlotError(
                f"slot {slot} out of range on page {self.page_id}"
            )
        return _SLOT.unpack_from(self.buf, PAGE_SIZE - (slot + 1) * SLOT_SIZE)

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self.buf, PAGE_SIZE - (slot + 1) * SLOT_SIZE, offset, length
        )

    # -- public interface ---------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots, including tombstones."""
        return self._slot_count

    @property
    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        used_by_slots = self._slot_count * SLOT_SIZE
        return PAGE_SIZE - used_by_slots - self._free_offset

    def insert(self, record: bytes) -> int:
        """Append a record; return its slot number.

        Raises :class:`PageFullError` when the record does not fit.
        """
        if not record:
            raise PageError("cannot insert an empty record")
        length = len(record)
        if length + SLOT_SIZE > self.free_space:
            raise PageFullError(
                f"page {self.page_id}: {length} bytes do not fit "
                f"({self.free_space} free)"
            )
        self._writable()
        offset = self._free_offset
        self.buf[offset : offset + length] = record
        slot = self._slot_count
        self._slot_count += 1
        self._write_slot(slot, offset, length)
        self._free_offset = offset + length
        self._write_header()
        return slot

    def read(self, slot: int) -> bytes:
        """Return the record stored in ``slot``.

        Raises :class:`BadSlotError` for out-of-range or deleted slots.
        """
        # _read_slot, inlined: this runs once per fetch.
        if not 0 <= slot < self._slot_count:
            self._read_slot(slot)  # raises BadSlotError
        offset, length = _SLOT.unpack_from(
            self.buf, PAGE_SIZE - (slot + 1) * SLOT_SIZE
        )
        if length == 0:
            raise BadSlotError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        # One copy: a slice of a shared image is already ``bytes``, and
        # ``bytes()`` of ``bytes`` returns it as it is.
        return bytes(self.buf[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone ``slot``.  The space is not compacted."""
        offset, length = self._read_slot(slot)
        if length == 0:
            raise BadSlotError(
                f"slot {slot} on page {self.page_id} is already deleted"
            )
        self._writable()
        self._write_slot(slot, offset, 0)

    def update(self, slot: int, record: bytes) -> None:
        """Overwrite ``slot`` in place.

        Only same-length updates are supported; the experiments never
        grow records, and fixed-size updates keep RIDs stable.
        """
        offset, length = self._read_slot(slot)
        if length == 0:
            raise BadSlotError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        if len(record) != length:
            raise PageError(
                f"update must keep length {length}, got {len(record)}"
            )
        self._writable()
        self.buf[offset : offset + length] = record

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record in slot order."""
        for slot in range(self._slot_count):
            offset, length = self._read_slot(slot)
            if length:
                yield slot, bytes(self.buf[offset : offset + length])

    def live_count(self) -> int:
        """Number of non-deleted records."""
        return sum(1 for _ in self.records())

    def to_bytes(self) -> bytes:
        """The page's current image as ``bytes``, frozen in place.

        A written page's buffer becomes that image (the next write
        copies it again), so an image never changes once returned, and
        a page whose buffer *is* it holds what it held then.
        """
        buf = self.buf
        if type(buf) is not bytes:
            buf = self.buf = bytes(buf)
        return buf

    @classmethod
    def from_bytes(cls, page_id: int, data: bytes) -> "Page":
        """Deserialize a page image produced by :meth:`to_bytes`."""
        return cls(page_id, data)


def records_per_page(record_size: int) -> int:
    """How many fixed-size records fit in one page.

    With the paper's 96-byte objects plus the 10-byte stored-OID prefix
    this returns 9, matching Section 6.
    """
    usable = PAGE_SIZE - PAGE_HEADER_SIZE
    return usable // (record_size + SLOT_SIZE)
