"""Logical object identifiers and the OID directory.

The paper (footnote 1) requires only "a mapping from object reference to
physical location" — object identifiers are *logical*.  An :class:`Oid`
is a (type id, serial) pair encoded in ten bytes, which together with
four 32-bit integers makes the 96-byte benchmark object of Section 6:

    4 * 4 bytes (integers) + 8 * 10 bytes (references) = 96 bytes.

The :class:`OidDirectory` maps each OID to its physical address, a
:class:`Rid` (page id, slot number).  The assembly operator consults the
directory to learn the physical page of an unresolved reference, which
is what elevator scheduling orders fetches by.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, NamedTuple

from repro.errors import DuplicateOidError, RecordError, UnknownOidError

#: On-disk size of one encoded OID, in bytes.
OID_SIZE = 10

_OID_STRUCT = struct.Struct(">HQ")


def _encode_oid(type_id: int, serial: int) -> bytes:
    """``struct`` pack of one OID; :class:`RecordError` if out of range."""
    try:
        return _OID_STRUCT.pack(type_id, serial)
    except struct.error as exc:
        raise RecordError(
            f"cannot encode OID {Oid(type_id, serial)!r}: {exc}"
        ) from exc


class Oid(NamedTuple):
    """A logical object identifier: ``(type_id, serial)``.

    ``type_id`` identifies the object's type (class); ``serial`` is
    unique within the type.  The all-zero OID is the null reference.
    """

    type_id: int
    serial: int

    def is_null(self) -> bool:
        """Return ``True`` for the null reference."""
        return self.type_id == 0 and self.serial == 0

    def encode(self) -> bytes:
        """Serialize to :data:`OID_SIZE` bytes (big-endian)."""
        return _encode_oid(self.type_id, self.serial)

    @classmethod
    def decode(cls, data: bytes) -> "Oid":
        """Deserialize an OID from exactly :data:`OID_SIZE` bytes."""
        if len(data) != OID_SIZE:
            raise RecordError(
                f"OID must be {OID_SIZE} bytes, got {len(data)}"
            )
        return cls._make(_OID_STRUCT.unpack(data))

    def __str__(self) -> str:
        if self.is_null():
            return "OID<null>"
        return f"OID<{self.type_id}:{self.serial}>"


#: The null object reference.
NULL_OID = Oid(0, 0)


class Rid(NamedTuple):
    """A physical record identifier: ``(page_id, slot)``."""

    page_id: int
    slot: int


class OidDirectory:
    """Mapping from logical OIDs to physical record addresses.

    This is the system component the paper's footnote 1 postulates.  It
    is deliberately a plain in-memory map: the experiments measure disk
    seeks for *object* pages, and real systems keep this structure (or a
    hashed OID index) cached.
    """

    def __init__(self) -> None:
        #: OID -> RID; per-reference readers index it and fall back to
        #: :meth:`lookup` for the error.  Written only by this class.
        self.rids: Dict[Oid, Rid] = {}

    def __len__(self) -> int:
        return len(self.rids)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self.rids

    def __iter__(self) -> Iterator[Oid]:
        return iter(self.rids)

    def register(self, oid: Oid, rid: Rid) -> None:
        """Record the physical address of ``oid``.

        Raises :class:`DuplicateOidError` if the OID is already mapped;
        OIDs are immutable identities — an object that physically moves
        goes through :meth:`relocate`, never a re-registration.
        """
        if oid.is_null():
            raise UnknownOidError("cannot register the null OID")
        if oid in self.rids:
            raise DuplicateOidError(f"{oid} already registered")
        self.rids[oid] = rid

    def lookup(self, oid: Oid) -> Rid:
        """Return the physical address of ``oid``.

        Raises :class:`UnknownOidError` for unmapped or null OIDs.
        """
        try:
            return self.rids[oid]
        except KeyError:
            raise UnknownOidError(f"{oid} is not registered") from None

    def relocate(self, oid: Oid, rid: Rid) -> Rid:
        """Point an *existing* OID at a new physical address.

        Online reorganization (:mod:`repro.cluster.reorg`) is the one
        sanctioned way an object moves: its logical identity is
        untouched, only the directory's physical mapping changes, which
        is exactly the indirection footnote 1 postulates.  Returns the
        previous address; raises :class:`UnknownOidError` when the OID
        was never registered (relocation cannot create objects).
        """
        previous = self.lookup(oid)
        self.rids[oid] = rid
        return previous

    def page_of(self, oid: Oid) -> int:
        """Return just the page id of ``oid`` (elevator scheduling key).

        Raises :class:`UnknownOidError` like :meth:`lookup`.
        """
        try:
            return self.rids[oid].page_id
        except KeyError:
            raise UnknownOidError(f"{oid} is not registered") from None

    def dump(self) -> Dict[Oid, Rid]:
        """A copy of the full OID → RID mapping (snapshot support)."""
        return dict(self.rids)

    def load(self, entries: Dict[Oid, Rid]) -> None:
        """Replace the mapping with a copy of ``entries``.

        Used by harness snapshot/restore to clone a laid-out database
        onto a fresh store without re-registering every object.
        """
        self.rids = dict(entries)
