"""Record codec for storage-layer objects.

Section 6 of the paper fixes the benchmark object layout:

    "Each object consists of 4 integer and 8 object reference fields
     equaling 96 bytes, resulting in 9 objects per page."

:class:`ObjectRecord` is that object: four signed 32-bit integers plus
eight 10-byte OIDs = 96 bytes of payload.  When stored, a record is
prefixed with its own OID (see :mod:`repro.storage.store`), which is how
scans recover object identity.

The codec is parameterized (``n_ints``, ``n_refs``) so the same record
machinery also serves the Person/Residence example dataset and the
workload generators; the defaults are the paper's geometry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.errors import RecordError
from repro.storage.oid import NULL_OID, OID_SIZE, Oid

#: Paper geometry: integer fields per object.
DEFAULT_N_INTS = 4
#: Paper geometry: reference fields per object.
DEFAULT_N_REFS = 8
#: Paper geometry: total payload bytes (4*4 + 8*10 = 96).
OBJECT_PAYLOAD_SIZE = DEFAULT_N_INTS * 4 + DEFAULT_N_REFS * OID_SIZE


@lru_cache(maxsize=None)
def _codec(n_ints: int, n_refs: int) -> Tuple[struct.Struct, struct.Struct]:
    """Precompiled ``(int_struct, refs_struct)`` for one record geometry.

    Compiling a :class:`struct.Struct` per encode/decode call dominated
    the fetch profile; formats are tiny value objects, so one compiled
    pair per distinct ``(n_ints, n_refs)`` geometry serves every record.
    The refs struct packs all OIDs of a record in a single call.
    """
    return (
        struct.Struct(f">{n_ints}i"),
        struct.Struct(">" + "HQ" * n_refs),
    )


@dataclass(frozen=True)
class RecordFormat:
    """Fixed layout of a stored object: ``n_ints`` int32s + ``n_refs`` OIDs."""

    n_ints: int = DEFAULT_N_INTS
    n_refs: int = DEFAULT_N_REFS

    def __post_init__(self) -> None:
        if self.n_ints < 0 or self.n_refs < 0:
            raise RecordError("record format counts must be non-negative")

    @property
    def payload_size(self) -> int:
        """Encoded size in bytes."""
        return self.n_ints * 4 + self.n_refs * OID_SIZE

    def encode(self, ints: Sequence[int], refs: Sequence[Oid]) -> bytes:
        """Encode field values into ``payload_size`` bytes."""
        if len(ints) != self.n_ints:
            raise RecordError(
                f"expected {self.n_ints} ints, got {len(ints)}"
            )
        if len(refs) != self.n_refs:
            raise RecordError(
                f"expected {self.n_refs} refs, got {len(refs)}"
            )
        int_struct, refs_struct = _codec(self.n_ints, self.n_refs)
        try:
            head = int_struct.pack(*ints)
        except struct.error as exc:
            raise RecordError(f"integer field out of range: {exc}") from exc
        try:
            flat = [part for ref in refs for part in ref]
            return head + refs_struct.pack(*flat)
        except (struct.error, TypeError):
            # Fall back to per-reference encoding so an out-of-range OID
            # raises the same RecordError (naming the offending OID) the
            # one-at-a-time path always produced.
            return head + b"".join(ref.encode() for ref in refs)

    def decode(self, data: bytes) -> Tuple[Tuple[int, ...], Tuple[Oid, ...]]:
        """Decode ``payload_size`` bytes into ``(ints, refs)`` tuples."""
        if len(data) != self.payload_size:
            raise RecordError(
                f"payload must be {self.payload_size} bytes, got {len(data)}"
            )
        int_struct, refs_struct = _codec(self.n_ints, self.n_refs)
        ints = int_struct.unpack_from(data)
        flat = iter(refs_struct.unpack_from(data, self.n_ints * 4))
        return ints, tuple(map(Oid._make, zip(flat, flat)))


#: The paper's 96-byte object format.
PAPER_FORMAT = RecordFormat()


@dataclass
class ObjectRecord:
    """A decoded storage-layer object: integers plus object references.

    ``refs`` is always exactly ``fmt.n_refs`` long; unused reference
    slots hold :data:`NULL_OID`.
    """

    ints: List[int] = field(default_factory=lambda: [0] * DEFAULT_N_INTS)
    refs: List[Oid] = field(default_factory=lambda: [NULL_OID] * DEFAULT_N_REFS)
    fmt: RecordFormat = PAPER_FORMAT

    def __post_init__(self) -> None:
        if len(self.ints) != self.fmt.n_ints:
            raise RecordError(
                f"record needs {self.fmt.n_ints} ints, got {len(self.ints)}"
            )
        if len(self.refs) != self.fmt.n_refs:
            raise RecordError(
                f"record needs {self.fmt.n_refs} refs, got {len(self.refs)}"
            )

    def encode(self) -> bytes:
        """Serialize the payload (no OID prefix); :meth:`RecordFormat.decode`
        reads it back."""
        return self.fmt.encode(self.ints, self.refs)
