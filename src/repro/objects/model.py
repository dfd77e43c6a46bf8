"""Application-level object model.

The paper distinguishes application-level objects from storage-layer
objects (footnotes 3 and 4: "An application-level object's state may be
composed of many storage-layer objects").  This module provides the
minimal Revelation-style model the experiments and examples need:

* :class:`ObjectType` — a named type whose integer and reference fields
  map onto the fixed slots of the storage record format;
* :class:`TypeRegistry` — type catalog plus OID generation;
* :class:`ObjectDef` / :class:`ComplexObjectDef` — in-memory
  definitions of objects and complex-object graphs, produced by
  workload generators and consumed by clustering layouts.

Objects reference other objects by embedding OIDs in their state
(Section 3); a :class:`ComplexObjectDef` is "one or more objects or
object fragments connected by inter-object references" (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.storage.oid import NULL_OID, Oid
from repro.storage.record import PAPER_FORMAT, ObjectRecord, RecordFormat


class ModelError(ReproError):
    """Object-model misuse (unknown type, bad field name, ...)."""


@dataclass(frozen=True)
class ObjectType:
    """A named object type mapped onto the storage record format.

    ``int_fields`` and ``ref_fields`` name the leading integer and
    reference slots; remaining slots are padding (zero / null).
    """

    type_id: int
    name: str
    int_fields: Tuple[str, ...] = ()
    ref_fields: Tuple[str, ...] = ()
    fmt: RecordFormat = PAPER_FORMAT

    def __post_init__(self) -> None:
        if self.type_id <= 0:
            raise ModelError("type_id must be positive (0 is the null OID)")
        if len(self.int_fields) > self.fmt.n_ints:
            raise ModelError(
                f"type {self.name!r}: {len(self.int_fields)} int fields "
                f"exceed format capacity {self.fmt.n_ints}"
            )
        if len(self.ref_fields) > self.fmt.n_refs:
            raise ModelError(
                f"type {self.name!r}: {len(self.ref_fields)} ref fields "
                f"exceed format capacity {self.fmt.n_refs}"
            )
        if len(set(self.int_fields) | set(self.ref_fields)) != len(
            self.int_fields
        ) + len(self.ref_fields):
            raise ModelError(f"type {self.name!r} has duplicate field names")
        # Field name -> slot, built once: every ObjectDef of the type
        # probes these per field.  They are not dataclass fields, so
        # equality, hashing and repr are unchanged; object.__setattr__
        # sidesteps the frozen-instance guard.
        object.__setattr__(
            self, "_int_slots", {name: i for i, name in enumerate(self.int_fields)}
        )
        object.__setattr__(
            self, "_ref_slots", {name: i for i, name in enumerate(self.ref_fields)}
        )

    def int_slot(self, field_name: str) -> int:
        """Slot index of a named integer field."""
        try:
            return self._int_slots[field_name]
        except KeyError:
            raise ModelError(
                f"type {self.name!r} has no int field {field_name!r}"
            ) from None

    def ref_slot(self, field_name: str) -> int:
        """Slot index of a named reference field."""
        try:
            return self._ref_slots[field_name]
        except KeyError:
            raise ModelError(
                f"type {self.name!r} has no ref field {field_name!r}"
            ) from None


class TypeRegistry:
    """Catalog of object types plus per-type OID serial counters."""

    def __init__(self, fmt: RecordFormat = PAPER_FORMAT) -> None:
        self.fmt = fmt
        self._by_id: Dict[int, ObjectType] = {}
        self._by_name: Dict[str, ObjectType] = {}
        self._serials: Dict[int, int] = {}

    def define(
        self,
        name: str,
        int_fields: Sequence[str] = (),
        ref_fields: Sequence[str] = (),
    ) -> ObjectType:
        """Create and register a new type; type ids are assigned densely."""
        if name in self._by_name:
            raise ModelError(f"type {name!r} already defined")
        type_id = len(self._by_id) + 1
        otype = ObjectType(
            type_id=type_id,
            name=name,
            int_fields=tuple(int_fields),
            ref_fields=tuple(ref_fields),
            fmt=self.fmt,
        )
        self._by_id[type_id] = otype
        self._by_name[name] = otype
        self._serials[type_id] = 0
        return otype

    def by_name(self, name: str) -> ObjectType:
        """Look a type up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown type {name!r}") from None

    def by_id(self, type_id: int) -> ObjectType:
        """Look a type up by id."""
        try:
            return self._by_id[type_id]
        except KeyError:
            raise ModelError(f"unknown type id {type_id}") from None

    def new_oid(self, type_name: str) -> Oid:
        """Mint a fresh OID of the named type."""
        otype = self.by_name(type_name)
        self._serials[otype.type_id] += 1
        return Oid(otype.type_id, self._serials[otype.type_id])

    def __len__(self) -> int:
        return len(self._by_id)


@dataclass
class ObjectDef:
    """An in-memory object definition awaiting placement on disk."""

    oid: Oid
    otype: ObjectType
    ints: Dict[str, int] = field(default_factory=dict)
    refs: Dict[str, Oid] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.oid.type_id != self.otype.type_id:
            raise ModelError(
                f"OID {self.oid} does not belong to type {self.otype.name!r}"
            )
        for name in self.ints:
            self.otype.int_slot(name)
        for name in self.refs:
            self.otype.ref_slot(name)

    def to_record(self) -> ObjectRecord:
        """Render the definition into a storage record (padded slots)."""
        otype = self.otype
        fmt = otype.fmt
        try:
            ints = [0] * fmt.n_ints
            int_slots = otype._int_slots
            for name, value in self.ints.items():
                ints[int_slots[name]] = value
            refs = [NULL_OID] * fmt.n_refs
            ref_slots = otype._ref_slots
            for name, target in self.refs.items():
                refs[ref_slots[name]] = target
        except KeyError as exc:  # a field name added after construction
            raise ModelError(
                f"type {otype.name!r} has no field {exc.args[0]!r}"
            ) from None
        # ints/refs have the right lengths by construction, so skip the
        # ObjectRecord length validation (layout builds call this once
        # per stored object).
        record = ObjectRecord.__new__(ObjectRecord)
        record.ints = ints
        record.refs = refs
        record.fmt = fmt
        return record

    def referenced_oids(self) -> List[Oid]:
        """Non-null references, in field order."""
        return [
            self.refs[name]
            for name in self.otype.ref_fields
            if name in self.refs and not self.refs[name].is_null()
        ]


@dataclass
class ComplexObjectDef:
    """A complex object: a root plus the storage objects it spans.

    ``objects`` holds the *private* components; OIDs referenced but not
    present are shared components owned by the database at large
    (Section 5's "borders of shared components").
    """

    root: Oid
    objects: Dict[Oid, ObjectDef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.root not in self.objects:
            raise ModelError(
                f"complex object root {self.root} missing from objects"
            )

    def add(self, obj: ObjectDef) -> None:
        """Attach another private component."""
        if obj.oid in self.objects:
            raise ModelError(f"{obj.oid} already part of this complex object")
        self.objects[obj.oid] = obj

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[ObjectDef]:
        return iter(self.objects.values())

    def external_refs(self) -> List[Oid]:
        """References leaving this complex object (shared components)."""
        return [
            target
            for obj in self.objects.values()
            for target in obj.referenced_oids()
            if target not in self.objects
        ]

    def traverse_depth_first(self) -> List[ObjectDef]:
        """Private components in depth-first, field-order traversal.

        Child order is "determined by the child reference storage order
        in the parent's state" (paper, footnote 6).
        """
        seen: Dict[Oid, None] = {}
        order: List[ObjectDef] = []
        stack: List[Oid] = [self.root]
        while stack:
            oid = stack.pop()
            if oid in seen or oid not in self.objects:
                continue
            seen[oid] = None
            obj = self.objects[oid]
            order.append(obj)
            children = [c for c in obj.referenced_oids() if c in self.objects]
            stack.extend(reversed(children))
        return order


def validate_database(
    database: Sequence[ComplexObjectDef],
    shared_pool: Optional[Dict[Oid, ObjectDef]] = None,
) -> None:
    """Check referential integrity of a generated database.

    Every reference must land on a private component of the same
    complex object or on an object in ``shared_pool``.  Raises
    :class:`ModelError` on a dangling reference or duplicated OID.
    """
    shared_pool = shared_pool or {}
    seen: Dict[Oid, int] = {}
    for index, cobj in enumerate(database):
        for oid in cobj.objects:
            if oid in seen:
                raise ModelError(
                    f"OID {oid} owned by complex objects "
                    f"{seen[oid]} and {index}"
                )
            if oid in shared_pool:
                raise ModelError(f"OID {oid} is both private and shared")
            seen[oid] = index
    for cobj in database:
        for obj in cobj.objects.values():
            for target in obj.referenced_oids():
                if target not in cobj.objects and target not in shared_pool:
                    raise ModelError(
                        f"{obj.oid} references {target}, which is neither a "
                        f"private component nor a shared object"
                    )
