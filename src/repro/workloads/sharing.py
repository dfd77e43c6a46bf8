"""Sharing-degree measurement and prediction helpers (Section 6.4).

"Sharing is the ratio of shared objects to sharing objects.  For
example, 100 objects sharing 5 sub-objects exhibit .05 sharing."

These helpers compute the realized sharing statistics of a generated
database (the numbers a real system's statistics collector would
maintain in the template) and predict the read savings the
shared-component table should deliver — the oracle the Figure 15
benchmark and its tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.objects.model import ComplexObjectDef, ObjectDef
from repro.storage.oid import Oid


@dataclass(frozen=True)
class SharingProfile:
    """Realized sharing statistics of a database."""

    #: complex objects that reference at least one shared component.
    sharing_objects: int
    #: distinct shared components referenced at all.
    shared_objects: int
    #: total references landing on shared components.
    shared_references: int

    @property
    def degree(self) -> float:
        """The paper's ratio: shared objects / sharing objects."""
        if self.sharing_objects == 0:
            return 0.0
        return self.shared_objects / self.sharing_objects

    @property
    def duplicate_references(self) -> int:
        """References beyond the first to each shared component.

        With the shared-component table enabled, exactly these many
        object fetches are links instead of reads — the "reduces the
        total number of reads" effect of Figure 15.
        """
        return self.shared_references - self.shared_objects


def measure_sharing(
    database: Sequence[ComplexObjectDef],
    shared_pool: Dict[Oid, ObjectDef],
) -> SharingProfile:
    """Compute the realized sharing statistics of a generated database."""
    reference_counts: Dict[Oid, int] = {}
    sharing_objects = 0
    for cobj in database:
        hits = 0
        for obj in cobj.objects.values():
            for target in obj.referenced_oids():
                if target in shared_pool:
                    reference_counts[target] = (
                        reference_counts.get(target, 0) + 1
                    )
                    hits += 1
        if hits:
            sharing_objects += 1
    return SharingProfile(
        sharing_objects=sharing_objects,
        shared_objects=len(reference_counts),
        shared_references=sum(reference_counts.values()),
    )


def expected_fetches_with_sharing(
    database: Sequence[ComplexObjectDef],
    shared_pool: Dict[Oid, ObjectDef],
) -> int:
    """Object fetches a full assembly needs when the table is on.

    Every private component once, plus each *referenced* shared
    component exactly once.
    """
    profile = measure_sharing(database, shared_pool)
    private = sum(len(cobj) for cobj in database)
    return private + profile.shared_objects


def expected_fetches_without_sharing(
    database: Sequence[ComplexObjectDef],
    shared_pool: Dict[Oid, ObjectDef],
) -> int:
    """Object fetches with the table off: every reference pays."""
    profile = measure_sharing(database, shared_pool)
    private = sum(len(cobj) for cobj in database)
    return private + profile.shared_references
