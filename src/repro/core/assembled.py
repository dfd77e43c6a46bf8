"""In-memory, pointer-swizzled complex objects.

"To achieve quickly traversable memory-resident complex objects, all
object references (OIDs) are changed to memory pointers.  This
'pointer-swizzling' process results in a structure that can be scanned
without the need to consult an OID-to-memory-address mapping table."
(paper, Section 4)

An :class:`AssembledObject` is one storage object after assembly: its
integer state, its raw reference OIDs (for slots the template does not
follow), and — for template-followed slots — direct Python references
to the child :class:`AssembledObject`.  Traversal never touches the
OID directory again, which is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.core.template import TemplateNode
from repro.errors import AssemblyError
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord


class AssembledObject:
    """One storage object in memory, with swizzled child pointers."""

    __slots__ = ("oid", "node", "ints", "ref_oids", "children", "shared_in")

    def __init__(
        self, oid: Oid, node: TemplateNode, record: ObjectRecord
    ) -> None:
        self.oid = oid
        #: template node this object instantiates.
        self.node = node
        self.ints: Tuple[int, ...] = tuple(record.ints)
        #: raw reference state, exactly as stored.
        self.ref_oids: Tuple[Oid, ...] = tuple(record.refs)
        #: swizzled pointers, keyed by reference slot.
        self.children: Dict[int, "AssembledObject"] = {}
        #: True when this object came from the shared-component table.
        self.shared_in: bool = False

    def swizzle(self, slot: int, child: "AssembledObject") -> None:
        """Install the memory pointer for reference ``slot``."""
        if slot in self.children:
            raise AssemblyError(
                f"{self.oid}: slot {slot} already swizzled"
            )
        if not 0 <= slot < len(self.ref_oids):
            raise AssemblyError(f"{self.oid}: no reference slot {slot}")
        self.children[slot] = child

    def child(self, slot: int) -> Optional["AssembledObject"]:
        """The swizzled child on ``slot`` (None if absent or unfollowed)."""
        return self.children.get(slot)

    def follow(self, *slots: int) -> "AssembledObject":
        """Traverse a swizzled path; raises if any hop is missing."""
        here: AssembledObject = self
        for slot in slots:
            nxt = here.children.get(slot)
            if nxt is None:
                raise AssemblyError(
                    f"{here.oid}: slot {slot} is not swizzled"
                )
            here = nxt
        return here

    def walk(self) -> Iterator["AssembledObject"]:
        """Pre-order traversal via memory pointers only.

        Shared components reachable along several paths are yielded
        once per path; callers needing identity-unique visits can
        deduplicate on ``id(obj)``.
        """
        yield self
        for slot in sorted(self.children):
            yield from self.children[slot].walk()

    def count_objects(self) -> int:
        """Distinct objects (by identity) reachable from here."""
        seen = set()
        stack = [self]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            stack.extend(obj.children.values())
        return len(seen)

    def find(self, label: str) -> Optional["AssembledObject"]:
        """First object (pre-order) whose template label matches."""
        for obj in self.walk():
            if obj.node.label == label:
                return obj
        return None


@dataclass
class AssembledComplexObject:
    """What the assembly operator emits: a root plus assembly metadata.

    This is the row type flowing up the query tree.  ``fetches`` counts
    disk-level object fetches this complex object caused; ``shared_links``
    counts references satisfied from the shared-component table without
    a fetch.
    """

    root: AssembledObject
    serial: int
    fetches: int = 0
    shared_links: int = 0
    #: assembled under the ``partial`` degradation mode with at least
    #: one faulted subtree dropped; :meth:`verify_swizzled` will fail
    #: on such objects by design (the missing references dangle).
    degraded: bool = False
    #: template subtrees lost to faults (0 unless ``degraded``).
    missing_components: int = 0

    @property
    def root_oid(self) -> Oid:
        """OID of the root object."""
        return self.root.oid

    def object_count(self) -> int:
        """Distinct objects in this assembled complex object."""
        return self.root.count_objects()

    def scan(self) -> Iterator[AssembledObject]:
        """Traverse the swizzled structure (pre-order, per-path)."""
        return self.root.walk()

    def verify_swizzled(self) -> None:
        """Check every template-followed, non-null reference is swizzled.

        Raises :class:`AssemblyError` on a dangling reference — used by
        tests and the paranoid mode of examples.
        """
        for obj in self.root.walk():
            for slot, _child_node in obj.node.children.items():
                target = obj.ref_oids[slot]
                if target.is_null():
                    continue
                if slot not in obj.children:
                    raise AssemblyError(
                        f"{obj.oid}: slot {slot} ({target}) not swizzled"
                    )
                if obj.children[slot].oid != target:
                    raise AssemblyError(
                        f"{obj.oid}: slot {slot} swizzled to "
                        f"{obj.children[slot].oid}, expected {target}"
                    )
