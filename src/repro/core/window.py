"""Sliding-window bookkeeping for the assembly operator.

"Instead of working on a single complex object, the assembly operator
works on a window, of size W, of complex objects.  As soon as any one
of these complex objects becomes assembled and passed up the query
tree, the operator retrieves another one to work on." (Section 4)

A :class:`ComplexObjectState` tracks one in-window complex object:
outstanding references, pending predicates, deferred (predicate-gated)
references, and the pages pinned on its behalf.  :class:`Window` is the
fixed-capacity collection of those states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.assembled import AssembledObject
from repro.core.schedulers import UnresolvedReference
from repro.errors import WindowError
from repro.storage.oid import Oid


@dataclass
class ComplexObjectState:
    """Assembly progress of one complex object in the window: complete
    once not ``aborted``, with its ``root`` set and nothing outstanding."""

    serial: int
    root_oid: Oid
    #: swizzled root, set once the root object is fetched.
    root: Optional[AssembledObject] = None
    #: template nodes not yet materialized (counts down to 0).
    outstanding_nodes: int = 0
    #: predicates not yet decided (counts down to 0).
    pending_predicates: int = 0
    #: references withheld until every predicate has passed
    #: (Section 6.5: fetch predicate-deciding objects first).
    deferred: List[UnresolvedReference] = field(default_factory=list)
    #: pages pinned for this object's private components.
    pinned_pages: List[int] = field(default_factory=list)
    #: shared components this object links to (for refcount release).
    shared_oids: List[Oid] = field(default_factory=list)
    fetches: int = 0
    shared_links: int = 0
    aborted: bool = False
    #: a faulted subtree was dropped under the ``partial`` degradation
    #: mode; the emitted object is marked accordingly.
    degraded: bool = False
    #: template subtrees lost to faults (0 unless ``degraded``).
    missing_components: int = 0

    def gate_references(self) -> bool:
        """Should non-predicate references be deferred right now?"""
        return self.pending_predicates > 0


class Window:
    """Fixed-capacity set of in-progress complex objects."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise WindowError("window capacity must be positive")
        self.capacity = capacity
        #: serial -> state of each in-window object, in admission order
        #: (read-only outside this class).
        self.by_serial: Dict[int, ComplexObjectState] = {}
        self._next_serial = 0
        #: high-water mark of simultaneously open complex objects.
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self.by_serial)

    def __contains__(self, serial: int) -> bool:
        return serial in self.by_serial

    @property
    def is_full(self) -> bool:
        """No room for another complex object?"""
        return len(self.by_serial) >= self.capacity

    @property
    def is_empty(self) -> bool:
        """Nothing under assembly?"""
        return not self.by_serial

    def admit(self, root_oid: Oid, total_nodes: int, total_predicates: int) -> ComplexObjectState:
        """Open a new complex object; returns its state."""
        if self.is_full:
            raise WindowError(
                f"window of {self.capacity} complex objects is full"
            )
        serial = self._next_serial
        self._next_serial += 1
        state = ComplexObjectState(
            serial=serial,
            root_oid=root_oid,
            outstanding_nodes=total_nodes,
            pending_predicates=total_predicates,
        )
        self.by_serial[serial] = state
        self.peak_occupancy = max(self.peak_occupancy, len(self.by_serial))
        return state

    def retire(self, serial: int) -> ComplexObjectState:
        """Remove a completed or aborted complex object."""
        try:
            return self.by_serial.pop(serial)
        except KeyError:
            raise WindowError(f"complex object {serial} is not in the window") from None

    def states(self) -> List[ComplexObjectState]:
        """All in-window states (admission order)."""
        return list(self.by_serial.values())
