"""Execution tracing for the assembly operator.

A :class:`AssemblyTracer` records every observable decision the
operator makes — admissions, fetches, shared/pre-assembled links,
deferrals, predicate outcomes, aborts, emissions — as a flat list of
:class:`TraceEvent` records.  Uses:

* debugging a template against real data ("why was this never
  fetched?"),
* order-sensitive tests (the paper's Figure 5 walkthrough is literally
  a trace),
* teaching: `summarize` renders the assembly of a window the way the
  paper's Figure 5 does.

Tracing is strictly observational; enabling it never changes fetch
order or results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import AssemblyError
from repro.storage.oid import Oid

#: Event kinds, in rough lifecycle order.
ADMITTED = "admitted"
FETCHED = "fetched"
LINKED_SHARED = "linked-shared"
LINKED_PREASSEMBLED = "linked-preassembled"
DEFERRED = "deferred"
ACTIVATED = "activated"
PREDICATE_PASSED = "predicate-passed"
PREDICATE_FAILED = "predicate-failed"
FAULT = "fault"
DEGRADED = "degraded"
ABORTED = "aborted"
EMITTED = "emitted"

KINDS = (
    ADMITTED,
    FETCHED,
    LINKED_SHARED,
    LINKED_PREASSEMBLED,
    DEFERRED,
    ACTIVATED,
    PREDICATE_PASSED,
    PREDICATE_FAILED,
    FAULT,
    DEGRADED,
    ABORTED,
    EMITTED,
)


@dataclass(frozen=True)
class TraceEvent:
    """One observed assembly decision."""

    #: one of the module-level kind constants.
    kind: str
    #: window serial of the owning complex object.
    owner: int
    #: the object (or reference target) the event concerns.
    oid: Oid
    #: template label involved ("" for whole-object events).
    label: str = ""
    #: physical page, where meaningful (-1 otherwise).
    page_id: int = -1
    #: simulated-clock stamp, when the tracer has a clock (-1.0 means
    #: unstamped — the historical, purely ordinal trace).
    at: float = -1.0

    def __str__(self) -> str:
        where = f" @page {self.page_id}" if self.page_id >= 0 else ""
        what = f" [{self.label}]" if self.label else ""
        when = f" t={self.at:g}" if self.at >= 0 else ""
        return f"#{self.owner} {self.kind}: {self.oid}{what}{where}{when}"


class AssemblyTracer:
    """Collects :class:`TraceEvent` records during one execution.

    ``clock_fn`` optionally stamps each event with the simulated clock
    (the event engine's milliseconds, the service's resolution counter
    — never wall time), putting the Figure 5 walkthrough on the same
    time axis as the observability layer's spans.  Without a clock the
    trace is purely ordinal, exactly as before: events carry ``at=-1``
    and render without a time column, so stamping is strictly additive.
    """

    def __init__(self, clock_fn: Optional[Callable[[], float]] = None) -> None:
        self.events: List[TraceEvent] = []
        self.clock_fn = clock_fn

    # -- recording (called by the assembly operator) -------------------------

    def record(
        self,
        kind: str,
        owner: int,
        oid: Oid,
        label: str = "",
        page_id: int = -1,
    ) -> None:
        """Append one event (kind must be a known constant)."""
        if kind not in KINDS:
            raise AssemblyError(f"unknown trace event kind {kind!r}")
        at = -1.0 if self.clock_fn is None else float(self.clock_fn())
        self.events.append(
            TraceEvent(
                kind=kind, owner=owner, oid=oid, label=label, page_id=page_id,
                at=at,
            )
        )

    def clear(self) -> None:
        """Drop all recorded events (each ``open`` starts clean)."""
        self.events = []

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in occurrence order."""
        return [e for e in self.events if e.kind == kind]

    def fetch_order(self) -> List[Oid]:
        """OIDs in the order the operator fetched them from disk."""
        return [e.oid for e in self.events if e.kind == FETCHED]

    def resolution_order(self) -> List[Oid]:
        """OIDs in resolution order (fetches and links together)."""
        kinds = (FETCHED, LINKED_SHARED, LINKED_PREASSEMBLED)
        return [e.oid for e in self.events if e.kind in kinds]

    def per_owner(self, owner: int) -> List[TraceEvent]:
        """The life of one complex object."""
        return [e for e in self.events if e.owner == owner]

    def counts(self) -> Dict[str, int]:
        """Event counts by kind (only kinds that occurred)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def summarize(self, max_events: Optional[int] = None) -> str:
        """Multi-line rendering in Figure 5 style."""
        shown = self.events if max_events is None else self.events[:max_events]
        lines = [str(event) for event in shown]
        if max_events is not None and len(self.events) > max_events:
            lines.append(f"... {len(self.events) - max_events} more events")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
