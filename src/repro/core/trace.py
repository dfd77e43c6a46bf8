"""The assembly operator's decisions, read back from its span trace.

Every observable decision the operator makes — admissions, fetches,
shared/pre-assembled links, deferrals, predicate outcomes, faults,
aborts, emissions — is recorded by :class:`~repro.core.assembly.Assembly`
as an instant span of kind :data:`DECISION` on its
:class:`~repro.obs.spans.SpanRecorder` (``spans=``), named after one of
the kind constants below and parented under the owning object's
``window-slot`` span.  Its attributes are ``owner`` (window serial),
``oid`` (``[type_id, serial]``, JSON-native so the trace round-trips
through :func:`repro.obs.export.write_jsonl`), ``label`` and ``page``.

:class:`AssemblyTracer` is a read-only view that turns those spans
back into a flat list of :class:`TraceEvent` records, in recording
order.  Uses:

* debugging a template against real data ("why was this never
  fetched?"),
* order-sensitive tests (the paper's Figure 5 walkthrough is literally
  a trace),
* teaching: `summarize` renders the assembly of a window the way the
  paper's Figure 5 does.

Recording is strictly observational; enabling it never changes fetch
order or results.  A window slot that the recorder samples out takes
its decisions with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.spans import SpanRecorder
from repro.storage.oid import Oid

#: Span kind of a recorded decision (a span kind, not a trace kind).
DECISION = "decision"

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
    #: simulated-clock stamp, when the recorder has a clock (-1.0 means
    #: unstamped — the purely ordinal trace).
    at: float = -1.0

    def __str__(self) -> str:
        where = f" @page {self.page_id}" if self.page_id >= 0 else ""
        what = f" [{self.label}]" if self.label else ""
        when = f" t={self.at:g}" if self.at >= 0 else ""
        return f"#{self.owner} {self.kind}: {self.oid}{what}{where}{when}"


class AssemblyTracer:
    """The :class:`TraceEvent` view of a recorder's decision spans.

    A live view: :attr:`events` reads the recorder each time, so one
    view built before an execution sees everything recorded since.  A
    recorder accumulates across executions (and re-opens) of the
    operators that share it.  ``at`` is the span's stamp when the
    recorder has a bound clock (the event engine's milliseconds, the
    service's resolution counter — never wall time), and ``-1`` on the
    fallback step counter, so an unclocked trace stays purely ordinal.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    @property
    def events(self) -> List[TraceEvent]:
        """Every recorded decision, in recording order."""
        stamped = self.recorder.clock_bound
        return [
            TraceEvent(
                kind=span.name,
                owner=span.attrs["owner"],
                oid=Oid(*span.attrs["oid"]),
                label=span.attrs["label"],
                page_id=span.attrs["page"],
                at=span.start if stamped else -1.0,
            )
            for span in self.recorder.of_kind(DECISION)
        ]

    # -- rendering -----------------------------------------------------------

    def summarize(self, max_events: Optional[int] = None) -> str:
        """Multi-line rendering in Figure 5 style."""
        events = self.events
        shown = events if max_events is None else events[:max_events]
        lines = [str(event) for event in shown]
        if max_events is not None and len(events) > max_events:
            lines.append(f"... {len(events) - max_events} more events")
        return "\n".join(lines)
