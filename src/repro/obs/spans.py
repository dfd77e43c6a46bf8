"""Hierarchical spans on the simulated clock.

A :class:`Span` is one timed piece of work — a request, an assembly, a
window slot, a scheduler pop, an I/O — with a parent link, start/end
stamps, and free-form attributes.  A :class:`SpanRecorder` collects
them during one execution.

Two properties everything else depends on:

* **Deterministic clocks.**  A recorder stamps spans with whatever
  ``clock_fn`` it was bound to — the event clock's milliseconds, the
  device server's resolution counter, a disk-operation count.  Wall
  time is never consulted, so identical executions produce identical
  traces, and a trace can be diffed against a replay.
* **Strictly observational.**  Recording appends to a list and reads
  the clock; it never feeds anything back into the instrumented code.
  Dropping the recorder (or sampling a span out) changes nothing about
  the execution — the ``tests/obs`` suite proves this bit for bit.

Sampling: ``sample_rate`` bounds overhead on large windows.  The
decision is **deterministic** (a counter, not a random draw — wall
clocks and RNGs would break replayability): the *i*-th sampled-class
span is kept iff ``floor((i+1)·rate) > floor(i·rate)``, so a rate of
0.25 keeps every fourth one.  An unsampled span is the shared
:data:`NULL_SPAN` sentinel; children parented under it are dropped
too, so entire subtrees disappear at zero cost beyond the counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError


@dataclass
class Span:
    """One timed, attributed piece of work in a trace."""

    name: str
    span_id: int
    #: parent span id (None for roots).
    parent_id: Optional[int]
    #: clock stamp when the span began.
    start: float
    #: clock stamp when the span ended (None while open).
    end: Optional[float] = None
    #: coarse category ("request", "window-slot", "device-io", ...).
    kind: str = ""
    #: owning device, where meaningful (-1 otherwise).
    device: int = -1
    #: free-form attributes (JSON-serializable values only).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """Has the span been closed?"""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Clock units between start and end (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-serializable view (the JSONL line format)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "device": self.device,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Inverse of :meth:`to_dict` (exporter round-trip)."""
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            start=data["start"],
            end=data["end"],
            kind=data.get("kind", ""),
            device=data.get("device", -1),
            attrs=dict(data.get("attrs", {})),
        )


#: Sentinel for a span that sampling dropped.  Never recorded; ending
#: it is a no-op; children parented under it are dropped too.
NULL_SPAN = Span(name="", span_id=-1, parent_id=None, start=0.0, end=0.0)


class SpanRecorder:
    """Collects spans during one execution, on an injected clock.

    Parameters
    ----------
    clock_fn:
        Zero-argument callable returning the current simulated time as
        a float.  ``None`` falls back to an internal step counter that
        advances by one per stamp — ordering without duration, still
        fully deterministic.  Bind a real clock later with
        :meth:`bind_clock` (the assembly service binds its resolution
        counter, the event engine its millisecond clock).
    sample_rate:
        Fraction of sampled-class spans to keep, in [0, 1].  Applies
        to spans begun with ``sample=True`` (window slots) and to
        roots; always-on structural spans (requests, assemblies) pass
        ``sample=False`` and are never dropped.
    """

    def __init__(
        self,
        clock_fn: Optional[Callable[[], float]] = None,
        sample_rate: float = 1.0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ReproError(
                f"sample_rate must be in [0, 1], got {sample_rate!r}"
            )
        self._clock_fn = clock_fn
        self.sample_rate = sample_rate
        self.spans: List[Span] = []
        self._next_id = 0
        self._ticks = 0
        #: sampled-class spans seen (the deterministic sampling counter).
        self.sample_candidates = 0
        #: sampled-class spans dropped by the rate.
        self.sampled_out = 0

    # -- clock ---------------------------------------------------------------

    def bind_clock(
        self, clock_fn: Callable[[], float], force: bool = False
    ) -> None:
        """Attach a clock; an already-bound clock wins unless forced."""
        if self._clock_fn is None or force:
            self._clock_fn = clock_fn

    @property
    def clock_bound(self) -> bool:
        """Has a real clock been attached?"""
        return self._clock_fn is not None

    def now(self) -> float:
        """Current stamp: the bound clock, or the fallback step counter."""
        if self._clock_fn is not None:
            return float(self._clock_fn())
        self._ticks += 1
        return float(self._ticks)

    # -- sampling ------------------------------------------------------------

    def _admit_sample(self) -> bool:
        i = self.sample_candidates
        self.sample_candidates += 1
        keep = math.floor((i + 1) * self.sample_rate) > math.floor(
            i * self.sample_rate
        )
        if not keep:
            self.sampled_out += 1
        return keep

    # -- recording -----------------------------------------------------------

    def begin(
        self,
        name: str,
        parent: Optional[Span] = None,
        kind: str = "",
        device: int = -1,
        sample: bool = False,
        **attrs: object,
    ) -> Span:
        """Open a span; returns :data:`NULL_SPAN` when sampled out.

        A span parented under :data:`NULL_SPAN` is dropped with its
        whole subtree.  ``sample=True`` subjects the span to the
        recorder's rate even when its parent is live — window slots use
        this so a large window's per-slot detail can be thinned without
        losing the request-level structure above it.
        """
        if parent is NULL_SPAN:
            return NULL_SPAN
        if sample and not self._admit_sample():
            return NULL_SPAN
        # ``attrs`` is this call's own **kwargs dict, so it is adopted
        # without the defensive copy the hot span paths used to pay.
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            start=self.now(),
            kind=kind,
            device=device,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs: object) -> None:
        """Close a span, stamping the clock; NULL_SPAN is a no-op."""
        if span is NULL_SPAN:
            return
        if span.end is not None:
            raise ReproError(f"span {span.span_id} ({span.name}) ended twice")
        span.attrs.update(attrs)
        span.end = self.now()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        kind: str = "",
        device: int = -1,
        **attrs: object,
    ) -> Span:
        """Record an already-completed span with explicit stamps.

        The event engine uses this: an I/O's start and completion times
        are known exactly when it is delivered, so the span is recorded
        whole rather than opened and closed around wall-clock work.
        """
        if parent is NULL_SPAN:
            return NULL_SPAN
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            start=start,
            end=end,
            kind=kind,
            device=device,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def event(
        self,
        name: str,
        parent: Optional[Span] = None,
        kind: str = "",
        device: int = -1,
        **attrs: object,
    ) -> Span:
        """Record an instant (zero-duration) event span."""
        if parent is NULL_SPAN:
            return NULL_SPAN
        stamp = self.now()
        return self.add(
            name, stamp, stamp, parent=parent, kind=kind, device=device,
            **attrs,
        )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (should be empty at quiescence)."""
        return [span for span in self.spans if not span.finished]

    def of_kind(self, kind: str) -> List[Span]:
        """All spans of one kind, in start order."""
        return [span for span in self.spans if span.kind == kind]

    def __repr__(self) -> str:
        return (
            f"SpanRecorder(spans={len(self.spans)}, "
            f"sample_rate={self.sample_rate}, "
            f"clock={'bound' if self.clock_bound else 'ticks'})"
        )
