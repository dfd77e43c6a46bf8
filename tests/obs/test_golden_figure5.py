"""Golden-trace test: the paper's Figure 5 walkthrough, pinned.

Section 6.2's walkthrough — three complex objects assembled
depth-first through a window of two — is reproduced from the live
operator and compared *structurally* (kind, owner, object, template
label; never clock stamps or page ids, which are layout details) to a
committed fixture.  A change in admission, fetch or emission order
anywhere in the operator shows up here as a readable event-list diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.assembly import Assembly
from repro.core.trace import AssemblyTracer
from repro.obs.spans import SpanRecorder
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource

from tests.core.test_assembly import (
    figure4_database,
    figure4_template,
    lay_out_figure4,
)

FIXTURE = Path(__file__).parent / "fixtures" / "figure5_trace.json"


def run_walkthrough(clock_fn=None):
    """The Figure 5 configuration: 3 objects, depth-first, window 2."""
    store = ObjectStore(SimulatedDisk())
    builder = figure4_database(3)
    layout = lay_out_figure4(builder, store)
    tracer = AssemblyTracer(SpanRecorder(clock_fn=clock_fn))
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        figure4_template(),
        window_size=2,
        scheduler="depth-first",
        spans=tracer.recorder,
    )
    emitted = operator.execute()
    return builder, emitted, tracer


def structural_rows(builder, tracer):
    """Fixture-comparable shape of a trace (no stamps, no pages)."""
    def name(oid):
        return f"{builder.registry.by_id(oid.type_id).name}{oid.serial}"

    return [
        {"kind": e.kind, "owner": e.owner, "object": name(e.oid),
         "label": e.label}
        for e in tracer
    ]


class TestGoldenFigure5:
    def test_walkthrough_matches_committed_fixture(self):
        builder, emitted, tracer = run_walkthrough()
        golden = json.loads(FIXTURE.read_text())
        assert len(emitted) == 3
        assert structural_rows(builder, tracer) == golden["events"]

    def test_fixture_tells_the_figure5_story(self):
        """Sanity-check the fixture itself: the walkthrough's shape is
        what Section 6.2 describes (fetch order A1 B1 D1 C1; window of
        two admitted before the first emission; one emission each)."""
        golden = json.loads(FIXTURE.read_text())["events"]
        fetches = [e["object"] for e in golden if e["kind"] == "fetched"]
        assert fetches[:4] == ["A1", "B1", "D1", "C1"]
        kinds = [e["kind"] for e in golden]
        assert kinds[:2] == ["admitted", "admitted"]  # window 2 fills
        assert kinds.count("emitted") == 3
        first_emit = kinds.index("emitted")
        assert kinds.index("admitted", 2) > first_emit - 1

    def test_clock_stamps_are_additive(self):
        """The same walkthrough with a bound clock carries monotone
        stamps (the recorder's, shared with the operator's other spans)
        and renders a time column — without one it stays the purely
        ordinal trace."""
        ticks = iter(range(100))
        _b, _e, stamped = run_walkthrough(
            clock_fn=lambda: float(next(ticks))
        )
        stamps = [event.at for event in stamped]
        # The ``assembly`` and first ``window-slot`` spans take the
        # first ticks, so the first decision is not stamped 0.
        assert stamps == sorted(stamps) and stamps[0] > 0.0
        assert "t=" in stamped.summarize()
        _b2, _e2, plain = run_walkthrough()
        assert all(event.at == -1.0 for event in plain)
        assert "t=" not in plain.summarize()
        # Identical decision sequence either way.
        assert [e.kind for e in stamped] == [e.kind for e in plain]
