"""Window/buffer tuning (Section 7 future work).

"We suspect that for a given buffer size the window size can be tuned
so that performance is maximized."  This module provides both halves of
that suspicion:

* :func:`pin_bound` / :func:`max_window_for_buffer` — the analytic
  side, inverting Section 6.3.3's buffer-cost formula
  ``6*(W-1) + 7`` pages pinned for W in-flight complex objects (the
  general form uses the template's node count: a complex object of N
  components pins at most N-1 pages while incomplete plus N for the one
  being finished);
* :func:`tune_window` — the empirical side: probe a handful of window
  sizes against a workload factory and report the best measured seek
  distance per read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.template import Template
from repro.errors import AssemblyError

#: Buffer frames :func:`max_window_for_buffer` keeps out of the window.
HEADROOM = 8


def pin_bound(window_size: int, template: Optional[Template] = None) -> int:
    """Maximum pages pinned by a window of ``window_size`` objects.

    With the paper's 7-object template this is ``6*(W-1) + 7``
    (Section 6.3.3's "301 pages" at W = 50).  For other templates the
    same argument gives ``(N-1)*(W-1) + N`` where N is the template's
    node count: W−1 objects may be one fetch short of complete while
    the W-th is fully fetched.
    """
    if window_size <= 0:
        raise AssemblyError("window_size must be positive")
    nodes = 7 if template is None else template.finalize().node_count
    return (nodes - 1) * (window_size - 1) + nodes


def max_window_for_buffer(
    buffer_capacity: int, template: Optional[Template] = None
) -> int:
    """Largest window whose pin bound fits the buffer.

    :data:`HEADROOM` frames stay reserved for non-assembly traffic
    (index pages, the page being read, ...).  Returns at least 1; a
    buffer too small even for one complex object raises, because
    assembly could deadlock on pinning.
    """
    if buffer_capacity <= 0:
        raise AssemblyError("buffer_capacity must be positive")
    nodes = 7 if template is None else template.finalize().node_count
    usable = buffer_capacity - HEADROOM
    if usable < nodes:
        raise AssemblyError(
            f"buffer of {buffer_capacity} frames cannot hold even one "
            f"{nodes}-component complex object (+{HEADROOM} headroom)"
        )
    # (nodes-1)*(W-1) + nodes <= usable
    return max(1, (usable - nodes) // (nodes - 1) + 1)


@dataclass
class TuningResult:
    """Outcome of an empirical window probe."""

    best_window: int
    best_avg_seek: float
    #: every probed (window, avg_seek) pair, in probe order.
    probes: List[Tuple[int, float]]


def tune_window(
    run: Callable[[int], float],
    buffer_capacity: Optional[int] = None,
    candidates: Sequence[int] = (1, 10, 25, 50, 100, 200),
) -> TuningResult:
    """Probe window sizes and return the best measured one.

    ``run(window_size)`` must execute the workload and return its
    average seek distance per read (the harness's
    :func:`~repro.bench.harness.run_experiment` composes directly).
    Candidates exceeding the buffer's pin bound (for the paper's
    7-object template) are skipped — they would deadlock, not merely
    run slowly.
    """
    probes: List[Tuple[int, float]] = []
    ceiling = None
    if buffer_capacity is not None:
        ceiling = max_window_for_buffer(buffer_capacity)
    for window in candidates:
        if window <= 0:
            raise AssemblyError("window candidates must be positive")
        if ceiling is not None and window > ceiling:
            continue
        probes.append((window, run(window)))
    if not probes:
        raise AssemblyError(
            "no window candidate fits the buffer; lower the candidates "
            "or raise the buffer capacity"
        )
    best_window, best_seek = min(probes, key=lambda p: p[1])
    return TuningResult(
        best_window=best_window, best_avg_seek=best_seek, probes=probes
    )
