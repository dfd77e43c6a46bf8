"""Windowed SLO tracking: exact tail percentiles with hysteresis.

The fabric's load-shedding policy needs a per-shard answer to one
question on every arrival: *is this shard currently violating its
latency objective?*  A streaming histogram sees the whole run — too
much memory of the past to notice a developing overload — so the
tracker keeps a bounded ring of the most recent completion latencies
and computes the exact percentile over just that window.

Breach detection is hysteretic: the tracker trips when the windowed
p99 exceeds the target and only recovers once it falls below
``target * RECOVER_RATIO``.  Without the gap, a shard hovering at the
SLO boundary would flap between shedding and admitting on every
completion, which sheds a *random* subset of requests instead of a
contiguous overload interval.  Everything is deterministic: same
completion sequence, same breach intervals, bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import ReproError

#: The tail held to the target: the windowed p99.
SLO_PERCENTILE = 0.99
#: Fraction of the target the windowed p99 must drop below to clear a
#: breach (the hysteresis gap).
RECOVER_RATIO = 0.8


class SLOTracker:
    """Tracks one p99 latency objective over a sliding completion window.

    Parameters
    ----------
    target_ms:
        The latency objective for the windowed p99 (e.g. 400 ms).
    window:
        Completions remembered; older ones age out of the percentile.
    min_samples:
        Completions required before the tracker may trip at all —
        a single slow request out of two is not an overload signal.
        At most ``window``: the ring never holds more, so a larger
        value would leave the tracker unable to trip.
    """

    def __init__(
        self,
        target_ms: float,
        window: int = 64,
        min_samples: int = 8,
    ) -> None:
        if target_ms <= 0:
            raise ReproError("target_ms must be positive")
        if window <= 0:
            raise ReproError("window must be positive")
        if min_samples <= 0:
            raise ReproError("min_samples must be positive")
        if min_samples > window:
            raise ReproError(
                f"min_samples ({min_samples}) exceeds window ({window}): "
                "the tracker could never trip"
            )
        self.target_ms = target_ms
        self.window = window
        self.min_samples = min_samples
        self._recent: Deque[float] = deque(maxlen=window)
        self._breached = False
        #: completions observed over the tracker's lifetime.
        self.observed = 0
        #: observe() calls that flipped the tracker into breach.
        self.breaches = 0
        #: observe() calls that cleared a breach.
        self.recoveries = 0

    def observe(self, latency_ms: float) -> bool:
        """Fold one completion latency in; the new breach state."""
        if latency_ms < 0:
            raise ReproError("latency cannot be negative")
        self._recent.append(latency_ms)
        self.observed += 1
        current = self.current()
        if current is None:
            return self._breached
        if not self._breached and current > self.target_ms:
            self._breached = True
            self.breaches += 1
        elif self._breached and current < self.target_ms * RECOVER_RATIO:
            self._breached = False
            self.recoveries += 1
        return self._breached

    def current(self) -> Optional[float]:
        """The windowed percentile (None below ``min_samples``)."""
        if len(self._recent) < self.min_samples:
            return None
        ordered = sorted(self._recent)
        index = min(len(ordered) - 1, int(SLO_PERCENTILE * len(ordered)))
        return ordered[index]

    @property
    def breached(self) -> bool:
        """Is the objective currently violated (with hysteresis)?"""
        return self._breached

    def snapshot(self) -> Dict[str, object]:
        """Flat view for per-shard SLO reporting."""
        return {
            "target_ms": self.target_ms,
            "percentile": SLO_PERCENTILE,
            "window": self.window,
            "current": self.current(),
            "breached": self._breached,
            "observed": self.observed,
            "breaches": self.breaches,
            "recoveries": self.recoveries,
        }

    def __repr__(self) -> str:
        state = "BREACHED" if self._breached else "ok"
        return (
            f"SLOTracker(p{SLO_PERCENTILE * 100:g} <= "
            f"{self.target_ms:g}ms, current={self.current()}, {state})"
        )
