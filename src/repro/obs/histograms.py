"""Streaming HDR-style histograms for latency percentiles.

The service's exact percentile path sorts every completed latency —
fine for hundreds of requests, wrong as a production mechanism.
:class:`StreamingHistogram` is the standard fix: log-spaced buckets
(HDR histogram style) with a bounded relative error, O(1) recording,
O(buckets) percentile queries, and mergeability across shards.

Bucketing is **integer-exact and platform-stable**: a value's bucket
comes from :func:`math.frexp` (exponent plus a linear sub-bucket of
the mantissa), not from ``log``, so identical inputs always land in
identical buckets and two histograms fed the same stream compare equal
bit for bit — which is what lets the non-interference suite assert
snapshot equality across instrumented and bare runs.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.errors import ReproError

#: Sub-buckets per power of two: relative error <= 1/(2*16) ~ 3%.
SUBBUCKETS = 16

#: Exponent bias keeping every nonzero bucket index positive (doubles
#: bottom out at a frexp exponent of -1073), so the reserved zero
#: bucket at index 0 sorts strictly below all nonzero values and
#: bucket index order equals value order — which percentile() needs.
_EXPONENT_BIAS = 1100


class StreamingHistogram:
    """Log-bucketed streaming histogram with exact min/max tails.

    Values must be non-negative (latencies, waits, durations); zero
    gets its own bucket.  Each power of two is split into
    ``SUBBUCKETS`` linear sub-buckets, bounding relative quantile error
    by ``1 / (2 * SUBBUCKETS)``.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    # -- bucketing -----------------------------------------------------------

    def _index_of(self, value: float) -> int:
        """Bucket index of one value (0 reserved for value == 0)."""
        if value == 0.0:
            return 0
        mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
        sub = int((mantissa - 0.5) * 2.0 * SUBBUCKETS)
        if sub >= SUBBUCKETS:  # guard the mantissa -> 1.0 edge
            sub = SUBBUCKETS - 1
        return 1 + (exponent + _EXPONENT_BIAS) * SUBBUCKETS + sub

    def _bucket_mid(self, index: int) -> float:
        """Representative (midpoint) value of one bucket."""
        if index == 0:
            return 0.0
        index -= 1
        exponent, sub = divmod(index, SUBBUCKETS)
        exponent -= _EXPONENT_BIAS
        low = math.ldexp(0.5 + sub / (2.0 * SUBBUCKETS), exponent)
        high = math.ldexp(0.5 + (sub + 1) / (2.0 * SUBBUCKETS), exponent)
        return (low + high) / 2.0

    # -- recording -----------------------------------------------------------

    def record(self, value: float) -> None:
        """Fold one observation in (O(1))."""
        value = float(value)
        if value < 0.0 or value != value:  # negative or NaN
            raise ReproError(
                f"histogram values must be non-negative, got {value!r}"
            )
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self._index_of(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram in (shard aggregation)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    # -- readout -------------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the stream (None when empty)."""
        if self.count == 0:
            return None
        return self.total / self.count

    def percentile(self, fraction: float) -> Optional[float]:
        """Value at ``fraction`` (0, 1] of the stream (None when empty).

        Interior quantiles return the bucket midpoint (bounded relative
        error); the extreme tails return the exact observed ``min`` /
        ``max``, so p100 is always the true maximum.
        """
        if not 0.0 < fraction <= 1.0:
            raise ReproError("fraction must be in (0, 1]")
        if self.count == 0:
            return None
        if fraction == 1.0:
            return self.max
        rank = max(1, math.ceil(fraction * self.count))
        if rank == 1:
            return self.min
        if rank == self.count:
            return self.max
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._bucket_mid(index)
        return self.max  # unreachable unless counts drifted

    @property
    def p50(self) -> Optional[float]:
        """Median."""
        return self.percentile(0.50)

    @property
    def p90(self) -> Optional[float]:
        """90th percentile."""
        return self.percentile(0.90)

    @property
    def p99(self) -> Optional[float]:
        """99th percentile."""
        return self.percentile(0.99)

    def snapshot(self) -> Dict[str, object]:
        """Flat summary for metric snapshots and reports."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingHistogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and self._buckets == other._buckets
        )

    def __repr__(self) -> str:
        return (
            f"StreamingHistogram(count={self.count}, min={self.min}, "
            f"max={self.max})"
        )
