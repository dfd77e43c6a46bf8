"""Open-loop arrival processes on the event clock.

The S-1..S-4 service figures drive the server *closed-loop*: each
simulated client waits for its previous request before issuing the
next, so the offered load self-throttles exactly when the server
saturates — the regime where knees and tail blowups live is
unreachable by construction.  These generators produce *open-loop*
traffic instead: arrival timestamps drawn independently of service
progress, as Darmont & Gruenwald's simulation methodology (PAPERS.md)
prescribes for clustering comparisons whose conclusions flip with the
arrival pattern.

:class:`PoissonArrivals` — memoryless traffic at a constant rate — is
the process the F-series figures and the open-loop fabric workload
drive; :class:`ArrivalProcess` holds the seed and the replayable
``times(n)``.  Streams are deterministic (``random.Random`` is a fixed
algorithm across platforms).

Timestamps are absolute simulated milliseconds; rates are requests
per second (the natural unit for offered load).  ``times(n)`` always
restarts from the seed, so the same process object can parameterize
many runs without order-of-use effects.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.errors import FabricError


class ArrivalProcess:
    """Base class: a seeded generator of absolute arrival times (ms)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _generate(self, rng: random.Random) -> Iterator[float]:
        raise NotImplementedError

    def times(self, n: int) -> List[float]:
        """The first ``n`` arrival timestamps, in milliseconds."""
        if n < 0:
            raise FabricError("cannot generate a negative arrival count")
        rng = random.Random(self.seed)
        stream = self._generate(rng)
        return [next(stream) for _ in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_s`` requests per second."""

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        super().__init__(seed)
        if rate_per_s <= 0:
            raise FabricError("arrival rate must be positive")
        self.rate_per_s = rate_per_s

    def _generate(self, rng: random.Random) -> Iterator[float]:
        now = 0.0
        while True:
            now += rng.expovariate(self.rate_per_s) * 1000.0
            yield now
