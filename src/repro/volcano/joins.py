"""The value join: a build/probe hash join.

Section 2 of the paper relates complex-object assembly to the join
methods of relational systems ("Assembly resembles a functional join,
linking objects based on inter-object references").  The functional
(pointer) join is :class:`~repro.volcano.scan.TidScan`, which fetches
one referenced object per input OID; :class:`HashJoin` is the
value-based join that plans over assembled objects use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.iterator import Row, VolcanoIterator


class HashJoin(VolcanoIterator):
    """Classic build/probe equi-join.

    The build input is consumed entirely at ``open``; the probe side
    streams.  ``build_key`` / ``probe_key`` extract the join keys;
    ``combine(probe_row, build_row)`` shapes the output.
    """

    def __init__(
        self,
        build: VolcanoIterator,
        probe: VolcanoIterator,
        build_key: Callable[[Row], object],
        probe_key: Callable[[Row], object],
        combine: Callable[[Row, Row], Row] = lambda p, b: (p, b),
    ) -> None:
        super().__init__()
        self._build = build
        self._probe = probe
        self._build_key = build_key
        self._probe_key = probe_key
        self._combine = combine
        self._table: Dict[object, List[Row]] = {}
        self._matches: List[Row] = []
        self._match_pos = 0
        self._current_probe: Optional[Row] = None

    def _open(self) -> None:
        self._table = {}
        self._build.open()
        while True:
            row = self._build.next()
            if row is None:
                break
            self._table.setdefault(self._build_key(row), []).append(row)
        self._build.close()
        self._probe.open()
        self._matches = []
        self._match_pos = 0

    def _next(self) -> Optional[Row]:
        while True:
            if self._match_pos < len(self._matches):
                build_row = self._matches[self._match_pos]
                self._match_pos += 1
                return self._combine(self._current_probe, build_row)
            probe_row = self._probe.next()
            if probe_row is None:
                return None
            self._current_probe = probe_row
            self._matches = self._table.get(self._probe_key(probe_row), [])
            self._match_pos = 0

    def _close(self) -> None:
        self._probe.close()
        self._table = {}
        self._matches = []
