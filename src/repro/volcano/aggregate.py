"""Grouping and aggregation.

A small hash aggregation operator in the Volcano mould: the child is
consumed at ``open``, groups accumulate via an init/step pair (the
shape of Volcano's aggregation module, less its ``final`` hook), and
results stream out group by group as ``(key, accumulator)`` rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.iterator import Row, VolcanoIterator


class HashAggregate(VolcanoIterator):
    """Group rows by ``group_key`` and fold each group.

    * ``init()`` creates a fresh accumulator,
    * ``step(acc, row)`` returns the updated accumulator,
    * each group leaves as one ``(key, acc)`` row.
    """

    def __init__(
        self,
        child: VolcanoIterator,
        group_key: Callable[[Row], object],
        init: Callable[[], object],
        step: Callable[[object, Row], object],
    ) -> None:
        super().__init__()
        self._child = child
        self._group_key = group_key
        self._init = init
        self._step = step
        self._results: List[Row] = []
        self._pos = 0

    def _open(self) -> None:
        groups: Dict[object, object] = {}
        self._child.open()
        while True:
            row = self._child.next()
            if row is None:
                break
            key = self._group_key(row)
            if key not in groups:
                groups[key] = self._init()
            groups[key] = self._step(groups[key], row)
        self._child.close()
        self._results = list(groups.items())
        self._pos = 0

    def _next(self) -> Optional[Row]:
        if self._pos >= len(self._results):
            return None
        row = self._results[self._pos]
        self._pos += 1
        return row

    def _close(self) -> None:
        self._results = []
