"""Row-at-a-time operators: filter, project, limit, distinct, map.

These are the trivial members of Volcano's physical algebra.  They are
deliberately thin: each is a pure iterator transformation that respects
the open/next/close protocol and defers all policy to callables
supplied by the plan builder.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.errors import PlanError
from repro.iterator import Row, VolcanoIterator


class Filter(VolcanoIterator):
    """Emit only rows for which ``predicate(row)`` is true."""

    def __init__(
        self, child: VolcanoIterator, predicate: Callable[[Row], bool]
    ) -> None:
        super().__init__()
        self._child = child
        self._predicate = predicate
        #: rows examined / rows passed, for selectivity reporting.
        self.seen = 0
        self.passed = 0

    def _open(self) -> None:
        self._child.open()
        self.seen = 0
        self.passed = 0

    def _next(self) -> Optional[Row]:
        while True:
            row = self._child.next()
            if row is None:
                return None
            self.seen += 1
            if self._predicate(row):
                self.passed += 1
                return row

    def _close(self) -> None:
        self._child.close()

    @property
    def observed_selectivity(self) -> float:
        """Fraction of examined rows that passed (0.0 before any input)."""
        if self.seen == 0:
            return 0.0
        return self.passed / self.seen


class Project(VolcanoIterator):
    """Apply ``transform(row)`` to every row."""

    def __init__(
        self, child: VolcanoIterator, transform: Callable[[Row], Row]
    ) -> None:
        super().__init__()
        self._child = child
        self._transform = transform

    def _open(self) -> None:
        self._child.open()

    def _next(self) -> Optional[Row]:
        row = self._child.next()
        if row is None:
            return None
        return self._transform(row)

    def _close(self) -> None:
        self._child.close()


class Limit(VolcanoIterator):
    """Emit at most ``n`` rows, then report end-of-stream."""

    def __init__(self, child: VolcanoIterator, n: int) -> None:
        super().__init__()
        if n < 0:
            raise PlanError("limit must be non-negative")
        self._child = child
        self._n = n
        self._emitted = 0

    def _open(self) -> None:
        self._child.open()
        self._emitted = 0

    def _next(self) -> Optional[Row]:
        if self._emitted >= self._n:
            return None
        row = self._child.next()
        if row is None:
            return None
        self._emitted += 1
        return row

    def _close(self) -> None:
        self._child.close()


class Distinct(VolcanoIterator):
    """Drop duplicate rows (hash-based; rows must be hashable).

    ``key`` optionally projects the deduplication key out of each row.
    """

    def __init__(
        self,
        child: VolcanoIterator,
        key: Optional[Callable[[Row], object]] = None,
    ) -> None:
        super().__init__()
        self._child = child
        self._key = key
        self._seen: Set[object] = set()

    def _open(self) -> None:
        self._child.open()
        self._seen = set()

    def _next(self) -> Optional[Row]:
        while True:
            row = self._child.next()
            if row is None:
                return None
            key = row if self._key is None else self._key(row)
            if key not in self._seen:
                self._seen.add(key)
                return row

    def _close(self) -> None:
        self._child.close()
        self._seen = set()
