"""Row-at-a-time operators: filter and project.

These are the trivial members of Volcano's physical algebra.  They are
deliberately thin: each is a pure iterator transformation that respects
the open/next/close protocol and defers all policy to callables
supplied by the plan builder.
"""

from __future__ import annotations

from typing import Callable, Optional

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
