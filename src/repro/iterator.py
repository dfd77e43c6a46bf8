"""The Volcano iterator protocol.

"Volcano queries are composed of operators that provide a uniform
iterator interface.  Each Volcano operator conforms to the iterator
paradigm by providing open, next and close calls." (paper, Section 3).

Every physical operator in this package — scans, joins, sort, the
assembly operator itself — subclasses :class:`VolcanoIterator` and is
driven through exactly that protocol.  ``next`` returns one row or
``None`` at end-of-stream (demand-driven dataflow / "lazy evaluation").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Iterator as PyIterator, List, Optional

from repro.errors import IteratorStateError

#: Rows are opaque to the protocol; operators document their own shape.
Row = Any


class _State(Enum):
    CREATED = "created"
    OPEN = "open"
    CLOSED = "closed"


class VolcanoIterator(ABC):
    """Base class enforcing the open → next* → close lifecycle.

    Subclasses implement ``_open``, ``_next`` and ``_close``; the
    public methods guard the state machine so protocol violations fail
    fast instead of yielding garbage.  Iterators are re-openable after
    ``close`` (Volcano re-opens inner inputs of nested-loops joins).
    """

    def __init__(self) -> None:
        self._state = _State.CREATED

    # -- protocol ----------------------------------------------------------

    def open(self) -> None:
        """Prepare to produce rows (opens inputs recursively)."""
        if self._state is _State.OPEN:
            raise IteratorStateError(f"{self!r} is already open")
        self._open()
        self._state = _State.OPEN

    def next(self) -> Optional[Row]:
        """Produce the next row, or ``None`` at end-of-stream."""
        if self._state is not _State.OPEN:
            raise IteratorStateError(f"next() on non-open {self!r}")
        return self._next()

    def close(self) -> None:
        """Release resources (closes inputs recursively)."""
        if self._state is not _State.OPEN:
            raise IteratorStateError(f"close() on non-open {self!r}")
        self._close()
        self._state = _State.CLOSED

    # -- subclass hooks -------------------------------------------------------

    @abstractmethod
    def _open(self) -> None:
        """Subclass part of :meth:`open`."""

    @abstractmethod
    def _next(self) -> Optional[Row]:
        """Subclass part of :meth:`next`."""

    def _close(self) -> None:
        """Subclass part of :meth:`close` (default: nothing)."""

    # -- conveniences -------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """Is the iterator currently open?"""
        return self._state is _State.OPEN

    def rows(self) -> PyIterator[Row]:
        """Drive the full protocol as a Python generator."""
        self.open()
        try:
            while True:
                row = self.next()
                if row is None:
                    return
                yield row
        finally:
            if self._state is _State.OPEN:
                self.close()

    def execute(self) -> List[Row]:
        """Run to completion and collect every row."""
        return list(self.rows())


class ListSource(VolcanoIterator):
    """An iterator over a pre-materialized list of rows.

    Used as the leaf feeding root OIDs to the assembly operator and as
    a test stub for any operator input.
    """

    def __init__(self, items: List[Row]) -> None:
        super().__init__()
        self._items = list(items)
        self._pos = 0

    def _open(self) -> None:
        self._pos = 0

    def _next(self) -> Optional[Row]:
        if self._pos >= len(self._items):
            return None
        row = self._items[self._pos]
        self._pos += 1
        return row
