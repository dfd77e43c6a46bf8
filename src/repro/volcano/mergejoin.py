"""Sort-merge join.

The third classical join method of the Volcano toolbox (next to nested
loops and hash join): both inputs arrive sorted on the join key and are
merged with duplicate-group buffering, so the operator streams in
O(left + right + output) with memory bounded by the largest duplicate
group on the right.

Inputs are *required* to be key-sorted; the operator verifies this as
it consumes them and raises :class:`PlanError` on out-of-order rows —
silent wrong answers are worse than a failed plan.  Compose with
:class:`~repro.volcano.sort.ExternalSort` when inputs are unsorted.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import PlanError
from repro.iterator import Row, VolcanoIterator


class MergeJoin(VolcanoIterator):
    """Equi-join of two key-sorted inputs.

    ``combine(left_row, right_row)`` shapes output rows.  Duplicate
    keys on both sides produce the full cross product of the groups,
    matching the other join operators' semantics.
    """

    def __init__(
        self,
        left: VolcanoIterator,
        right: VolcanoIterator,
        left_key: Callable[[Row], object],
        right_key: Callable[[Row], object],
        combine: Callable[[Row, Row], Row] = lambda l, r: (l, r),
    ) -> None:
        super().__init__()
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self._combine = combine
        self._left_row: Optional[Row] = None
        self._left_done = False
        self._right_row: Optional[Row] = None
        self._right_done = False
        self._last_left_key: Optional[object] = None
        self._last_right_key: Optional[object] = None
        # Current duplicate group of the right side, replayed per
        # matching left row.
        self._group_key: Optional[object] = None
        self._group: List[Row] = []
        self._group_pos = 0

    # -- sorted input consumption ---------------------------------------------

    def _advance_left(self) -> None:
        if self._left_done:
            return
        row = self._left.next()
        if row is None:
            self._left_done = True
            self._left_row = None
            return
        key = self._left_key(row)
        if self._last_left_key is not None and key < self._last_left_key:  # type: ignore[operator]
            raise PlanError(
                "merge join: left input is not sorted on the join key"
            )
        self._last_left_key = key
        self._left_row = row

    def _advance_right(self) -> None:
        if self._right_done:
            return
        row = self._right.next()
        if row is None:
            self._right_done = True
            self._right_row = None
            return
        key = self._right_key(row)
        if self._last_right_key is not None and key < self._last_right_key:  # type: ignore[operator]
            raise PlanError(
                "merge join: right input is not sorted on the join key"
            )
        self._last_right_key = key
        self._right_row = row

    def _load_right_group(self, key: object) -> None:
        """Collect every right row with ``key`` into the replay buffer."""
        self._group = []
        self._group_key = key
        while self._right_row is not None and self._right_key(
            self._right_row
        ) == key:
            self._group.append(self._right_row)
            self._advance_right()
        self._group_pos = 0

    # -- protocol ------------------------------------------------------------------

    def _open(self) -> None:
        self._left.open()
        self._right.open()
        self._left_row = None
        self._right_row = None
        self._left_done = False
        self._right_done = False
        self._last_left_key = None
        self._last_right_key = None
        self._group = []
        self._group_key = None
        self._group_pos = 0
        self._advance_left()
        self._advance_right()

    def _next(self) -> Optional[Row]:
        while True:
            if self._left_row is None:
                return None
            left_key = self._left_key(self._left_row)

            # Replay the buffered right group for this left row.
            if self._group_key == left_key:
                if self._group_pos < len(self._group):
                    right_row = self._group[self._group_pos]
                    self._group_pos += 1
                    return self._combine(self._left_row, right_row)
                # Group exhausted: next left row may reuse it.
                self._advance_left()
                self._group_pos = 0
                continue

            # Align the right cursor with the left key.
            while (
                self._right_row is not None
                and self._right_key(self._right_row) < left_key  # type: ignore[operator]
            ):
                self._advance_right()
            if (
                self._right_row is not None
                and self._right_key(self._right_row) == left_key
            ):
                self._load_right_group(left_key)
                continue
            # No partner for this left key.
            self._advance_left()
            self._group_key = None
            self._group = []

    def _close(self) -> None:
        self._left.close()
        self._right.close()
        self._group = []
