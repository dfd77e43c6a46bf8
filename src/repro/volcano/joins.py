"""Join operators: nested loops, hash join, pointer join, one-to-one match.

Section 2 of the paper relates complex-object assembly to the
pointer-based join methods of relational systems ("Assembly resembles a
functional join, linking objects based on inter-object references").
This module provides the relational comparanda:

* :class:`NestedLoopsJoin` and :class:`HashJoin` — the classical
  value-based joins the Revelation optimizer would choose between;
* :class:`PointerJoin` — a functional join that dereferences an
  embedded OID per outer row (Shekita & Carey's pointer-based join);
* :class:`OneToOneMatch` — the Volcano one-to-one match operator of
  Keller & Graefe (reference [17] of the paper), a single physical
  operator computing join, semi-join, anti-join, outer joins, and the
  set operations, driven by match/unmatched flags.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import PlanError
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.iterator import Row, VolcanoIterator


class NestedLoopsJoin(VolcanoIterator):
    """For each outer row, re-open the inner and emit matching pairs.

    ``combine(outer, inner)`` shapes output rows; ``predicate`` decides
    matches.  The inner input is re-opened per outer row, as in
    Volcano.
    """

    def __init__(
        self,
        outer: VolcanoIterator,
        inner: VolcanoIterator,
        predicate: Callable[[Row, Row], bool],
        combine: Callable[[Row, Row], Row] = lambda o, i: (o, i),
    ) -> None:
        super().__init__()
        self._outer = outer
        self._inner = inner
        self._predicate = predicate
        self._combine = combine
        self._current_outer: Optional[Row] = None
        self._inner_open = False

    def _open(self) -> None:
        self._outer.open()
        self._current_outer = None
        self._inner_open = False

    def _advance_outer(self) -> bool:
        if self._inner_open:
            self._inner.close()
            self._inner_open = False
        self._current_outer = self._outer.next()
        if self._current_outer is None:
            return False
        self._inner.open()
        self._inner_open = True
        return True

    def _next(self) -> Optional[Row]:
        while True:
            if self._current_outer is None:
                if not self._advance_outer():
                    return None
            inner_row = self._inner.next()
            if inner_row is None:
                self._current_outer = None
                continue
            if self._predicate(self._current_outer, inner_row):
                return self._combine(self._current_outer, inner_row)

    def _close(self) -> None:
        if self._inner_open:
            self._inner.close()
            self._inner_open = False
        self._outer.close()


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


class PointerJoin(VolcanoIterator):
    """Functional join: dereference an OID embedded in each outer row.

    ``extract(row)`` returns the OID to chase (or ``None`` to skip the
    row); the referenced object is fetched from the store
    object-at-a-time, in input order — precisely the access pattern the
    assembly operator improves on.  Yields ``combine(row, oid, record)``.
    """

    def __init__(
        self,
        outer: VolcanoIterator,
        store: ObjectStore,
        extract: Callable[[Row], Optional[Oid]],
        combine: Callable[[Row, Oid, object], Row] = lambda r, o, rec: (r, o, rec),
    ) -> None:
        super().__init__()
        self._outer = outer
        self._store = store
        self._extract = extract
        self._combine = combine

    def _open(self) -> None:
        self._outer.open()

    def _next(self) -> Optional[Row]:
        while True:
            row = self._outer.next()
            if row is None:
                return None
            oid = self._extract(row)
            if oid is None or oid.is_null():
                continue
            record = self._store.fetch(oid)
            return self._combine(row, oid, record)

    def _close(self) -> None:
        self._outer.close()


class OneToOneMatch(VolcanoIterator):
    """The Volcano one-to-one match operator (Keller & Graefe 1989).

    Matches each left row with at most one right row on equal keys and
    emits according to three switches:

    * ``emit_matched`` — matched pairs (join / intersection),
    * ``emit_left_unmatched`` — left rows with no partner
      (anti-join / difference / the left half of outer joins),
    * ``emit_right_unmatched`` — right rows with no partner.

    With all three on and ``combine`` padding ``None``, this is a full
    outer union-style match; classical set operations fall out of the
    switch settings (see :meth:`difference`, :meth:`intersection`,
    :meth:`union` constructors).
    """

    def __init__(
        self,
        left: VolcanoIterator,
        right: VolcanoIterator,
        left_key: Callable[[Row], object],
        right_key: Callable[[Row], object],
        emit_matched: bool = True,
        emit_left_unmatched: bool = False,
        emit_right_unmatched: bool = False,
        combine: Callable[[Optional[Row], Optional[Row]], Row] = lambda l, r: (l, r),
    ) -> None:
        super().__init__()
        if not (emit_matched or emit_left_unmatched or emit_right_unmatched):
            raise PlanError("one-to-one match emits nothing")
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self._emit_matched = emit_matched
        self._emit_left = emit_left_unmatched
        self._emit_right = emit_right_unmatched
        self._combine = combine
        self._output: List[Row] = []
        self._pos = 0

    # -- named configurations ------------------------------------------------

    @classmethod
    def intersection(
        cls, left: VolcanoIterator, right: VolcanoIterator
    ) -> "OneToOneMatch":
        """Rows present on both sides (by identity key)."""
        return cls(
            left,
            right,
            left_key=lambda r: r,
            right_key=lambda r: r,
            emit_matched=True,
            combine=lambda l, _r: l,
        )

    @classmethod
    def difference(
        cls, left: VolcanoIterator, right: VolcanoIterator
    ) -> "OneToOneMatch":
        """Rows on the left with no partner on the right."""
        return cls(
            left,
            right,
            left_key=lambda r: r,
            right_key=lambda r: r,
            emit_matched=False,
            emit_left_unmatched=True,
            combine=lambda l, _r: l,
        )

    @classmethod
    def union(
        cls, left: VolcanoIterator, right: VolcanoIterator
    ) -> "OneToOneMatch":
        """All rows, each identity once."""
        return cls(
            left,
            right,
            left_key=lambda r: r,
            right_key=lambda r: r,
            emit_matched=True,
            emit_left_unmatched=True,
            emit_right_unmatched=True,
            combine=lambda l, r: l if l is not None else r,
        )

    # -- execution ----------------------------------------------------------------

    def _open(self) -> None:
        # Materialize the right side into one-to-one buckets.
        buckets: Dict[object, List[Row]] = {}
        self._right.open()
        while True:
            row = self._right.next()
            if row is None:
                break
            buckets.setdefault(self._right_key(row), []).append(row)
        self._right.close()

        self._output = []
        self._left.open()
        while True:
            row = self._left.next()
            if row is None:
                break
            key = self._left_key(row)
            partners = buckets.get(key)
            if partners:
                partner = partners.pop(0)
                if not partners:
                    del buckets[key]
                if self._emit_matched:
                    self._output.append(self._combine(row, partner))
            elif self._emit_left:
                self._output.append(self._combine(row, None))
        self._left.close()

        if self._emit_right:
            for partners in buckets.values():
                for row in partners:
                    self._output.append(self._combine(None, row))
        self._pos = 0

    def _next(self) -> Optional[Row]:
        if self._pos >= len(self._output):
            return None
        row = self._output[self._pos]
        self._pos += 1
        return row

    def _close(self) -> None:
        self._output = []
