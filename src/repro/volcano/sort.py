"""External merge sort.

Volcano's sort operator "enforces a physical property of the data that
is not logically apparent (i.e. sort order)" — the paper introduces the
assembly operator by analogy to it (Section 3).  This implementation is
a classic run-formation + multiway-merge external sort: input rows are
collected into memory-bounded runs, each run is sorted and spilled to a
temporary heap file on the simulated disk, and the runs are merged with
a tournament (heap) of run cursors.

Spilled rows are serialized with :mod:`pickle`, so any picklable row
shape sorts.  When the input fits in one run, nothing is spilled.
"""

from __future__ import annotations

import heapq
import pickle
from typing import Callable, List, Optional, Tuple

from repro.errors import PlanError
from repro.storage.heap import HeapFile
from repro.storage.store import ObjectStore
from repro.iterator import Row, VolcanoIterator

#: Default rows held in memory per run.
DEFAULT_RUN_CAPACITY = 1024


class ExternalSort(VolcanoIterator):
    """Sort the child's rows by ``key`` using bounded memory.

    ``run_capacity`` caps in-memory rows; ``store`` supplies the disk
    for spilled runs (omit it to force a purely in-memory sort, which
    raises :class:`PlanError` if a second run would be needed).
    """

    def __init__(
        self,
        child: VolcanoIterator,
        key: Callable[[Row], object],
        run_capacity: int = DEFAULT_RUN_CAPACITY,
        store: Optional[ObjectStore] = None,
        reverse: bool = False,
    ) -> None:
        super().__init__()
        if run_capacity <= 0:
            raise PlanError("run_capacity must be positive")
        self._child = child
        self._key = key
        self._capacity = run_capacity
        self._store = store
        self._reverse = reverse
        self._memory_run: List[Row] = []
        self._memory_pos = 0
        self._run_files: List[HeapFile] = []
        self._merge_heap: List[Tuple[object, int, int, Row]] = []
        self._cursors: List = []
        #: number of spilled runs in the last execution.
        self.runs_spilled = 0

    # -- run formation ------------------------------------------------------

    def _spill_run(self, rows: List[Row]) -> None:
        if self._store is None:
            raise PlanError(
                "input exceeds run_capacity and no store was supplied "
                "for spilling"
            )
        rows.sort(key=self._key, reverse=self._reverse)
        run = HeapFile(
            self._store.disk,
            self._store.buffer,
            name=f"sort-run-{len(self._run_files)}",
        )
        for row in rows:
            run.append(pickle.dumps(row))
        run.flush()
        self._run_files.append(run)
        self.runs_spilled += 1

    def _open(self) -> None:
        self._child.open()
        self._memory_run = []
        self._run_files = []
        self.runs_spilled = 0
        batch: List[Row] = []
        while True:
            row = self._child.next()
            if row is None:
                break
            if len(batch) == self._capacity:
                self._spill_run(batch)
                batch = []
            batch.append(row)
        self._child.close()

        if not self._run_files:
            # Everything fit in memory: one sorted run, no I/O.
            batch.sort(key=self._key, reverse=self._reverse)
            self._memory_run = batch
            self._memory_pos = 0
            self._cursors = []
            self._merge_heap = []
            return

        self._spill_run(batch)

        # Initialize the multiway merge over spilled runs.
        self._cursors = [run.scan() for run in self._run_files]
        self._merge_heap = []
        for run_id, cursor in enumerate(self._cursors):
            self._push_from(run_id, cursor, 0)

    def _sort_key(self, row: Row) -> object:
        key = self._key(row)
        if self._reverse:
            # Only numeric keys support reverse merging across runs.
            return -key  # type: ignore[operator]
        return key

    def _push_from(self, run_id: int, cursor, seq: int) -> None:
        try:
            _rid, data = next(cursor)
        except StopIteration:
            return
        row = pickle.loads(data)
        heapq.heappush(
            self._merge_heap, (self._sort_key(row), run_id, seq, row)
        )

    # -- production -----------------------------------------------------------

    def _next(self) -> Optional[Row]:
        if self._memory_run:
            if self._memory_pos >= len(self._memory_run):
                return None
            row = self._memory_run[self._memory_pos]
            self._memory_pos += 1
            return row
        if not self._merge_heap:
            return None
        _key, run_id, seq, row = heapq.heappop(self._merge_heap)
        self._push_from(run_id, self._cursors[run_id], seq + 1)
        return row

    def _close(self) -> None:
        self._memory_run = []
        self._merge_heap = []
        self._cursors = []
        self._run_files = []
