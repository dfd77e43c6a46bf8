"""Partitioning (exchange-style) operators.

"Since parallelism is encapsulated in Volcano [the exchange operator],
it can be used for all existing operators without changing their code"
(paper, Section 7).  True multi-process parallelism is out of scope for
a deterministic simulation — and the paper itself runs "in
single-process mode with parallelism … disabled" — but the *structural*
role of exchange matters for the future-work discussion: partitioned
assembly introduces shared-component synchronization between
partitions (Section 5, reason three).

:class:`PartitionedExecute` therefore reproduces exchange's plan shape:
it splits an input into ``n`` partitions, runs a plan fragment over
each partition *serially*, and interleaves their outputs in demand
order.  It is the one deal and the one merge under every partitioned
way of running assembly: :class:`repro.volcano.assembly.
InterleavedAssemblies` (Ablation A-5's independent per-partition
elevator queues, which break the exclusive-device assumption of
Section 7) and :class:`repro.volcano.assembly.ParallelAssembly`
(Figure V-3's per-shard engines) are this operator plus a fragment.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, List, Optional, Union

from repro.errors import PlanError
from repro.iterator import ListSource, Row, VolcanoIterator


def _fragment_wants_index(fragment: Callable) -> bool:
    """Does ``fragment`` accept a second positional (partition index)?

    Lets shard-local fragments bind partition-specific state — the
    store replica or fabric shard the fragment should read from —
    while single-argument fragments keep working unchanged.
    """
    try:
        signature = inspect.signature(fragment)
    except (TypeError, ValueError):  # builtins without introspection
        return False
    positional = [
        parameter
        for parameter in signature.parameters.values()
        if parameter.kind
        in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    ]
    if any(
        parameter.kind is inspect.Parameter.VAR_POSITIONAL
        for parameter in signature.parameters.values()
    ):
        return True
    return len(positional) >= 2


class PartitionedExecute(VolcanoIterator):
    """Run a plan fragment per partition; merge demand-driven.

    ``rows`` is the input: a source operator, or a plain list of rows.
    It is drained at ``open`` and dealt to ``n_partitions`` lists —
    positionally round-robin, exchange's classic deal, or wherever
    ``partition_fn(row, position)`` routes each row (a shard router,
    say; an index outside ``0..n_partitions-1`` is a
    :class:`PlanError`).

    ``fragment(source)`` builds the per-partition plan over a
    :class:`ListSource` of that partition's rows.  A fragment taking a
    second positional argument is called as ``fragment(source, index)``
    with the partition number — how shard-local fragments pick their
    own store (see :mod:`repro.fabric.parallel`).  Partitions execute
    serially but their outputs interleave round-robin, which is how
    exchange's merge side appears to its consumer; output order is a
    deterministic function of the partition streams.  The fragments'
    plans stay readable (statistics) after ``close``, until the next
    ``open`` builds fresh ones.
    """

    def __init__(
        self,
        rows: Union[VolcanoIterator, Iterable[Row]],
        n_partitions: int,
        fragment: Callable[..., VolcanoIterator],
        partition_fn: Optional[Callable[[Row, int], int]] = None,
    ) -> None:
        super().__init__()
        if n_partitions <= 0:
            raise PlanError("n_partitions must be positive")
        self._source = (
            rows if isinstance(rows, VolcanoIterator) else ListSource(rows)
        )
        self._n = n_partitions
        self._fragment = (
            fragment
            if _fragment_wants_index(fragment)
            else lambda source, _index: fragment(source)
        )
        self._partition_fn = partition_fn or (
            lambda _row, position: position % n_partitions
        )
        self._plans: List[VolcanoIterator] = []
        self._alive: List[bool] = []
        self._turn = 0

    def _deal(self) -> List[List[Row]]:
        """Drain the source and deal its rows to partitions."""
        partitions: List[List[Row]] = [[] for _ in range(self._n)]
        self._source.open()
        try:
            for position, row in enumerate(iter(self._source.next, None)):
                index = self._partition_fn(row, position)
                if not 0 <= index < self._n:
                    raise PlanError(
                        f"partition_fn routed row {position} to {index}, "
                        f"outside 0..{self._n - 1}"
                    )
                partitions[index].append(row)
        finally:
            self._source.close()
        return partitions

    def _open(self) -> None:
        self._plans = [
            self._fragment(ListSource(part), index)
            for index, part in enumerate(self._deal())
        ]
        try:
            for plan in self._plans:
                plan.open()
        except BaseException:
            self._close()  # the fragments already opened hold windows and pins
            raise
        self._alive = [True] * self._n
        self._turn = 0

    def _next(self) -> Optional[Row]:
        remaining = sum(self._alive)
        while remaining:
            index = self._turn % self._n
            self._turn += 1
            if not self._alive[index]:
                continue
            row = self._plans[index].next()
            if row is None:
                self._alive[index] = False
                remaining -= 1
                continue
            return row
        return None

    def _close(self) -> None:
        for plan in self._plans:
            if plan.is_open:
                plan.close()
