"""Assembly inside the set processor (paper, Figure 1).

The paper draws the assembly operator *inside* the set processor: it
"conforms to the iterator paradigm by providing open, next and close
calls" and therefore composes with every other physical operator.
:class:`~repro.core.assembly.Assembly` *is* that operator — a
:class:`~repro.iterator.VolcanoIterator` with the plan-facing surface
rewrite rules need (``template``, ``push_predicate``, ``source`` /
``replace_source``, ``describe``); ``AssemblyOperator`` is its
historical name.  This module holds the operators built around it:

* :class:`ComponentFilter` — a :class:`~repro.volcano.filters.Filter`
  that evaluates a storage-level :class:`~repro.core.predicates.Predicate`
  against one labelled component of each assembled complex object.
  Because it names the component and carries the predicate's
  selectivity, the :func:`repro.volcano.plan.push_down_component_filters`
  rewrite rule can fold it into the template below (Section 6.5's
  selective assembly) without changing the row multiset.
* :class:`ParallelAssembly` — the paper's §7 "parallel assembly" via
  exchange: a :class:`~repro.volcano.exchange.PartitionedExecute`
  whose fragment assembles each partition (round-robin, or dealt by a
  fabric shard router) with its own engine over its own store replica
  or shard; dealing and the deterministic round-robin merge are the
  exchange operator's.  Elapsed time
  is priced on the PR 3 event clock: the ``"sync"`` driver reads each
  partition's :class:`~repro.storage.costmodel.CostedDisk` service
  total (bit-identical to the event engine at depth 1 — the E-3
  anchor) and reports the max over partitions; the ``"pipelined"``
  driver runs each partition under a real
  :class:`~repro.storage.events.AsyncIOEngine` completion loop.
* :class:`InterleavedAssemblies` — §7's exclusive-device *problem*: K
  engines over one shared disk, each with its own scheduler queue
  (the fix, ``DeviceServerAssembly``, lives in :mod:`repro.service`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.assembly import Assembly
from repro.core.multidevice import PipelinedAssembly
from repro.core.predicates import Predicate
from repro.core.template import Template
from repro.errors import AssemblyError, PlanError
from repro.iterator import ListSource, Row, VolcanoIterator
from repro.storage.events import AsyncIOEngine
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord, RecordFormat
from repro.storage.store import ObjectStore
from repro.volcano.exchange import PartitionedExecute
from repro.volcano.filters import Filter

#: The engine is the plan operator; this is its historical name, kept
#: because the frozen observatory workload ``plan_pushdown`` imports it
#: from :mod:`repro.volcano`, as do published plans.
AssemblyOperator = Assembly


def component_record(component) -> ObjectRecord:
    """Rebuild the storage-level record of an assembled component.

    Predicates are storage-level (they see ints and raw refs), so
    post-assembly evaluation must reconstruct the record exactly as
    the engine saw it at fetch time.
    """
    fmt = RecordFormat(
        n_ints=len(component.ints), n_refs=len(component.ref_oids)
    )
    return ObjectRecord(
        ints=list(component.ints), refs=list(component.ref_oids), fmt=fmt
    )


class ComponentFilter(Filter):
    """Filter assembled complex objects on one labelled component.

    Rows whose assembly lacks the component (degraded partial results)
    fail the filter — the same outcome pushdown produces, where a
    faulted predicate subtree aborts the owner.
    """

    def __init__(
        self, child: VolcanoIterator, label: str, predicate: Predicate
    ) -> None:
        self.label = label
        self.predicate = predicate

        # Not a bound method: a filter holding one is a cycle, and one
        # pushdown drops would leave its input to the cycle collector.
        def passes(row: Row) -> bool:
            root = getattr(row, "root", None)
            component = root.find(label) if root is not None else None
            if component is None:
                return False
            return predicate.evaluate(component_record(component))

        super().__init__(child, passes)

    def describe(self) -> str:
        """One-line ``explain`` rendering: the filtered label and predicate."""
        return f"ComponentFilter({self.label}: {self.predicate})"


#: Accepted ``driver`` values for :class:`ParallelAssembly`.
PARALLEL_DRIVERS = ("sync", "pipelined")


class ParallelAssembly(PartitionedExecute):
    """Exchange-parallel assembly over per-partition stores.

    :class:`~repro.volcano.exchange.PartitionedExecute` — its deal
    (``partition_fn(row, position)``, positional round-robin by
    default) and its deterministic round-robin merge — with one
    assembly engine per partition as the fragment.  ``source`` yields
    root OIDs; ``stores`` holds one independent store per partition
    (bit-identical replicas for round-robin partitioning, or fabric
    shards each holding only its own objects — see
    :mod:`repro.fabric.parallel` for both builders).

    Drivers:

    * ``"sync"`` — each partition's fragment is the plain synchronous
      engine; partitions interleave per ``next()`` call.  Elapsed time
      is read off each partition's
      :class:`~repro.storage.costmodel.CostedDisk` service-time
      accumulator, which the PR 3 event engine reproduces bit-for-bit
      at issue depth 1 (the E-3 anchor) — so ``max`` over partitions
      *is* the event-clock elapsed of the parallel run.
    * ``"pipelined"`` — each partition runs to completion at ``open``
      under its own :class:`~repro.storage.events.AsyncIOEngine` and
      :class:`~repro.core.multidevice.PipelinedAssembly` (one batch in
      flight per device, its default issue depth); its fragment is a
      source over the buffered output.  Elapsed is ``max`` over the
      engines' clocks.

    Every partition's engine runs the elevator scheduler at
    ``window_size``, one reference per step; a plan that needs other
    engine options builds its fragments itself
    (:class:`~repro.volcano.exchange.PartitionedExecute` with an
    :class:`Assembly` per partition).
    """

    def __init__(
        self,
        source: VolcanoIterator,
        stores: Sequence[ObjectStore],
        template: Template,
        *,
        partition_fn: Optional[Callable[[Row, int], int]] = None,
        driver: str = "sync",
        window_size: int = 1,
    ) -> None:
        if not stores:
            raise PlanError("ParallelAssembly needs at least one store")
        if driver not in PARALLEL_DRIVERS:
            raise PlanError(
                f"driver must be one of {PARALLEL_DRIVERS}, got {driver!r}"
            )
        super().__init__(
            source, len(stores), self._partition_plan, partition_fn
        )
        self._stores = list(stores)
        self._template = template.finalize()
        self._driver = driver
        self._window_size = window_size
        self._io_engines: List[object] = []
        self._service_t0: List[float] = []

    def describe(self) -> str:
        """One-line ``explain`` rendering: partitions, window, driver."""
        return (
            f"ParallelAssembly(partitions={len(self._stores)}, "
            f"window={self._window_size}, scheduler=elevator, "
            f"driver={self._driver})"
        )

    def elapsed_ms(self) -> float:
        """Event-clock elapsed time of the last run: max over partitions.

        Requires costed partition disks under the ``"sync"`` driver;
        uncosted disks report 0.0.
        """
        if self._driver == "pipelined":
            if not self._io_engines:
                return 0.0
            return max(engine.elapsed for engine in self._io_engines)
        if not self._service_t0:
            return 0.0
        return max(
            getattr(store.disk, "service_time_total", 0.0) - t0
            for store, t0 in zip(self._stores, self._service_t0)
        )

    def _open(self) -> None:
        self._io_engines = []
        self._service_t0 = []
        super()._open()

    def _partition_plan(
        self, source: VolcanoIterator, index: int
    ) -> VolcanoIterator:
        """Partition ``index``'s fragment: its engine, or (pipelined) a
        source over what its engine assembled."""
        store = self._stores[index]
        self._service_t0.append(
            getattr(store.disk, "service_time_total", 0.0)
        )
        engine = Assembly(
            source, store, self._template, window_size=self._window_size
        )
        if self._driver == "sync":
            return engine
        io_engine = AsyncIOEngine(
            store.disk, getattr(store.disk, "cost_model", None)
        )
        self._io_engines.append(io_engine)
        return ListSource(PipelinedAssembly(engine, io_engine).run())


class InterleavedAssemblies(PartitionedExecute):
    """K independent assembly operators contending for one device.

    "When multiple assembly operators (or parallel invocations of a
    single assembly operator) are executing, each assumes sole control
    of the device and independently issues object fetch requests.
    Therefore, there are two or more independent queues of requests for
    the device and the exclusive control assumption no longer holds."
    (Section 7)

    Exchange (:class:`~repro.volcano.exchange.PartitionedExecute`)
    with an :class:`Assembly` fragment: each round-robin partition of
    the roots gets its own operator (own window, own scheduler queue),
    and ``next`` serves the partitions round-robin, one emitted
    complex object per turn — the demand pattern a parallel query plan
    would generate.  Because each operator's elevator plans sweeps
    without seeing the others' fetches, the disk head is yanked
    between K uncoordinated sweep positions, and seek distance degrades
    as K grows.  :class:`repro.service.DeviceServerAssembly` is the
    paper's fix over the same K partitions.
    """

    def __init__(
        self,
        roots: List[Oid],
        store: ObjectStore,
        template: Template,
        n_partitions: int,
        window_size: int = 50,
    ) -> None:
        if n_partitions <= 0:
            raise AssemblyError("need at least one partition")
        per_window = max(1, window_size // n_partitions)
        super().__init__(
            roots,
            n_partitions,
            lambda source: Assembly(
                source, store, template, window_size=per_window
            ),
        )
