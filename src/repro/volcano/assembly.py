"""Assembly as a composable Volcano operator (paper, Figure 1).

The paper draws the assembly operator *inside* the set processor: it
"conforms to the iterator paradigm by providing open, next and close
calls" and therefore composes with every other physical operator.
:mod:`repro.core.assembly` already implements the engine as a
:class:`~repro.volcano.iterator.VolcanoIterator`, but plans had to wire
it in by hand, outside the algebra's planning utilities.  This module
closes the gap with three operators:

* :class:`AssemblyOperator` — the algebra-facing wrapper.  It owns the
  template (so plan rewrite rules can push predicates into it before
  ``open``), builds a fresh engine at every ``open`` (clean re-open
  semantics, identical code path — and therefore identical
  ``DiskStats`` — to driving :class:`~repro.core.assembly.Assembly`
  directly), and renders its physical parameters in ``explain()``.
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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.errors import PlanError
from repro.volcano.exchange import PartitionedExecute
from repro.volcano.filters import Filter
from repro.volcano.iterator import ListSource, Row, VolcanoIterator

if TYPE_CHECKING:  # pragma: no cover - types only; see note below
    from repro.core.assembly import Assembly
    from repro.core.predicates import Predicate
    from repro.core.template import Template
    from repro.storage.record import ObjectRecord
    from repro.storage.store import ObjectStore

# NOTE: repro.core.assembly itself subclasses VolcanoIterator, so this
# module sits *below* repro.core in the import graph despite wrapping
# its engine.  All repro.core / repro.storage imports are deferred to
# call sites to keep ``import repro`` acyclic.


class AssemblyOperator(VolcanoIterator):
    """Composable assembly: wraps the engine behind the iterator contract.

    The operator owns ``template`` (a clone is taken on every predicate
    pushdown, so the caller's template is never mutated) and
    constructs a fresh :class:`~repro.core.assembly.Assembly` engine at
    each ``open`` from the stored parameters.  Rows are
    :class:`~repro.core.assembled.AssembledComplexObject` instances,
    exactly as the bare engine emits them.
    """

    def __init__(
        self,
        source: VolcanoIterator,
        store: ObjectStore,
        template: Template,
        **engine_kwargs: object,
    ) -> None:
        super().__init__()
        self._source = source
        self._store = store
        self._template = template.finalize()
        self._engine_kwargs = dict(engine_kwargs)
        #: number of predicates folded in by rewrite rules (explain()).
        self.pushed_predicates = 0
        # The engine is deliberately kept in a dict, not an attribute:
        # plan introspection (plan.child_operators) scans attributes
        # for VolcanoIterator values, and the engine holds the same
        # source instance this operator does — a visible engine would
        # make the source appear twice and fail validate_plan.
        self._engine_box = {"engine": None}

    # -- plan-facing surface -------------------------------------------------

    @property
    def template(self) -> Template:
        """The (possibly rewritten) template the next ``open`` will use."""
        return self._template

    @property
    def store(self) -> ObjectStore:
        """The object store assembled from."""
        return self._store

    @property
    def engine(self) -> Optional[Assembly]:
        """The engine of the current/last execution (None before open)."""
        return self._engine_box["engine"]

    @property
    def stats(self):
        """Engine statistics of the current/last execution."""
        engine = self._engine_box["engine"]
        if engine is None:
            raise PlanError("AssemblyOperator has no stats before open()")
        return engine.stats

    def push_predicate(self, label: str, predicate: Predicate) -> None:
        """Fold ``predicate`` onto the template node ``label``.

        Mirrors the optimizer's pushdown rule: the template is cloned,
        an existing predicate on the node conjoins (selectivities
        multiply), and the clone is re-annotated.  Only legal while
        the operator is not open.
        """
        from repro.core.predicates import conjunction

        if self.is_open:
            raise PlanError("cannot push a predicate into an open operator")
        template = self._template.clone()
        node = template.node(label)
        if node.predicate is not None:
            predicate = conjunction([node.predicate, predicate])
        node.predicate = predicate
        self._template = template.reannotate()
        self.pushed_predicates += 1

    def describe(self) -> str:
        """One-line ``explain`` rendering: window, scheduler, predicates."""
        scheduler = self._engine_kwargs.get("scheduler", "elevator")
        name = scheduler if isinstance(scheduler, str) else type(scheduler).__name__
        return (
            f"AssemblyOperator(window={self._engine_kwargs.get('window_size', 1)}, "
            f"scheduler={name}, predicates={self._template.predicate_count}, "
            f"pushed={self.pushed_predicates})"
        )

    # -- iterator protocol ---------------------------------------------------

    def _open(self) -> None:
        from repro.core.assembly import Assembly

        engine = Assembly(
            self._source, self._store, self._template, **self._engine_kwargs
        )
        engine.open()
        self._engine_box["engine"] = engine

    def _next(self) -> Optional[Row]:
        return self._engine_box["engine"].next()

    def _close(self) -> None:
        # The engine is kept (not dropped) so stats stay inspectable
        # after close, exactly like the bare driver's post-run reads.
        self._engine_box["engine"].close()


def component_record(component) -> "ObjectRecord":
    """Rebuild the storage-level record of an assembled component.

    Predicates are storage-level (they see ints and raw refs), so
    post-assembly evaluation must reconstruct the record exactly as
    the engine saw it at fetch time.
    """
    from repro.storage.record import ObjectRecord, RecordFormat

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
        super().__init__(child, self._passes)

    def _passes(self, row: Row) -> bool:
        root = getattr(row, "root", None)
        component = root.find(self.label) if root is not None else None
        if component is None:
            return False
        return self.predicate.evaluate(component_record(component))

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
      :class:`~repro.core.multidevice.PipelinedAssembly` (issue-ahead
      via ``issue_depth``); its fragment is a source over the buffered
      output.  Elapsed is ``max`` over the engines' clocks.
    """

    def __init__(
        self,
        source: VolcanoIterator,
        stores: Sequence[ObjectStore],
        template: Template,
        *,
        partition_fn: Optional[Callable[[Row, int], int]] = None,
        driver: str = "sync",
        issue_depth: int = 1,
        **engine_kwargs: object,
    ) -> None:
        if not stores:
            raise PlanError("ParallelAssembly needs at least one store")
        if driver not in PARALLEL_DRIVERS:
            raise PlanError(
                f"driver must be one of {PARALLEL_DRIVERS}, got {driver!r}"
            )
        if issue_depth <= 0:
            raise PlanError("issue_depth must be positive")
        super().__init__(
            source, len(stores), self._partition_plan, partition_fn
        )
        self._stores = list(stores)
        self._template = template.finalize()
        self._driver = driver
        self._issue_depth = issue_depth
        self._engine_kwargs = dict(engine_kwargs)
        self._io_engines: List[object] = []
        self._service_t0: List[float] = []

    @property
    def n_partitions(self) -> int:
        """Degree of parallelism (one engine per store)."""
        return len(self._stores)

    def describe(self) -> str:
        """One-line ``explain`` rendering: partitions, window, driver."""
        scheduler = self._engine_kwargs.get("scheduler", "elevator")
        name = scheduler if isinstance(scheduler, str) else type(scheduler).__name__
        return (
            f"ParallelAssembly(partitions={self.n_partitions}, "
            f"window={self._engine_kwargs.get('window_size', 1)}, "
            f"scheduler={name}, driver={self._driver})"
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
        from repro.core.assembly import Assembly

        store = self._stores[index]
        self._service_t0.append(
            getattr(store.disk, "service_time_total", 0.0)
        )
        engine = Assembly(
            source, store, self._template, **self._engine_kwargs
        )
        if self._driver == "sync":
            return engine
        from repro.core.multidevice import PipelinedAssembly
        from repro.storage.costmodel import CostModel
        from repro.storage.events import AsyncIOEngine

        cost_model = getattr(store.disk, "cost_model", None)
        io_engine = AsyncIOEngine(
            store.disk,
            cost_model if cost_model is not None else CostModel(),
        )
        self._io_engines.append(io_engine)
        return ListSource(
            PipelinedAssembly(
                engine,
                io_engine,
                issue_depth=self._issue_depth,
                batch_pages=int(self._engine_kwargs.get("batch_pages", 1)),
            ).run()
        )
