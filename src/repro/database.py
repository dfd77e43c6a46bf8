"""The ``Database`` façade: everything wired together.

A downstream user should not have to assemble the disk, buffer, store,
layout engine, optimizer, and assembly operator by hand.  ``Database``
owns one simulated disk and object store, a type registry, the loaded
complex objects, and a query entry point:

    db = Database(buffer_capacity=512)
    builder = GraphBuilder(db.registry)
    ... define types, build complex objects ...
    db.load(builder, clustering="inter-object")

    template = ...                      # or a workload's template
    results = db.query(template).where_component(
        "residence", in_oregon
    ).plan().execute()

``plan`` goes through the optimizer (predicate pushdown, scheduler and
window selection).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.cluster.layout import LayoutResult, layout_database
from repro.cluster.policies import (
    DEFAULT_CLUSTER_PAGES,
    ClusteringPolicy,
    make_policy,
)
from repro.core.template import Template
from repro.errors import ReproError
from repro.objects.builder import GraphBuilder
from repro.objects.model import ComplexObjectDef, ObjectDef, TypeRegistry
from repro.query.logical import ComplexObjectQuery, retrieve
from repro.query.optimizer import OptimizedPlan, Optimizer
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore


class BoundQuery:
    """A :class:`ComplexObjectQuery` bound to a database.

    Thin wrapper adding ``plan`` / ``explain`` that route through the
    database's optimizer (the caller runs ``plan().execute()``); the
    refinement methods mirror the logical query's and stay chainable.
    """

    def __init__(self, database: "Database", query: ComplexObjectQuery) -> None:
        self._database = database
        self._query = query

    # -- chainable refinements ------------------------------------------------

    def where_component(self, label: str, predicate) -> "BoundQuery":
        """Predicate on one template component (pushed into assembly)."""
        return BoundQuery(
            self._database, self._query.where_component(label, predicate)
        )

    def where(self, predicate) -> "BoundQuery":
        """Residual predicate over the assembled complex object."""
        return BoundQuery(self._database, self._query.where(predicate))

    def select(self, projection) -> "BoundQuery":
        """Project each qualifying complex object."""
        return BoundQuery(self._database, self._query.select(projection))

    # -- execution ----------------------------------------------------------------

    def plan(self) -> OptimizedPlan:
        """Optimize without executing."""
        return self._database.optimize(self._query)

    def explain(self) -> str:
        """The physical plan and optimizer choices, as text."""
        return self.plan().explain()


class Database:
    """One simulated disk, one store, one catalog, many queries."""

    def __init__(self, buffer_capacity: Optional[int] = None) -> None:
        self.disk = SimulatedDisk()
        self.buffer = BufferManager(self.disk, capacity=buffer_capacity)
        self.store = ObjectStore(self.disk, self.buffer)
        self.registry = TypeRegistry()
        self._optimizer = Optimizer(buffer_capacity=buffer_capacity)
        self._layout: Optional[LayoutResult] = None

    # -- schema and data ------------------------------------------------------

    def load(
        self,
        source: Union[GraphBuilder, Sequence[ComplexObjectDef]],
        clustering: Union[str, ClusteringPolicy] = "inter-object",
        shared: Optional[Dict[Oid, ObjectDef]] = None,
        cluster_pages: int = DEFAULT_CLUSTER_PAGES,
    ) -> LayoutResult:
        """Place complex objects on disk under a clustering policy.

        ``source`` is either a validated :class:`GraphBuilder` (its
        complex objects and shared pool are taken) or an explicit list
        of complex objects (+ optional ``shared`` pool).
        ``clustering`` is a policy or its name
        (:func:`~repro.cluster.policies.make_policy`; ``cluster_pages``
        sizes a named inter-object policy's clusters).  A database
        loads once; reloading is an error, as on-disk OIDs are
        immutable.
        """
        if self._layout is not None:
            raise ReproError("database already loaded")
        if isinstance(source, GraphBuilder):
            source.validate()
            complex_objects = source.complex_objects
            shared = source.shared_objects
        else:
            complex_objects = list(source)
            shared = shared or {}
        if isinstance(clustering, str):
            policy = make_policy(clustering, cluster_pages=cluster_pages)
        else:
            policy = clustering
        self._layout = layout_database(
            complex_objects,
            self.store,
            policy,
            shared=shared,
        )
        return self._layout

    # -- querying ---------------------------------------------------------------

    def query(self, template: Template) -> BoundQuery:
        """Start a query retrieving complex objects of ``template``."""
        return BoundQuery(self, retrieve(template))

    def optimize(self, query: ComplexObjectQuery) -> OptimizedPlan:
        """Compile a logical query against this database."""
        default_roots = (
            list(self._layout.root_order) if self._layout is not None else None
        )
        return self._optimizer.optimize(
            query, self.store, default_roots=default_roots
        )

    # -- measurement ---------------------------------------------------------------

    @property
    def avg_seek_per_read(self) -> float:
        """The paper's metric since the disk's statistics were last reset."""
        return self.disk.stats.avg_seek_per_read
