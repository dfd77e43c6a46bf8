"""Clustering policies: unclustered, inter-object, intra-object.

Section 6.1 of the paper defines three data-placement policies (their
Figures 8–10):

* **Unclustered** — "produced by randomly placing parts of each complex
  object on the disk".
* **Inter-object clustering** — "places objects of the same type, or
  class, together … there is no implied order within a cluster".
  Figure 12 adds the physical detail the experiments depend on: each
  cluster extent is *larger than any database size used in the
  benchmarks* (so seek distance is independent of database size) and
  the clusters are *not* physically placed in the order breadth-first
  scheduling visits them — the artifact behind Figure 11A.
* **Intra-object clustering** — parts of one composite object are
  placed together (the common form used by ORION/O2-style systems).

A policy maps every object of a generated database to a physical page;
:mod:`repro.cluster.layout` then writes the objects there.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExtentError, StorageError
from repro.objects.model import ComplexObjectDef, ObjectDef
from repro.storage.disk import Extent
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore, PagePlanner

#: Default pages per type cluster for inter-object clustering.  Large
#: enough for the paper's largest database (4000 complex objects means
#: 4000 objects per type level-0 cluster = 445 pages at 9 per page) —
#: "the cluster size is larger than any database size used in the
#: benchmarks" (Section 6.3.1).
DEFAULT_CLUSTER_PAGES = 512


@dataclass
class Placement:
    """A policy's output: page assignment plus the extents it claimed."""

    #: page id for every object, in the order objects should be written.
    pages: List[Tuple[Oid, int]] = field(default_factory=list)
    #: named extents (cluster name -> extent) for introspection/tests.
    extents: Dict[str, Extent] = field(default_factory=dict)


def _all_objects(
    database: Sequence[ComplexObjectDef],
    shared: Dict[Oid, ObjectDef],
) -> List[ObjectDef]:
    objects: List[ObjectDef] = []
    for cobj in database:
        objects.extend(cobj.objects.values())
    objects.extend(shared.values())
    return objects


class ClusteringPolicy(ABC):
    """Assigns every object of a database to a physical page."""

    #: short name used in benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def place(
        self,
        database: Sequence[ComplexObjectDef],
        shared: Dict[Oid, ObjectDef],
        store: ObjectStore,
        rng: random.Random,
    ) -> Placement:
        """Claim extents from ``store.disk`` and assign pages."""


class Unclustered(ClusteringPolicy):
    """Random placement over one extent sized to the database (Figure 8)."""

    name = "unclustered"

    def place(
        self,
        database: Sequence[ComplexObjectDef],
        shared: Dict[Oid, ObjectDef],
        store: ObjectStore,
        rng: random.Random,
    ) -> Placement:
        objects = _all_objects(database, shared)
        per_page = store.objects_per_page()
        pages_needed = -(-len(objects) // per_page)
        extent = store.disk.allocate(max(pages_needed, 1))
        planner = PagePlanner(store, extent)
        slots = planner.slots_in_order()
        rng.shuffle(slots)
        if len(slots) < len(objects):
            raise StorageError("unclustered extent too small")
        placement = Placement(extents={"all": extent})
        for obj, page_id in zip(objects, slots):
            planner.claim(page_id)
            placement.pages.append((obj.oid, page_id))
        return placement


class InterObjectClustering(ClusteringPolicy):
    """One sparse extent per object type, shuffled on disk (Figures 9, 12).

    ``cluster_pages`` fixes every cluster's extent size independent of
    the database size.  ``disk_order`` lists type ids in the physical
    order clusters appear on disk; when omitted, type-id order is used.
    The ACOB workload passes a depth-first-friendly order so that
    depth-first traversal sweeps the disk forward while breadth-first
    zigzags — reproducing the Figure 11A artifact the paper describes.
    """

    name = "inter-object"

    def __init__(
        self,
        cluster_pages: int = DEFAULT_CLUSTER_PAGES,
        disk_order: Optional[Sequence[int]] = None,
    ) -> None:
        if cluster_pages <= 0:
            raise ExtentError("cluster_pages must be positive")
        self._cluster_pages = cluster_pages
        self._disk_order = list(disk_order) if disk_order is not None else None

    def place(
        self,
        database: Sequence[ComplexObjectDef],
        shared: Dict[Oid, ObjectDef],
        store: ObjectStore,
        rng: random.Random,
    ) -> Placement:
        objects = _all_objects(database, shared)
        by_type: Dict[int, List[ObjectDef]] = {}
        for obj in objects:
            by_type.setdefault(obj.oid.type_id, []).append(obj)

        order = self._disk_order
        if order is None:
            order = sorted(by_type)
        else:
            missing = set(by_type) - set(order)
            if missing:
                raise StorageError(
                    f"disk_order misses type ids {sorted(missing)}"
                )

        placement = Placement()
        planners: Dict[int, PagePlanner] = {}
        for type_id in order:
            extent = store.disk.allocate(self._cluster_pages)
            placement.extents[f"type-{type_id}"] = extent
            planners[type_id] = PagePlanner(store, extent)

        for type_id, members in by_type.items():
            planner = planners[type_id]
            slots = planner.slots_in_order()
            if len(slots) < len(members):
                raise StorageError(
                    f"cluster for type {type_id} too small: "
                    f"{len(members)} objects, {len(slots)} slots"
                )
            rng.shuffle(slots)
            for obj, page_id in zip(members, slots):
                planner.claim(page_id)
                placement.pages.append((obj.oid, page_id))
        return placement


class IntraObjectClustering(ClusteringPolicy):
    """Each complex object's parts packed contiguously (Figure 10).

    Complex objects are laid out in creation order; within one complex
    object, parts follow the depth-first reference order (the order a
    naive traversal touches them).  Shared components, which by
    definition belong to no single composite, are packed into a
    trailing region.
    """

    name = "intra-object"

    def place(
        self,
        database: Sequence[ComplexObjectDef],
        shared: Dict[Oid, ObjectDef],
        store: ObjectStore,
        rng: random.Random,
    ) -> Placement:
        objects = _all_objects(database, shared)
        per_page = store.objects_per_page()
        pages_needed = -(-len(objects) // per_page)
        extent = store.disk.allocate(max(pages_needed, 1))
        planner = PagePlanner(store, extent)
        placement = Placement(extents={"all": extent})
        for cobj in database:
            ordered = cobj.traverse_depth_first()
            reached = {obj.oid for obj in ordered}
            # Components unreachable from the root (partially assembled
            # inputs, fragments) still belong to the composite's region.
            ordered.extend(
                obj for oid, obj in cobj.objects.items() if oid not in reached
            )
            for obj in ordered:
                page_id = planner.next_sequential()
                planner.claim(page_id)
                placement.pages.append((obj.oid, page_id))
        for oid, obj in shared.items():
            page_id = planner.next_sequential()
            planner.claim(page_id)
            placement.pages.append((oid, page_id))
        return placement


#: The three paper policies keyed by their benchmark-table names.
POLICIES = {
    Unclustered.name: Unclustered,
    InterObjectClustering.name: InterObjectClustering,
    IntraObjectClustering.name: IntraObjectClustering,
}
