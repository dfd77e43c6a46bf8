"""Shard-local partition stores for exchange-parallel assembly.

The §7 plan shape needs one independent store per partition.
:func:`build_shard_partitions` builds the fabric shape: complex objects
are dealt to shards by consistent-hashing their root OIDs (the same
:class:`~repro.fabric.router.ConsistentHashRouter` deal
:func:`~repro.fabric.builder.build_sharded_fabric` uses), and each
shard lays out only its own partition on its own disk.  The shared
pool is replicated to every shard — cross-shard fetches do not exist
in this model.

The stores default to :class:`~repro.storage.costmodel.CostedDisk`
backing so :meth:`~repro.volcano.assembly.ParallelAssembly.elapsed_ms` can
price the run on the event clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cluster.layout import LayoutResult, layout_database
from repro.errors import FabricError
from repro.fabric.builder import _make_policy
from repro.fabric.router import ConsistentHashRouter
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk, CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.workloads.acob import ACOBDatabase


@dataclass
class ShardPartition:
    """One partition of an exchange-parallel assembly plan."""

    index: int
    store: ObjectStore
    layout: LayoutResult

    @property
    def roots(self) -> List[Oid]:
        """This partition's root OIDs, in the layout's input order."""
        return self.layout.root_order


def _fresh_store(
    costed: bool, cost_model: Optional[CostModel]
) -> ObjectStore:
    if costed:
        disk = CostedDisk(cost_model)
    else:
        disk = SimulatedDisk()
    return ObjectStore(disk, BufferManager(disk))


def build_shard_partitions(
    database: ACOBDatabase,
    n_shards: int,
    *,
    clustering: str = "inter-object",
    cluster_pages: int = 512,
    layout_seed: int = 0,
    vnodes: int = 64,
    costed: bool = True,
    cost_model: Optional[CostModel] = None,
) -> Tuple[List[ShardPartition], ConsistentHashRouter]:
    """Deal ``database`` across ``n_shards`` shard-local stores.

    Returns the partitions and the router that dealt them; feed
    ``partition_fn_for(router)`` to
    :class:`~repro.volcano.assembly.ParallelAssembly` so each root is
    assembled on the shard that holds it.
    """
    if n_shards <= 0:
        raise FabricError("n_shards must be positive")
    router = ConsistentHashRouter(n_shards, vnodes=vnodes)
    dealt: List[List] = [[] for _ in range(n_shards)]
    for cobj in database.complex_objects:
        dealt[router.shard_of(cobj.root)].append(cobj)
    partitions: List[ShardPartition] = []
    for shard_id, partition_objects in enumerate(dealt):
        store = _fresh_store(costed, cost_model)
        layout = layout_database(
            partition_objects,
            store,
            _make_policy(clustering, cluster_pages, database),
            shared=database.shared_pool,
            seed=layout_seed,
            validate=False,
        )
        partitions.append(
            ShardPartition(index=shard_id, store=store, layout=layout)
        )
    return partitions, router


def partition_fn_for(
    router: ConsistentHashRouter,
) -> Callable[[Oid, int], int]:
    """A ``ParallelAssembly`` partition function routing by shard owner."""
    return lambda row, position: router.shard_of(row)
