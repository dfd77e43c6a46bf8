"""Building a sharded fabric from one generated database.

Partitioning happens *before* layout: complex objects are dealt to
shards by consistent-hashing their root OIDs, then each shard lays its
partition out on its own fresh disk with its own clustering policy
instance.  Every replica of a shard repeats the same layout with the
same seed, so replicas are bit-identical copies — which is what makes
hedged duplicates answerable by any of them.

The shared pool (Section 5's shared components) is replicated to every
shard: shared objects may be referenced from complex objects on
different shards, and cross-shard fetches do not exist in this model.

With ``n_shards=1, replicas_per_shard=1`` the single partition is the
database in its original order and the single store is laid out
exactly as the unsharded path lays it out — the anchor the exactness
property tests lean on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.layout import layout_database
from repro.cluster.policies import make_policy
from repro.errors import FabricError
from repro.fabric.arrivals import ArrivalProcess
from repro.fabric.fabric import (
    HedgePolicy,
    RequestSpec,
    ServiceFabric,
    Shard,
    ShardReplica,
    SheddingPolicy,
)
from repro.fabric.router import ConsistentHashRouter
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import ACOBDatabase, make_template

#: The clustering every fabric shard lays its partition out under.
CLUSTERING = "inter-object"


def build_sharded_fabric(
    database: ACOBDatabase,
    n_shards: int = 1,
    replicas_per_shard: int = 1,
    *,
    cluster_pages: int = 512,
    buffer_capacity: Optional[int] = None,
    cache_capacity: int = 256,
    max_waiting: int = 16,
    layout_seed: int = 0,
    hedging: Optional[HedgePolicy] = None,
    shedding: Optional[SheddingPolicy] = None,
    placement: str = "shortest-queue",
    speed_factors: Optional[Dict[Tuple[int, int], float]] = None,
) -> ServiceFabric:
    """Partition ``database`` across shards and stand the fabric up.

    Every shard lays its partition out under :data:`CLUSTERING`, and
    every replica's service keeps the service defaults.

    ``speed_factors`` maps ``(shard_id, replica_id)`` to a clock
    multiplier (> 1 = slower hardware) for heterogeneous-fleet
    experiments; unlisted replicas run at 1.0, and a key naming no
    replica raises :class:`~repro.errors.FabricError`.
    """
    if replicas_per_shard <= 0:
        raise FabricError("replicas_per_shard must be positive")
    router = ConsistentHashRouter(n_shards)
    speed_factors = dict(speed_factors or {})
    unknown = set(speed_factors) - {
        (shard_id, replica_id)
        for shard_id in range(n_shards)
        for replica_id in range(replicas_per_shard)
    }
    if unknown:
        raise FabricError(
            f"speed_factors name no replica of {n_shards} shard(s) x "
            f"{replicas_per_shard} replica(s): {sorted(unknown, key=repr)}"
        )
    partitions: List[List] = [[] for _ in range(n_shards)]
    for cobj in database.complex_objects:
        partitions[router.shard_of(cobj.root)].append(cobj)
    shards: List[Shard] = []
    for shard_id, partition in enumerate(partitions):
        replicas: List[ShardReplica] = []
        roots = []
        for replica_id in range(replicas_per_shard):
            disk = SimulatedDisk()
            buffer = BufferManager(disk, capacity=buffer_capacity)
            store = ObjectStore(disk, buffer)
            layout = layout_database(
                partition,
                store,
                make_policy(
                    CLUSTERING,
                    cluster_pages=cluster_pages,
                    disk_order=database.type_ids_depth_first(),
                ),
                shared=database.shared_pool,
                seed=layout_seed,
                validate=False,
            )
            service = AssemblyService(
                store, cache_capacity=cache_capacity, max_waiting=max_waiting
            )
            factor = speed_factors.get((shard_id, replica_id), 1.0)
            replicas.append(
                ShardReplica(
                    shard_id,
                    replica_id,
                    store,
                    service,
                    speed_factor=factor,
                )
            )
            roots = list(layout.root_order)  # identical across replicas
        shards.append(
            Shard(
                shard_id,
                replicas,
                roots,
                slo=None if shedding is None else shedding.make_tracker(),
                placement=placement,
            )
        )
    return ServiceFabric(shards, router, make_template(database), hedging=hedging)


def open_loop_workload(
    fabric: ServiceFabric,
    arrivals: Union[ArrivalProcess, Sequence[float]],
    n_requests: Optional[int] = None,
    *,
    roots_per_request: Union[int, Tuple[int, int]] = 2,
    seed: int = 0,
) -> List[RequestSpec]:
    """Pair arrival times with shard-local root picks.

    Each request draws one shard (weighted by root population — busy
    shards see proportionally more traffic) and takes its roots from a
    seeded per-shard permutation, advancing a cursor so consecutive
    requests hit *different* roots (no accidental result-cache storm).
    All roots of one request come from one shard, matching the
    router's one-request-one-shard contract.

    ``roots_per_request`` may be an int or an inclusive ``(lo, hi)``
    range for heterogeneous request sizes (the tail-latency regime).
    """
    if isinstance(arrivals, ArrivalProcess):
        if n_requests is None:
            raise FabricError(
                "n_requests is required with an ArrivalProcess"
            )
        times = arrivals.times(n_requests)
    else:
        times = list(arrivals)
        if n_requests is not None and n_requests != len(times):
            raise FabricError(
                "n_requests disagrees with the explicit arrival list"
            )
    rng = random.Random(seed)
    populated = [s for s in fabric.shards if s.roots]
    if not populated:
        raise FabricError("no shard has any roots to request")
    weights = [len(s.roots) for s in populated]
    orders = {
        s.shard_id: rng.sample(s.roots, len(s.roots)) for s in populated
    }
    cursors = {s.shard_id: 0 for s in populated}
    specs: List[RequestSpec] = []
    for when in times:
        shard = rng.choices(populated, weights=weights)[0]
        if isinstance(roots_per_request, tuple):
            count = rng.randint(*roots_per_request)
        else:
            count = roots_per_request
        count = max(1, min(count, len(shard.roots)))
        order = orders[shard.shard_id]
        cursor = cursors[shard.shard_id]
        picked = []
        for _ in range(count):
            picked.append(order[cursor])
            cursor = (cursor + 1) % len(order)
        cursors[shard.shard_id] = cursor
        specs.append(
            RequestSpec(roots=tuple(picked), arrival_ms=when)
        )
    return specs
