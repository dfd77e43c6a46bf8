"""Sharded service fabric: routing, replicas, hedging, shedding.

The §7-and-beyond layer: N independent device-server shards behind a
consistent-hash router, optional read replicas with deterministic
hedged requests, open-loop arrival processes on the event clock, and
SLO-driven load shedding in front of each shard's admission
controller.  See ``docs/fabric.md`` for the model and its exactness
anchor to the single-server path.
"""

from repro.fabric.arrivals import ArrivalProcess, PoissonArrivals
from repro.fabric.builder import build_sharded_fabric, open_loop_workload
from repro.fabric.parallel import (
    ShardPartition,
    build_shard_partitions,
    partition_fn_for,
)
from repro.fabric.fabric import (
    FabricReport,
    FabricRequest,
    HedgePolicy,
    RequestSpec,
    ServiceFabric,
    Shard,
    ShardReplica,
    SheddingPolicy,
)
from repro.fabric.router import ConsistentHashRouter

__all__ = [
    "ArrivalProcess",
    "ConsistentHashRouter",
    "FabricReport",
    "FabricRequest",
    "HedgePolicy",
    "PoissonArrivals",
    "RequestSpec",
    "ServiceFabric",
    "Shard",
    "ShardPartition",
    "ShardReplica",
    "SheddingPolicy",
    "build_shard_partitions",
    "build_sharded_fabric",
    "open_loop_workload",
    "partition_fn_for",
]
