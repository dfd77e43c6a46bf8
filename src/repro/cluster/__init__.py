"""Clustering policies and the layout engine (paper Section 6.1)."""

from repro.cluster.layout import (
    LayoutResult,
    LayoutSnapshot,
    layout_database,
    restore_layout,
    snapshot_layout,
)
from repro.cluster.policies import (
    DEFAULT_CLUSTER_PAGES,
    POLICIES,
    ClusteringPolicy,
    InterObjectClustering,
    IntraObjectClustering,
    Placement,
    Unclustered,
)
from repro.cluster.reorg import (
    AffinitySketch,
    DeviceIdleTracker,
    Migration,
    MigrationPlan,
    Reorganizer,
    ReorgPlanner,
    ReorgPolicy,
    ReorgRound,
)

__all__ = [
    "DEFAULT_CLUSTER_PAGES",
    "POLICIES",
    "AffinitySketch",
    "ClusteringPolicy",
    "DeviceIdleTracker",
    "InterObjectClustering",
    "IntraObjectClustering",
    "LayoutResult",
    "LayoutSnapshot",
    "Migration",
    "MigrationPlan",
    "Placement",
    "Reorganizer",
    "ReorgPlanner",
    "ReorgPolicy",
    "ReorgRound",
    "Unclustered",
    "layout_database",
    "restore_layout",
    "snapshot_layout",
]
