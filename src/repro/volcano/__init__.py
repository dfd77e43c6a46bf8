"""Volcano-style query engine: uniform open/next/close iterators.

This package is the "set processor" of the paper's Figure 1 — the
physical-algebra layer the assembly operator plugs into.
"""

from repro.volcano.aggregate import HashAggregate
from repro.volcano.assembly import (
    AssemblyOperator,
    ComponentFilter,
    InterleavedAssemblies,
    ParallelAssembly,
)
from repro.volcano.exchange import PartitionedExecute
from repro.volcano.filters import Filter, Project
from repro.iterator import (
    ListSource,
    Row,
    VolcanoIterator,
)
from repro.volcano.joins import HashJoin
from repro.volcano.plan import (
    AssemblyJoinChoice,
    AssemblyJoinPlan,
    PushdownDecision,
    collect_operators,
    explain,
    plan_assembly_join,
    push_down_component_filters,
    replace_child,
    validate_plan,
    walk_plan,
)
from repro.volcano.scan import StoreScan, TidScan
from repro.volcano.sort import ExternalSort

__all__ = [
    "AssemblyJoinChoice",
    "AssemblyJoinPlan",
    "AssemblyOperator",
    "ComponentFilter",
    "ExternalSort",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "InterleavedAssemblies",
    "ListSource",
    "ParallelAssembly",
    "PartitionedExecute",
    "Project",
    "PushdownDecision",
    "Row",
    "StoreScan",
    "TidScan",
    "VolcanoIterator",
    "collect_operators",
    "explain",
    "plan_assembly_join",
    "push_down_component_filters",
    "replace_child",
    "validate_plan",
    "walk_plan",
]
