"""Volcano-style query engine: uniform open/next/close iterators.

This package is the "set processor" of the paper's Figure 1 — the
physical-algebra layer the assembly operator plugs into.
"""

from repro.volcano.aggregate import HashAggregate, count_aggregate, sum_aggregate
from repro.volcano.assembly import (
    AssemblyOperator,
    ComponentFilter,
    InterleavedAssemblies,
    ParallelAssembly,
)
from repro.volcano.exchange import Partition, PartitionedExecute
from repro.volcano.filters import Distinct, Filter, Limit, Project
from repro.iterator import (
    GeneratorSource,
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
    "Distinct",
    "ExternalSort",
    "Filter",
    "GeneratorSource",
    "HashAggregate",
    "HashJoin",
    "InterleavedAssemblies",
    "Limit",
    "ListSource",
    "ParallelAssembly",
    "Partition",
    "PartitionedExecute",
    "Project",
    "PushdownDecision",
    "Row",
    "StoreScan",
    "TidScan",
    "VolcanoIterator",
    "collect_operators",
    "count_aggregate",
    "explain",
    "plan_assembly_join",
    "push_down_component_filters",
    "replace_child",
    "sum_aggregate",
    "validate_plan",
    "walk_plan",
]
