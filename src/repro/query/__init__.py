"""Logical queries and the rule-based optimizer (Figure 1's pipeline)."""

from repro.query.logical import (
    ComplexObjectQuery,
    ComponentPredicate,
    retrieve,
)
from repro.query.optimizer import (
    WINDOW_CEILING,
    OptimizedPlan,
    Optimizer,
    PhysicalChoice,
)

__all__ = [
    "ComplexObjectQuery",
    "ComponentPredicate",
    "OptimizedPlan",
    "Optimizer",
    "PhysicalChoice",
    "WINDOW_CEILING",
    "retrieve",
]
