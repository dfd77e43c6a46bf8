"""Logical complex-object queries (the Revelation side of Figure 1).

"A query can be executed naively within the run-time system or it can
be 'revealed'.  Revealing a query is an attempt to transform a query
into its equivalent complex object algebra expression.  Once a query is
transformed …, it is optimized."  (paper, Section 3)

This module is the post-revealer representation: a declarative
:class:`ComplexObjectQuery` that states *what* to retrieve —

* the template of the complex objects,
* the root set (defaults to every root the database loaded),
* **component predicates**, each bound to a template label (these are
  the behavioural conditions the revealer extracted, e.g. the Oregon
  restriction of Section 4),
* **residual predicates** over the fully assembled object (conditions
  that need several components at once, like ``lives-close-to-father``,
  or "computations that are not algebraically expressible"),
* an optional projection.

The :mod:`repro.query.optimizer` turns this into a physical plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from repro.core.assembled import AssembledComplexObject
from repro.core.predicates import Predicate
from repro.core.template import Template
from repro.errors import PlanError
from repro.storage.oid import Oid


@dataclass(frozen=True)
class ComponentPredicate:
    """A predicate the revealer localized to one template component."""

    label: str
    predicate: Predicate

    def __str__(self) -> str:
        return f"{self.label}: {self.predicate}"


@dataclass(frozen=True)
class ComplexObjectQuery:
    """A declarative query over a set of complex objects."""

    template: Template
    #: explicit root set; ``None`` means every loaded root.
    roots: Optional[Tuple[Oid, ...]] = None
    component_predicates: Tuple[ComponentPredicate, ...] = ()
    residual_predicates: Tuple[Callable[[AssembledComplexObject], bool], ...] = ()
    projection: Optional[Callable[[AssembledComplexObject], object]] = None

    # -- builder-style refinement -----------------------------------------

    def where_component(
        self, label: str, predicate: Predicate
    ) -> "ComplexObjectQuery":
        """Add a predicate on one template component (pushable)."""
        self.template.node(label)  # validates the label eagerly
        return replace(
            self,
            component_predicates=self.component_predicates
            + (ComponentPredicate(label, predicate),),
        )

    def where(
        self, predicate: Callable[[AssembledComplexObject], bool]
    ) -> "ComplexObjectQuery":
        """Add a residual predicate over the assembled object."""
        return replace(
            self,
            residual_predicates=self.residual_predicates + (predicate,),
        )

    def select(
        self, projection: Callable[[AssembledComplexObject], object]
    ) -> "ComplexObjectQuery":
        """Project each qualifying complex object."""
        if self.projection is not None:
            raise PlanError("query already has a projection")
        return replace(self, projection=projection)

    # -- introspection ---------------------------------------------------------

    def estimated_selectivity(self) -> float:
        """Product of component-predicate selectivities (independence)."""
        estimate = 1.0
        for component in self.component_predicates:
            estimate *= component.predicate.selectivity
        return estimate


def retrieve(template: Template) -> ComplexObjectQuery:
    """Entry point: a query retrieving every complex object of a template."""
    return ComplexObjectQuery(template=template.finalize())
