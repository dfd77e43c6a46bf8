"""Rule-based optimization of complex-object queries (Figure 1's box).

"Optimization includes choosing physical algebra operators, also called
set processing methods, for the logical algebra operators."  The
original Revelation used an optimizer generator; this reproduction
implements the rules that matter for the assembly operator:

1. **Predicate pushdown into the template.**  Component predicates move
   from the logical query into a *clone* of the template, so assembly
   evaluates them during retrieval and aborts failing objects early
   (Section 6.5) — the optimization the paper's Oregon example does by
   hand.
2. **Scheduler choice.**  The elevator is the default (the paper's
   across-the-board winner); when the pushed-down template carries
   predicates, the integrated adaptive scheduler (Section 7) is chosen.
3. **Window sizing.**  The window is the largest that the buffer can
   pin (inverting Section 6.3.3's bound), capped at the paper's
   diminishing-returns point of 50.
4. **Physical plan shape.**  Root source → assembly → residual filters
   → projection, each an ordinary Volcano operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.assembly import Assembly
from repro.core.template import Template
from repro.core.tuning import max_window_for_buffer
from repro.errors import PlanError
from repro.query.logical import ComplexObjectQuery
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource, VolcanoIterator
from repro.volcano.plan import explain as explain_plan

#: The paper's diminishing-returns window (Section 6.3.3).
WINDOW_CEILING = 50


@dataclass
class PhysicalChoice:
    """The optimizer's decisions, for EXPLAIN output and tests."""

    scheduler: str
    window_size: int
    pushed_predicates: int
    estimated_selectivity: float

    def __str__(self) -> str:
        return (
            f"scheduler={self.scheduler} window={self.window_size} "
            f"pushed={self.pushed_predicates} "
            f"est_selectivity={self.estimated_selectivity:.3f}"
        )


@dataclass
class OptimizedPlan:
    """A ready-to-run physical plan plus the choices behind it."""

    plan: VolcanoIterator
    choice: PhysicalChoice
    assembly: Assembly

    def execute(self) -> list:
        """Run the plan to completion."""
        return self.plan.execute()

    def explain(self) -> str:
        """Operator tree plus the optimizer's decisions."""
        return f"{explain_plan(self.plan)}\n-- {self.choice}"


class Optimizer:
    """Chooses physical settings for a :class:`ComplexObjectQuery`.

    ``buffer_capacity`` mirrors the buffer manager's configuration (or
    ``None`` for unbounded); ``WINDOW_CEILING`` caps window growth at
    the paper's diminishing-returns point.
    """

    def __init__(self, buffer_capacity: Optional[int] = None) -> None:
        self._buffer_capacity = buffer_capacity

    # -- rules ---------------------------------------------------------------

    def _push_predicates(self, query: ComplexObjectQuery) -> Template:
        """Rule 1: move component predicates into a template clone.

        A fold of :meth:`Template.with_predicate`: several predicates
        on one component conjoin (selectivities multiply); a predicate
        already on the catalog template conjoins too, so query
        restrictions stack on schema-level invariants.
        """
        template = query.template
        for component in query.component_predicates:
            template = template.with_predicate(
                component.label, component.predicate
            )
        return template

    def _choose_scheduler(self, template: Template) -> str:
        """Rule 2: adaptive when predicates exist, else elevator."""
        return "adaptive" if template.has_predicates() else "elevator"

    def _choose_window(self, template: Template) -> int:
        """Rule 3: as large as the buffer allows, capped at the knee."""
        if self._buffer_capacity is None:
            return WINDOW_CEILING
        feasible = max_window_for_buffer(self._buffer_capacity, template)
        return max(1, min(feasible, WINDOW_CEILING))

    # -- entry point ------------------------------------------------------------

    def optimize(
        self,
        query: ComplexObjectQuery,
        store: ObjectStore,
        default_roots: Optional[List[Oid]] = None,
    ) -> OptimizedPlan:
        """Compile the logical query into a physical plan over ``store``."""
        roots: List[Oid]
        if query.roots is not None:
            roots = list(query.roots)
        elif default_roots is not None:
            roots = list(default_roots)
        else:
            raise PlanError(
                "query names no roots and the database provided none"
            )

        template = self._push_predicates(query)
        scheduler = self._choose_scheduler(template)
        window = self._choose_window(template)

        assembly = Assembly(
            ListSource(roots),
            store,
            template,
            window_size=window,
            scheduler=scheduler,
        )
        plan: VolcanoIterator = assembly
        for residual in query.residual_predicates:
            plan = Filter(plan, residual)
        if query.projection is not None:
            plan = Project(plan, query.projection)

        choice = PhysicalChoice(
            scheduler=scheduler,
            window_size=window,
            pushed_predicates=len(query.component_predicates),
            estimated_selectivity=query.estimated_selectivity(),
        )
        return OptimizedPlan(plan=plan, choice=choice, assembly=assembly)
