"""Query-plan utilities: explain trees and plan validation.

Volcano plans are plain Python object trees — each operator holds its
inputs in attributes.  :func:`explain` renders such a tree the way
database EXPLAIN output does, discovering child operators by
introspection so no operator needs to cooperate; operators *may*
implement ``describe()`` to add detail to their line.

:func:`collect_operators` and :func:`validate_plan` support tests and
tooling: the former flattens a plan, the latter catches the classic
plan-building mistake of wiring one operator instance into two places
(its open/next/close state cannot serve two consumers).

Two rewrite/planning rules live here as well, both over the assembly
operator (:class:`repro.core.assembly.Assembly`):

* :func:`push_down_component_filters` folds ``ComponentFilter``
  predicates into the assembly template directly below them
  (Section 6.5's selective assembly), preserving the row multiset;
* :func:`plan_assembly_join` is a small cost-based rule choosing
  *assemble-then-join* vs *join-then-assemble* for a join between
  assembled objects and an in-memory build relation, returning an
  :class:`AssemblyJoinPlan` whose ``explain()`` renders the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.assembly import Assembly
from repro.errors import PlanError
from repro.iterator import ListSource, Row, VolcanoIterator
from repro.volcano.assembly import ComponentFilter
from repro.volcano.filters import Filter
from repro.volcano.joins import HashJoin


def child_operators(operator: VolcanoIterator) -> List[VolcanoIterator]:
    """The operator's direct inputs, found by attribute introspection.

    Attributes holding a :class:`VolcanoIterator` (or a list/tuple of
    them) are considered inputs, in attribute definition order.  The
    assembly engine is asked for its ``source`` instead: ``vars()``
    would materialise the instance ``__dict__`` of the one operator
    whose attribute reads are the hot path (docs/perf.md).
    """
    if isinstance(operator, Assembly):
        return [operator.source]
    children: List[VolcanoIterator] = []
    for name, value in vars(operator).items():
        if name.startswith("__"):
            continue
        if isinstance(value, VolcanoIterator):
            children.append(value)
        elif isinstance(value, (list, tuple)):
            children.extend(
                item for item in value if isinstance(item, VolcanoIterator)
            )
    return children


def describe_operator(operator: VolcanoIterator) -> str:
    """One-line description: ``describe()`` if provided, else the class."""
    describe = getattr(operator, "describe", None)
    if callable(describe):
        return str(describe())
    return type(operator).__name__


#: Plans deeper than this are assumed cyclic (an operator reachable
#: from itself) rather than genuinely that tall.
MAX_PLAN_DEPTH = 64


def walk_plan(
    plan: VolcanoIterator, depth: int = 0
) -> Iterator[Tuple[int, VolcanoIterator]]:
    """Yield ``(depth, operator)`` pairs in pre-order.

    Raises :class:`PlanError` past :data:`MAX_PLAN_DEPTH` so a cyclic
    plan fails loudly instead of recursing forever.
    """
    if depth > MAX_PLAN_DEPTH:
        raise PlanError(
            f"plan deeper than {MAX_PLAN_DEPTH} operators; "
            f"is an operator its own input?"
        )
    yield depth, plan
    for child in child_operators(plan):
        yield from walk_plan(child, depth + 1)


def collect_operators(plan: VolcanoIterator) -> List[VolcanoIterator]:
    """Every operator of the plan, pre-order."""
    return [operator for _depth, operator in walk_plan(plan)]


def explain(plan: VolcanoIterator) -> str:
    """Render the plan as an indented operator tree.

    Example output::

        Filter
          Assembly
            ListSource
    """
    lines = [
        f"{'  ' * depth}{describe_operator(operator)}"
        for depth, operator in walk_plan(plan)
    ]
    return "\n".join(lines)


def validate_plan(plan: VolcanoIterator) -> None:
    """Reject plans that share one operator instance between consumers.

    A Volcano iterator is a stateful cursor; feeding the same instance
    to two parents produces interleaved, meaningless streams.  Raises
    :class:`PlanError` naming the duplicated operator.
    """
    seen = {}
    for _depth, operator in walk_plan(plan):
        key = id(operator)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            raise PlanError(
                f"operator {describe_operator(operator)} appears "
                f"{seen[key]} times in the plan; each consumer needs "
                f"its own instance"
            )


# -- rewrite: predicate pushdown into assembly templates ---------------------


def replace_child(
    parent: VolcanoIterator, old: VolcanoIterator, new: VolcanoIterator
) -> bool:
    """Swap one input of ``parent`` in place; returns True on success.

    Works through the same attribute introspection as
    :func:`child_operators`, including list and tuple members.
    """
    if isinstance(parent, Assembly):
        return parent.replace_source(old, new)
    for name, value in vars(parent).items():
        if name.startswith("__"):
            continue
        if value is old:
            setattr(parent, name, new)
            return True
        if isinstance(value, list):
            for index, item in enumerate(value):
                if item is old:
                    value[index] = new
                    return True
        elif isinstance(value, tuple) and any(item is old for item in value):
            setattr(
                parent,
                name,
                tuple(new if item is old else item for item in value),
            )
            return True
    return False


@dataclass(frozen=True)
class PushdownDecision:
    """One filter folded into an assembly template by the rewrite."""

    label: str
    predicate: str
    selectivity: float

    def describe(self) -> str:
        """One-line account of the pushdown, for logs and explain output."""
        return (
            f"pushed {self.predicate} into template node {self.label!r} "
            f"(selectivity {self.selectivity:.2f})"
        )


def push_down_component_filters(
    plan: VolcanoIterator,
) -> Tuple[VolcanoIterator, List[PushdownDecision]]:
    """Fold every ``ComponentFilter`` sitting directly on an
    :class:`Assembly` into that operator's template.

    Returns the rewritten plan root and the decisions taken, in
    application order.  The rule is conservative: a filter separated
    from the assembly by another operator is left in place.  Row
    multisets are preserved (the predicate is evaluated on the same
    component record either way); disk statistics are *not* — aborting
    failing objects early is the entire point (Section 6.5).
    """
    decisions: List[PushdownDecision] = []
    changed = True
    while changed:
        changed = False
        parents = {id(plan): None}
        for _depth, operator in walk_plan(plan):
            for child in child_operators(operator):
                parents[id(child)] = operator
        for _depth, operator in walk_plan(plan):
            if not isinstance(operator, ComponentFilter):
                continue
            target = child_operators(operator)
            if len(target) != 1 or not isinstance(target[0], Assembly):
                continue
            assembly = target[0]
            if operator.is_open or assembly.is_open:
                raise PlanError("cannot rewrite a plan while it is open")
            assembly.push_predicate(operator.label, operator.predicate)
            decisions.append(
                PushdownDecision(
                    label=operator.label,
                    predicate=str(operator.predicate),
                    selectivity=operator.predicate.selectivity,
                )
            )
            parent = parents[id(operator)]
            if parent is None:
                plan = assembly
            else:
                replace_child(parent, operator, assembly)
            changed = True
            break
    return plan, decisions


# -- cost-based rule: assemble-then-join vs join-then-assemble ---------------

#: CPU cost, in page-cost units, charged per row the join-first shape
#: routes through its extra semi-join + re-join (its only overhead:
#: both joins are in-memory and touch no pages).
JOIN_CPU_COST_PER_ROW = 0.01


def estimate_assembly_cost(
    n_objects: int, template, pages_spanned: int
) -> float:
    """Expected cost (page-cost units) of assembling ``n_objects``.

    Uses the template's selectivity statistics exactly as Section 5
    prescribes: a passing object fetches every node; a failing one is
    aborted after reaching its shallowest predicate.  The elevator
    sweeps the layout once (``pages_spanned`` of head travel) and pays
    one transfer per fetch.
    """
    template = template.finalize()
    nodes = template.node_count
    pass_rate = 1.0
    shallowest = nodes
    for node in template.nodes():
        if node.predicate is not None:
            pass_rate *= node.predicate.selectivity
            shallowest = min(shallowest, node.depth + 1)
    expected_fetches = n_objects * (
        pass_rate * nodes + (1.0 - pass_rate) * shallowest
    )
    return float(pages_spanned) + expected_fetches


@dataclass(frozen=True)
class AssemblyJoinChoice:
    """The rule's verdict, with both cost estimates for explain()."""

    shape: str
    cost_assemble_first: float
    cost_join_first: float
    join_selectivity: float

    def describe(self) -> str:
        """One-line account of the chosen shape and both cost estimates."""
        return (
            f"join order: {self.shape} "
            f"(assemble-first={self.cost_assemble_first:.1f}, "
            f"join-first={self.cost_join_first:.1f}, "
            f"join selectivity={self.join_selectivity:.2f})"
        )


@dataclass(frozen=True)
class AssemblyJoinPlan:
    """A chosen physical plan plus the costing that picked it."""

    plan: VolcanoIterator
    choice: AssemblyJoinChoice

    def explain(self) -> str:
        """The plan tree with the join-order decision appended."""
        return explain(self.plan) + f"\n-- {self.choice.describe()}"


def _assemble_then_join(
    roots, build_rows, build_key, store, template, engine_kwargs
) -> VolcanoIterator:
    return HashJoin(
        build=ListSource(list(build_rows)),
        probe=Assembly(
            ListSource(list(roots)), store, template, **engine_kwargs
        ),
        build_key=build_key,
        probe_key=lambda row: row.root_oid,
    )


def _join_then_assemble(
    roots, build_rows, build_key, store, template, engine_kwargs
) -> VolcanoIterator:
    matches = {build_key(row) for row in build_rows}
    semi_join = Filter(ListSource(list(roots)), matches.__contains__)
    return HashJoin(
        build=ListSource(list(build_rows)),
        probe=Assembly(semi_join, store, template, **engine_kwargs),
        build_key=build_key,
        probe_key=lambda row: row.root_oid,
    )


def plan_assembly_join(
    roots: List[Row],
    build_rows: List[Row],
    build_key: Callable[[Row], object],
    store,
    template,
    *,
    pages_spanned: Optional[int] = None,
    **engine_kwargs: object,
) -> AssemblyJoinPlan:
    """Cost-based choice between assemble-then-join and join-then-assemble.

    ``build_rows`` is an in-memory relation keyed by root OID
    (``build_key``).  Both shapes emit ``(assembled, build_row)`` pairs
    with identical multisets; the rule picks the cheaper one:

    * *assemble-then-join* assembles every root, then hash-joins;
    * *join-then-assemble* semi-joins the root list against the build
      keys first, assembling only matching roots — cheaper in I/O by
      the join selectivity, plus a per-row CPU epsilon for the extra
      hash lookups.  Ties (join selectivity 1.0) go to the simpler
      assemble-then-join shape.
    """
    roots = list(roots)
    build_rows = list(build_rows)
    if pages_spanned is None:
        # Fallback: assume the layout spans about one page per object.
        pages_spanned = max(len(roots), 1)
    matches = {build_key(row) for row in build_rows}
    matching = sum(1 for root in roots if root in matches)
    join_selectivity = matching / len(roots) if roots else 1.0

    cost_assemble_first = estimate_assembly_cost(
        len(roots), template, pages_spanned
    )
    cost_join_first = estimate_assembly_cost(
        matching, template, pages_spanned
    ) + JOIN_CPU_COST_PER_ROW * (len(roots) + len(build_rows))

    if cost_join_first < cost_assemble_first:
        shape = "join-then-assemble"
        plan = _join_then_assemble(
            roots, build_rows, build_key, store, template, engine_kwargs
        )
    else:
        shape = "assemble-then-join"
        plan = _assemble_then_join(
            roots, build_rows, build_key, store, template, engine_kwargs
        )
    choice = AssemblyJoinChoice(
        shape=shape,
        cost_assemble_first=cost_assemble_first,
        cost_join_first=cost_join_first,
        join_selectivity=join_selectivity,
    )
    return AssemblyJoinPlan(plan=plan, choice=choice)
