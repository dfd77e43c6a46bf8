"""Selection predicates with selectivity annotations.

The assembly operator "is able to retrieve complex objects selectively,
based on arbitrary selection predicates" (Section 1), and the template
carries "predicates with predicate selectivity" (Section 5).  The
selectivity estimate drives scheduling: "the component with the higher
rejection probability should be retrieved first".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TemplateError
from repro.storage.record import ObjectRecord


@dataclass
class Predicate:
    """A boolean test on one storage object, with an estimated pass rate.

    ``fn`` receives the decoded :class:`ObjectRecord`; ``selectivity``
    estimates the fraction of objects that *pass* (0.0–1.0).
    """

    name: str
    fn: Callable[[ObjectRecord], bool] = field(repr=False)
    selectivity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise TemplateError(
                f"predicate {self.name!r}: selectivity must be in [0, 1], "
                f"got {self.selectivity}"
            )

    @property
    def rejection_probability(self) -> float:
        """Estimated probability an object fails — the scheduling hint."""
        return 1.0 - self.selectivity

    def evaluate(self, record: ObjectRecord) -> bool:
        """Run the test against one object."""
        return bool(self.fn(record))

    def __str__(self) -> str:
        return f"{self.name} (sel={self.selectivity:.2f})"


def int_field_predicate(
    name: str, slot: int, test: Callable[[int], bool], selectivity: float
) -> Predicate:
    """Predicate over one integer slot of the record."""
    if slot < 0:
        raise TemplateError("slot must be non-negative")

    def fn(record: ObjectRecord) -> bool:
        return test(record.ints[slot])

    return Predicate(name=name, fn=fn, selectivity=selectivity)


def int_less_than(slot: int, bound: int, selectivity: float) -> Predicate:
    """``record.ints[slot] < bound`` — the workhorse of Figure 16."""
    return int_field_predicate(
        f"ints[{slot}] < {bound}", slot, lambda v: v < bound, selectivity
    )


def conjunction(predicates: "list[Predicate]") -> Predicate:
    """AND several predicates on the same component into one.

    Selectivities multiply (the usual independence assumption), and the
    combined test short-circuits.  The optimizer uses this when a query
    places several conditions on one template component.
    """
    if not predicates:
        raise TemplateError("conjunction of no predicates")
    if len(predicates) == 1:
        return predicates[0]
    name = " AND ".join(p.name for p in predicates)
    selectivity = 1.0
    for predicate in predicates:
        selectivity *= predicate.selectivity

    def fn(record: ObjectRecord) -> bool:
        return all(p.evaluate(record) for p in predicates)

    return Predicate(name=name, fn=fn, selectivity=selectivity)


def always_true(selectivity: float = 1.0) -> Predicate:
    """A pass-everything predicate (useful to exercise the machinery)."""
    return Predicate(name="true", fn=lambda _record: True, selectivity=selectivity)
