"""A bill-of-materials workload: the paper's engineering motivation.

The introduction motivates OODBMSs with "more complex data such as
those found in engineering applications"; the classic case is a product
structure: assemblies containing sub-assemblies containing parts, with
ubiquitous standard parts (fasteners, connectors) shared across every
product.  This workload builds that shape:

* each **product** is a recursive part tree (fan-out up to
  :data:`MAX_SUBPARTS`, depth up to ``depth`` levels), sparser than the
  template (real assemblies are irregular);
* leaves may reference a catalog of **standard parts**, shared across
  all products — the sharing pattern where the shared-component table
  pays off hardest;
* the template is declared **recursively** (one ``Part`` node whose
  sub-part slots re-enter it), exercising Section 5's Batory property
  at depth > 1.

``rolled_up_cost`` computes each product's cost over the swizzled
structure; the generator records the oracle during construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.assembled import AssembledComplexObject, AssembledObject
from repro.core.template import Template, TemplateNode
from repro.errors import ReproError
from repro.objects.builder import GraphBuilder
from repro.objects.model import ComplexObjectDef, ObjectDef, TypeRegistry
from repro.storage.oid import Oid

#: Maximum sub-part slots per part (reference slots 0..2).
MAX_SUBPARTS = 3
#: Reference slot of a leaf part's standard-part link.
STANDARD_SLOT = 3
#: Integer slots: part id, level, unit cost, quantity.
COST_SLOT = 2
QUANTITY_SLOT = 3
#: The template's sharing annotation on the standard-part node.
CATALOG_SHARING = 0.3


@dataclass
class BomDatabase:
    """Generated products plus the standard-part catalog."""

    registry: TypeRegistry
    complex_objects: List[ComplexObjectDef]
    shared_pool: Dict[Oid, ObjectDef] = field(default_factory=dict)
    depth: int = 3
    #: oracle: rolled-up cost of each product, in generation order.
    costs: List[int] = field(default_factory=list)

    @property
    def n_products(self) -> int:
        """Number of products (complex-object roots)."""
        return len(self.complex_objects)


def generate_bom(
    n_products: int,
    depth: int = 3,
    catalog_size: int = 25,
    standard_probability: float = 0.5,
    seed: int = 33,
) -> BomDatabase:
    """Generate ``n_products`` recursive product structures."""
    if n_products <= 0:
        raise ReproError("need at least one product")
    if depth <= 0:
        raise ReproError("need at least one level")
    if catalog_size < 0:
        raise ReproError("catalog_size must be non-negative")
    if not 0.0 <= standard_probability <= 1.0:
        raise ReproError("standard_probability must be in [0, 1]")

    rng = random.Random(seed)
    registry = TypeRegistry()
    registry.define(
        "Part",
        int_fields=("part_id", "level", "cost", "quantity"),
        ref_fields=("sub0", "sub1", "sub2", "standard", "r4", "r5", "r6", "r7"),
    )
    registry.define(
        "StandardPart",
        int_fields=("part_id", "level", "cost", "quantity"),
    )
    builder = GraphBuilder(registry)

    catalog: List[ObjectDef] = []
    catalog_cost: Dict[Oid, int] = {}
    if standard_probability > 0.0 and catalog_size > 0:
        for part_id in range(catalog_size):
            cost = rng.randrange(1, 50)
            standard = builder.new_object(
                "StandardPart",
                ints={
                    "part_id": -(part_id + 1),
                    "level": -1,
                    "cost": cost,
                    "quantity": 1,
                },
            )
            builder.mark_shared(standard)
            catalog.append(standard)
            catalog_cost[standard.oid] = cost

    database = BomDatabase(
        registry=registry, complex_objects=[], depth=depth
    )
    part_counter = [0]
    for _product in range(n_products):
        components: List[ObjectDef] = []

        def build_part(level: int) -> "tuple[ObjectDef, int]":
            refs: Dict[str, Oid] = {}
            subtree_cost = 0
            if level + 1 < depth:
                for slot in range(rng.randint(0, MAX_SUBPARTS)):
                    child, child_cost = build_part(level + 1)
                    refs[f"sub{slot}"] = child.oid
                    subtree_cost += child_cost
            elif catalog and rng.random() < standard_probability:
                standard = rng.choice(catalog)
                refs["standard"] = standard.oid
                subtree_cost += catalog_cost[standard.oid]
            cost = rng.randrange(1, 100)
            quantity = rng.randint(1, 4)
            part = builder.new_object(
                "Part",
                ints={
                    "part_id": part_counter[0],
                    "level": level,
                    "cost": cost,
                    "quantity": quantity,
                },
                refs=refs,
            )
            part_counter[0] += 1
            if level > 0:
                components.append(part)
            return part, cost * quantity + subtree_cost

        root, total = build_part(0)
        builder.complex_object(root, components)
        database.costs.append(total)

    builder.validate()
    database.complex_objects = builder.complex_objects
    database.shared_pool = builder.shared_objects
    return database


def bom_template(depth: int = 3) -> Template:
    """The recursive product template: one Part node, self-re-entrant.

    Declared with :meth:`TemplateNode.recurse` on every sub-part slot
    and unrolled ``depth - 1`` levels by finalization — the template is
    written once, whatever the product depth.
    """
    if depth <= 0:
        raise ReproError("need at least one level")
    part = TemplateNode("part", type_name="Part")
    part.child(
        STANDARD_SLOT,
        "standard",
        type_name="StandardPart",
        shared=True,
        sharing_degree=CATALOG_SHARING,
    )
    for slot in range(MAX_SUBPARTS):
        part.recurse(slot, target_label="part", max_depth=depth - 1)
    return Template(part).finalize()


def rolled_up_cost(product: AssembledComplexObject) -> int:
    """Total cost of a product over the swizzled structure.

    Standard parts count once per *reference* (each use is a physical
    instance in the product), exactly as the generator's oracle does.
    """

    def roll(part: AssembledObject) -> int:
        own = part.ints[COST_SLOT] * part.ints[QUANTITY_SLOT]
        if part.node.type_name == "StandardPart":
            own = part.ints[COST_SLOT]
        for child in part.children.values():
            own += roll(child)
        return own

    return roll(product.root)
