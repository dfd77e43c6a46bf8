"""The paper's benchmark database: ACOB-like binary trees (Section 6).

"Our benchmark most closely resembles the Altair Complex-Object
Benchmark (ACOB).  Each complex object is structured as a binary tree
of 3 levels … Each object consists of 4 integer and 8 object reference
fields equaling 96 bytes, resulting in 9 objects per page."

Each tree position is its own type (T0 for roots, T1/T2 for the second
level, T3–T6 for leaves), which is what gives inter-object clustering
its per-type clusters.  Integer fields:

* ``id`` — the complex object's index,
* ``level`` / ``position`` — tree coordinates,
* ``payload`` — uniform in [0, PAYLOAD_RANGE); selection predicates of
  the Figure 16 benchmark test this field, so a predicate
  ``payload < p * PAYLOAD_RANGE`` has true selectivity ``p``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.predicates import Predicate, int_less_than
from repro.core.template import Template, binary_tree_template
from repro.errors import ReproError
from repro.objects.builder import GraphBuilder
from repro.objects.model import ComplexObjectDef, ObjectDef, TypeRegistry
from repro.storage.oid import Oid

#: Exclusive upper bound of the ``payload`` integer field.
PAYLOAD_RANGE = 1_000_000
#: Tree levels of a complex object: the paper's 3 (7 objects).
LEVELS = 3

#: Reference slots used for the binary tree edges.
LEFT_SLOT = 0
RIGHT_SLOT = 1

#: Integer slot of the ``payload`` field (see type definition below).
PAYLOAD_SLOT = 3


@dataclass
class ACOBDatabase:
    """A generated benchmark database, ready for layout."""

    registry: TypeRegistry
    complex_objects: List[ComplexObjectDef]
    shared_pool: Dict[Oid, ObjectDef] = field(default_factory=dict)
    levels: int = 3
    #: per-complex-object payloads at each position (for test oracles).
    payloads: List[Dict[int, int]] = field(default_factory=list)

    @property
    def n_complex_objects(self) -> int:
        """Number of complex objects in the database."""
        return len(self.complex_objects)

    @property
    def positions(self) -> int:
        """Tree positions per complex object (7 for 3 levels)."""
        return 2 ** self.levels - 1

    def total_objects(self) -> int:
        """Private plus shared storage objects."""
        return (
            sum(len(c) for c in self.complex_objects) + len(self.shared_pool)
        )

    def type_ids_depth_first(self) -> List[int]:
        """Type ids in depth-first tree-position order.

        This is the cluster disk order that makes depth-first traversal
        sweep the disk forward under inter-object clustering — the
        layout artifact of Figure 11A / Figure 12.
        """
        order: List[int] = []
        # Pre-order with an explicit stack: a recursive local function
        # would be a reference cycle.
        stack = [(0, 0)]
        while stack:
            position, level = stack.pop()
            order.append(self.registry.by_name(f"T{position}").type_id)
            if level + 1 < self.levels:
                level += 1
                stack += ((2 * position + 2, level), (2 * position + 1, level))
        return order


def make_registry() -> TypeRegistry:
    """Type catalog: one type per tree position, paper field layout."""
    registry = TypeRegistry()
    for position in range(2 ** LEVELS - 1):
        registry.define(
            f"T{position}",
            int_fields=("id", "level", "position", "payload"),
            ref_fields=("left", "right", "r2", "r3", "r4", "r5", "r6", "r7"),
        )
    return registry


def generate_acob(
    n_complex_objects: int,
    sharing: float = 0.0,
    seed: int = 7,
) -> ACOBDatabase:
    """Generate ``n_complex_objects`` binary-tree complex objects.

    ``sharing`` is the paper's Section 6.4 ratio of shared objects to
    sharing objects ("100 objects sharing 5 sub-objects exhibit .05
    sharing"): a pool of ``round(n * sharing)`` shared leaf objects is
    created at the last leaf position, and every
    complex object's reference at that position points into the pool
    instead of a private leaf.
    """
    if n_complex_objects <= 0:
        raise ReproError("need at least one complex object")
    if not 0.0 <= sharing <= 1.0:
        raise ReproError("sharing must be in [0, 1]")
    positions = 2 ** LEVELS - 1
    shared_position = positions - 1

    rng = random.Random(seed)
    registry = make_registry()
    builder = GraphBuilder(registry)
    database = ACOBDatabase(
        registry=registry, complex_objects=[], levels=LEVELS
    )

    shared_pool: List[ObjectDef] = []
    if sharing > 0.0:
        pool_size = max(1, round(n_complex_objects * sharing))
        for _ in range(pool_size):
            obj = builder.new_object(
                f"T{shared_position}",
                ints={
                    "id": -1,
                    "level": LEVELS - 1,
                    "position": shared_position,
                    "payload": rng.randrange(PAYLOAD_RANGE),
                },
            )
            builder.mark_shared(obj)
            shared_pool.append(obj)

    for index in range(n_complex_objects):
        payloads: Dict[int, int] = {}
        nodes: Dict[int, ObjectDef] = {}
        # Create nodes bottom-up so references are known when parents form.
        for position in reversed(range(positions)):
            if sharing > 0.0 and position == shared_position:
                continue  # the shared pool supplies this position
            # bit_length trick: positions 0; 1,2; 3..6 sit on levels 0; 1; 2.
            level = (position + 1).bit_length() - 1
            payload = rng.randrange(PAYLOAD_RANGE)
            payloads[position] = payload
            refs: Dict[str, Oid] = {}
            left, right = 2 * position + 1, 2 * position + 2
            if left < positions:
                refs["left"] = self_or_shared(
                    nodes, shared_pool, left, shared_position, sharing, rng
                )
            if right < positions:
                refs["right"] = self_or_shared(
                    nodes, shared_pool, right, shared_position, sharing, rng
                )
            nodes[position] = builder.new_object(
                f"T{position}",
                ints={
                    "id": index,
                    "level": level,
                    "position": position,
                    "payload": payload,
                },
                refs=refs,
            )
        builder.complex_object(
            nodes[0],
            [nodes[p] for p in sorted(nodes) if p != 0],
        )
        database.payloads.append(payloads)

    builder.validate()
    database.complex_objects = builder.complex_objects
    database.shared_pool = builder.shared_objects
    return database


def self_or_shared(
    nodes: Dict[int, ObjectDef],
    shared_pool: List[ObjectDef],
    position: int,
    shared_position: int,
    sharing: float,
    rng: random.Random,
) -> Oid:
    """Reference a private node, or a random pool member at the shared slot."""
    if sharing > 0.0 and position == shared_position:
        return rng.choice(shared_pool).oid
    return nodes[position].oid


def make_template(
    database: ACOBDatabase,
    sharing: float = 0.0,
    predicate_position: Optional[int] = None,
    predicate: Optional[Predicate] = None,
) -> Template:
    """Build the assembly template matching a generated database.

    ``sharing`` annotates the last leaf's template node (Section 5's
    border-of-shared-components marker).  ``predicate_position`` hangs
    ``predicate`` on that tree position (Figure 16's selective
    assembly).
    """
    template = binary_tree_template(
        database.levels, left_slot=LEFT_SLOT, right_slot=RIGHT_SLOT
    )
    if sharing > 0.0:
        node = template.node(f"n{database.positions - 1}")
        node.shared = True
        node.sharing_degree = sharing
    if predicate_position is not None:
        if predicate is None:
            raise ReproError("predicate_position given without a predicate")
        template.node(f"n{predicate_position}").predicate = predicate
    return template.reannotate()


def payload_predicate(selectivity: float) -> Predicate:
    """``payload < selectivity * PAYLOAD_RANGE`` — true pass rate = selectivity."""
    if not 0.0 <= selectivity <= 1.0:
        raise ReproError("selectivity must be in [0, 1]")
    bound = int(selectivity * PAYLOAD_RANGE)
    return int_less_than(PAYLOAD_SLOT, bound, selectivity)
