"""The Section 4 example dataset: people, fathers, residences.

"This particular figure should be interpreted as a Person and his/her
father (who is also a Person) and the Residence of both child and
father."  The running query is: "Retrieve all people that live close to
(live in the same city as) their father."

This workload builds that database and its assembly template (with the
father edge expressed as a *recursive* template definition, one of the
two Batory properties Section 5 highlights).  Residences can be shared
between child and father — a realistic sharing pattern the assembly
operator resolves through its shared-component table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.assembled import AssembledComplexObject
from repro.core.template import Template, TemplateNode
from repro.errors import ReproError
from repro.objects.builder import GraphBuilder
from repro.objects.model import ComplexObjectDef, ObjectDef, TypeRegistry
from repro.storage.oid import Oid

#: Reference slots of the Person type.
FATHER_SLOT = 0
RESIDENCE_SLOT = 1
#: Integer slot of Residence.city.
CITY_SLOT = 0


@dataclass
class PersonDatabase:
    """Generated people with fathers and residences."""

    registry: TypeRegistry
    complex_objects: List[ComplexObjectDef]
    shared_pool: Dict[Oid, ObjectDef] = field(default_factory=dict)
    n_cities: int = 0
    #: oracle: does person ``i`` live in the same city as the father?
    close_to_father: List[bool] = field(default_factory=list)

    @property
    def n_people(self) -> int:
        """Number of child persons (complex-object roots)."""
        return len(self.complex_objects)


def generate_people(
    n_people: int,
    n_cities: int = 20,
    share_residence_probability: float = 0.3,
    orphan_probability: float = 0.0,
    seed: int = 11,
) -> PersonDatabase:
    """Build ``n_people`` complex objects: person → father, residences.

    With probability ``share_residence_probability`` a child lives in
    the father's residence — the same storage object, i.e. a shared
    component inside one complex object ("multiple, possibly shared,
    object references contained within a single object", Section 4).

    With probability ``orphan_probability`` a person has no recorded
    father: the reference slot stays null and the data is shallower
    than the template, which assembly must handle (and the
    ``lives-close-to-father`` query must answer ``False`` for).
    """
    if n_people <= 0:
        raise ReproError("need at least one person")
    if n_cities <= 0:
        raise ReproError("need at least one city")
    if not 0.0 <= share_residence_probability <= 1.0:
        raise ReproError("share_residence_probability must be in [0, 1]")
    if not 0.0 <= orphan_probability <= 1.0:
        raise ReproError("orphan_probability must be in [0, 1]")

    rng = random.Random(seed)
    registry = TypeRegistry()
    registry.define(
        "Person",
        int_fields=("age", "person_id"),
        ref_fields=("father", "residence", "r2", "r3", "r4", "r5", "r6", "r7"),
    )
    registry.define(
        "Residence",
        int_fields=("city", "street_no"),
        ref_fields=("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"),
    )
    builder = GraphBuilder(registry)
    database = PersonDatabase(
        registry=registry, complex_objects=[], n_cities=n_cities
    )

    for index in range(n_people):
        orphan = rng.random() < orphan_probability
        components = []
        refs = {}
        if not orphan:
            father_city = rng.randrange(n_cities)
            father_home = builder.new_object(
                "Residence",
                ints={"city": father_city, "street_no": rng.randrange(1000)},
            )
            father = builder.new_object(
                "Person",
                ints={"age": rng.randrange(40, 90), "person_id": 2 * index + 1},
                refs={"residence": father_home.oid},
            )
            refs["father"] = father.oid
            components.extend([father, father_home])
        shares = (not orphan) and rng.random() < share_residence_probability
        if shares:
            child_home = father_home
            child_city = father_city
        else:
            child_city = rng.randrange(n_cities)
            child_home = builder.new_object(
                "Residence",
                ints={"city": child_city, "street_no": rng.randrange(1000)},
            )
            components.append(child_home)
        refs["residence"] = child_home.oid
        child = builder.new_object(
            "Person",
            ints={"age": rng.randrange(18, 60), "person_id": 2 * index},
            refs=refs,
        )
        builder.complex_object(child, components)
        database.close_to_father.append(
            (not orphan) and child_city == father_city
        )

    builder.validate()
    database.complex_objects = builder.complex_objects
    database.shared_pool = builder.shared_objects
    return database


def person_template(share_residences: bool = True) -> Template:
    """Template: person → {father → residence, residence}.

    The father edge is declared *recursively* (a Person referencing a
    Person) and unrolled one level, demonstrating Section 5's recursive
    template definitions.  Residence nodes are marked shared when
    ``share_residences`` — child and father may point at one object.
    """
    person = TemplateNode("person", type_name="Person")
    person.child(
        RESIDENCE_SLOT,
        "residence",
        type_name="Residence",
        shared=share_residences,
        sharing_degree=0.3 if share_residences else 0.0,
    )
    person.recurse(FATHER_SLOT, target_label="person", max_depth=1)
    return Template(person).finalize()


def lives_close_to_father(assembled: AssembledComplexObject) -> bool:
    """The paper's Figure 3 method, over a swizzled complex object.

    Pure memory traversal: ``city(self.residence) ==
    city(self.father.residence)`` with no OID lookups — the payoff of
    pointer swizzling.
    """
    person = assembled.root
    father = person.child(FATHER_SLOT)
    residence = person.child(RESIDENCE_SLOT)
    if father is None or residence is None:
        return False
    father_home = father.child(RESIDENCE_SLOT)
    if father_home is None:
        return False
    return residence.ints[CITY_SLOT] == father_home.ints[CITY_SLOT]
