#!/usr/bin/env python3
"""The full Revelation pipeline: Database façade + declarative queries.

The paper's Figure 1 shows queries flowing revealer → object algebra →
optimizer → physical plan → set processor.  This example drives that
pipeline through the library's high-level API:

* a :class:`repro.Database` owns the disk, buffer, store, and catalog;
* ``db.query(template)`` starts a declarative query;
* ``where_component`` predicates are *pushed down* into the assembly
  template by the optimizer (early abort, Section 6.5);
* the optimizer also picks the scheduler (adaptive when predicates
  exist) and sizes the window from the buffer (Section 6.3.3's bound).

Run:  python examples/query_api.py
"""

from repro import Database, Predicate
from repro.workloads.person import (
    generate_people,
    lives_close_to_father,
    person_template,
)

N_PEOPLE = 1500
OREGON_CITIES = frozenset(range(5))


def main() -> None:
    # -- build and load ------------------------------------------------------
    people = generate_people(N_PEOPLE, n_cities=25, seed=7)
    db = Database(buffer_capacity=256)
    db.load(
        people.complex_objects,
        clustering="inter-object",
        shared=people.shared_pool,
        cluster_pages=1024,
    )

    # -- declare the query ------------------------------------------------------
    in_oregon = Predicate(
        name="residence in Oregon",
        fn=lambda record: record.ints[0] in OREGON_CITIES,
        selectivity=len(OREGON_CITIES) / 25,
    )
    query = (
        db.query(person_template())
        .where_component("residence", in_oregon)   # pushed into assembly
        .where(lives_close_to_father)              # residual, in memory
        .select(lambda c: c.root.ints[1])          # person ids
    )

    # -- explain, then run -----------------------------------------------------------
    print("Physical plan:")
    for line in query.explain().splitlines():
        print(f"  {line}")
    print()

    plan = query.plan()
    person_ids = plan.execute()
    stats = plan.assembly.stats

    print(f"Oregonians living in their father's city: {len(person_ids)}")
    print()
    print(f"  optimizer chose:       {plan.choice}")
    print(f"  aborted early:         {stats.aborted} of {N_PEOPLE}")
    print(f"  object fetches:        {stats.fetches} "
          f"(eager would need ~{N_PEOPLE * 4})")
    print(f"  avg seek / read:       {db.avg_seek_per_read:.1f} pages")

    assert plan.choice.scheduler == "adaptive"
    assert stats.fetches < N_PEOPLE * 4


if __name__ == "__main__":
    main()
