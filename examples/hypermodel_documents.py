#!/usr/bin/env python3
"""Assembling HyperModel-style documents with shared annotations.

The paper's Section 6 names the HyperModel Benchmark as one of the
object-oriented benchmarks "better suited for our system".  This
example assembles documents shaped like HyperModel's aggregation
hierarchy — a fan-out-5 tree of sections, 31 storage objects per
document — whose leaves link into a shared pool of annotation objects.

Two things to watch in the output:

* the shared-component table loads each annotation exactly once, no
  matter how many documents link to it;
* the execution trace shows the interleaving of fetches and links —
  the Figure 5 walkthrough, on real output.  The operator records each
  decision as a ``decision`` span on its ``spans=`` recorder, and
  ``AssemblyTracer`` reads them back as trace events.

Run:  python examples/hypermodel_documents.py
"""

from repro import (
    Assembly,
    AssemblyTracer,
    InterObjectClustering,
    ListSource,
    ObjectStore,
    SimulatedDisk,
    layout_database,
)
from repro.obs import SpanRecorder
from repro.workloads import generate_hypermodel, hypermodel_template

N_DOCUMENTS = 300
ANNOTATION_POOL = 20


def main() -> None:
    database = generate_hypermodel(
        N_DOCUMENTS,
        annotation_probability=0.6,
        annotation_pool_size=ANNOTATION_POOL,
        seed=99,
    )
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(
        database.complex_objects,
        store,
        InterObjectClustering(cluster_pages=1200),
        shared=database.shared_pool,
    )

    tracer = AssemblyTracer(SpanRecorder())
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        hypermodel_template(),
        window_size=40,
        scheduler="elevator",
        spans=tracer.recorder,
    )
    documents = operator.execute()

    print(f"Assembled {len(documents)} documents "
          f"({database.sections_per_document()} sections each).")
    print()
    stats = operator.stats
    print(f"  object fetches:     {stats.fetches}")
    print(f"  annotation links:   {stats.shared_links} "
          f"(pool of {ANNOTATION_POOL} loaded once each)")
    print(f"  avg seek / read:    "
          f"{store.disk.stats.avg_seek_per_read:.1f} pages")
    print()

    # Every document's annotations are the *same* Python objects as
    # their pool-mates in other documents.
    identity = {}
    for document in documents:
        for obj in document.scan():
            if obj.node.type_name == "Annotation":
                identity.setdefault(obj.oid, set()).add(id(obj))
    assert all(len(ids) == 1 for ids in identity.values())
    print(f"  distinct annotation objects in memory: {len(identity)} "
          f"(one per pool member referenced)")
    print()
    print("First ten trace events of the run:")
    print(tracer.summarize(max_events=10))


if __name__ == "__main__":
    main()
