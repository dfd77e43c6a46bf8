"""Loading a database leaves nothing process-wide behind.

A store holds what it loaded, and dropping the store and the generated
database frees all of it: no module-level cache keeps encoded OIDs,
records or pages alive from one load to the next.
"""

import gc
import tracemalloc

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.storage.costmodel import CostedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob

#: Slack for the interpreter's own bookkeeping (free lists, interned
#: names).  A process-wide cache of OID encodings keeps ~380 KiB here.
SLACK_BYTES = 16 * 1024


def load_and_drop(n_objects: int, seed: int) -> None:
    """Generate and lay out an ACOB database, keeping nothing."""
    db = generate_acob(n_objects, seed=seed)
    layout_database(
        db.complex_objects,
        ObjectStore(CostedDisk()),
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
        seed=seed,
    )


def test_loading_leaves_nothing_behind():
    # Warm up, so state any module builds lazily once exists already.
    # OIDs are minted by serial: a warm-up smaller than the measured
    # loads cannot have seen most of their OIDs.
    load_and_drop(20, seed=1)
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        baseline, _peak = tracemalloc.get_traced_memory()
        for seed in (2, 3):
            load_and_drop(300, seed)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert retained - baseline <= SLACK_BYTES
