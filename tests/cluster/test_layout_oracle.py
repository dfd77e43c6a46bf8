"""The load phase against the page-at-a-time loader it replaced.

``layout_database`` groups the placement by page as OIDs and renders a
page's records just before ``ObjectStore.store_page`` writes that page,
taken without a disk read.  The previous loader rendered every record
first and took its page through a counted disk read; it is kept below,
verbatim in behaviour, as the oracle: for every policy
and generator the disk image, the OID directory, the decoded-record
cache, the roots, the root order, the extents and the object count
must be identical.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, List

import pytest

from repro.cluster.layout import LayoutResult, layout_database
from repro.cluster.policies import (
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.errors import DuplicateOidError, RecordError
from repro.objects.model import ObjectDef, validate_database
from repro.storage.costmodel import CostedDisk
from repro.storage.oid import Rid
from repro.storage.store import ObjectStore, StoredRecord
from repro.workloads.acob import generate_acob
from repro.workloads.bom import generate_bom
from repro.workloads.hypermodel import generate_hypermodel
from repro.workloads.person import generate_people


def oracle_store_page(store: ObjectStore, page_id, items) -> List[Rid]:
    """The one-``Page.insert``-per-record loader, through a disk read."""
    page = store.disk.read(page_id)
    rids: List[Rid] = []
    for oid, record in items:
        if oid in store.directory:
            raise DuplicateOidError(f"{oid} already stored")
        if record.fmt is not store.fmt and record.fmt != store.fmt:
            raise RecordError("record format does not match store format")
        slot = page.insert(oid.encode() + record.encode())
        rids.append(Rid(page_id, slot))
    store.disk.write(page)
    image = store.disk.dump_state()[0][page_id]
    for (oid, record), rid in zip(items, rids):
        store.directory.register(oid, rid)
        store._decoded[rid] = StoredRecord(
            tuple(record.ints), tuple(record.refs), oid, image
        )
        store._notify_write(oid)
    return rids


def oracle_layout(database, store, policy, shared=None, seed=0) -> LayoutResult:
    """Render every record first, then write page by page."""
    shared = shared or {}
    validate_database(database, shared)
    rng = random.Random(seed)
    placement = policy.place(database, shared, store, rng)
    lookup: Dict = {}
    for cobj in database:
        lookup.update(cobj.objects)
    lookup.update(shared)
    by_page: Dict[int, List] = {}
    page_order: List[int] = []
    for oid, page_id in placement.pages:
        if page_id not in by_page:
            by_page[page_id] = []
            page_order.append(page_id)
        by_page[page_id].append((oid, lookup[oid].to_record()))
    for page_id in page_order:
        oracle_store_page(store, page_id, by_page[page_id])
    roots = [cobj.root for cobj in database]
    root_order = list(roots)
    rng.shuffle(root_order)
    store.disk.reset_stats()
    store.buffer.drop_clean()
    store.buffer.reset_stats()
    return LayoutResult(
        store=store,
        policy_name=policy.name,
        roots=roots,
        root_order=root_order,
        extents=dict(placement.extents),
        object_count=len(placement.pages),
    )


GENERATORS = {
    "acob": lambda seed: generate_acob(40, sharing=0.0, seed=seed),
    "acob-shared": lambda seed: generate_acob(40, sharing=0.05, seed=seed),
    "bom": lambda seed: generate_bom(12, seed=seed),
    "hypermodel": lambda seed: generate_hypermodel(10, seed=seed),
    "people": lambda seed: generate_people(30, seed=seed),
}

POLICIES = {
    "unclustered": Unclustered,
    "inter": lambda: InterObjectClustering(cluster_pages=64),
    "intra": IntraObjectClustering,
}


def state(layout: LayoutResult):
    """Everything a layout leaves behind, as one comparable value."""
    store = layout.store
    disk = store.disk
    return (
        disk.dump_state(),
        store.directory.dump(),
        store.dump_decoded(),
        layout.roots,
        layout.root_order,
        layout.extents,
        layout.object_count,
        layout.policy_name,
        disk.stats.snapshot(),
        disk.head_position,
        disk.service_time_total,
    )


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_layout_matches_page_at_a_time_loader(generator, policy, seed):
    db = GENERATORS[generator](seed)
    built = []
    stores = []
    for layout_fn in (layout_database, oracle_layout):
        store = ObjectStore(CostedDisk())
        stores.append(store)
        built.append(
            state(
                layout_fn(
                    db.complex_objects,
                    store,
                    POLICIES[policy](),
                    shared=db.shared_pool,
                    seed=seed,
                )
            )
        )
    assert built[0] == built[1]
    # Each cache entry names the disk's own image of its page, not a copy.
    for store in stores:
        pages, _next_free = store.disk.dump_state()
        for rid, entry in store.dump_decoded().items():
            assert entry.image is pages[rid.page_id]


def test_one_page_of_records_alive_at_each_write(monkeypatch):
    """Every ``store_page`` call sees at most one page of live records."""
    live: List[weakref.ref] = []
    peaks: List[int] = []
    to_record = ObjectDef.to_record
    store_page = ObjectStore.store_page

    def tracked_to_record(self):
        record = to_record(self)
        live.append(weakref.ref(record))
        return record

    def counting_store_page(self, page_id, items):
        peaks.append(sum(1 for ref in live if ref() is not None))
        return store_page(self, page_id, items)

    monkeypatch.setattr(ObjectDef, "to_record", tracked_to_record)
    monkeypatch.setattr(ObjectStore, "store_page", counting_store_page)
    db = generate_acob(200, seed=5)
    store = ObjectStore(CostedDisk())
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
        seed=5,
    )
    assert len(live) == layout.object_count == 1400
    assert len(peaks) > 1
    assert max(peaks) <= store.objects_per_page()
