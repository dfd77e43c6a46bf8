"""Layout engine: write a generated database onto the simulated disk.

``layout_database`` is the load phase of every experiment: a
:class:`~repro.cluster.policies.ClusteringPolicy` chooses a page for
each object, the objects are written there, and the disk/buffer
statistics are reset so measurement starts clean — mirroring the
paper's separation of database creation from benchmark runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.policies import ClusteringPolicy, Placement
from repro.objects.model import ComplexObjectDef, ObjectDef, validate_database
from repro.storage.disk import Extent
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore


@dataclass
class LayoutSnapshot:
    """Frozen post-layout state, sufficient to clone a laid-out database.

    Layouts are deterministic, so benchmarks that revisit a parameter
    point can capture the result once (:func:`snapshot_layout`) and
    restore it onto a fresh disk/store (:func:`restore_layout`) instead
    of re-running placement and encoding.  Held values are immutable or
    copied on restore, so snapshots never leak state between runs.
    """

    pages: Dict[int, bytes]
    next_free: int
    directory: Dict
    decoded: Dict
    policy_name: str
    roots: List[Oid]
    root_order: List[Oid]
    extents: Dict[str, Extent]
    object_count: int


def snapshot_layout(layout: "LayoutResult") -> LayoutSnapshot:
    """Capture the post-layout disk image and bookkeeping of ``layout``.

    Dirty buffer frames are flushed first: online reorganization
    (:mod:`repro.cluster.reorg`) migrates objects through the buffer,
    so without the flush a snapshot taken after migrations would dump
    pre-migration page images while the directory already points at the
    new addresses.  Right after :func:`layout_database` the buffer is
    clean and the flush writes nothing, so pre-reorg snapshots are
    byte-for-byte what they always were.
    """
    store = layout.store
    store.buffer.flush_all()
    pages, next_free = store.disk.dump_state()
    return LayoutSnapshot(
        pages=pages,
        next_free=next_free,
        directory=store.directory.dump(),
        decoded=store.dump_decoded(),
        policy_name=layout.policy_name,
        roots=list(layout.roots),
        root_order=list(layout.root_order),
        extents=dict(layout.extents),
        object_count=layout.object_count,
    )


def restore_layout(
    snapshot: LayoutSnapshot, store: ObjectStore
) -> "LayoutResult":
    """Reconstitute a :class:`LayoutResult` from ``snapshot`` onto ``store``.

    ``store`` (and its disk/buffer) must be freshly constructed — the
    state matches what :func:`layout_database` leaves behind, which
    resets head position and all statistics.  The restored layout is
    bit-identical to a rebuild of the same parameter point.
    """
    store.disk.load_state(snapshot.pages, snapshot.next_free)
    store.directory.load(snapshot.directory)
    store.load_decoded(snapshot.decoded)
    return LayoutResult(
        store=store,
        policy_name=snapshot.policy_name,
        roots=list(snapshot.roots),
        root_order=list(snapshot.root_order),
        extents=dict(snapshot.extents),
        object_count=snapshot.object_count,
    )


@dataclass
class LayoutResult:
    """A database resident on disk, ready to be assembled.

    ``root_order`` is the order the assembly operator's *input* yields
    root OIDs — a seeded random permutation by default, modelling an
    unordered OID set coming from an index or unclustered scan (if the
    input arrived in physical order there would be nothing for the
    scheduler to do).
    """

    store: ObjectStore
    policy_name: str
    roots: List[Oid]
    root_order: List[Oid]
    extents: Dict[str, Extent] = field(default_factory=dict)
    object_count: int = 0

    def pages_spanned(self) -> int:
        """Total pages across all extents the layout claimed."""
        return sum(extent.length for extent in self.extents.values())


def layout_database(
    database: Sequence[ComplexObjectDef],
    store: ObjectStore,
    policy: ClusteringPolicy,
    shared: Optional[Dict[Oid, ObjectDef]] = None,
    seed: int = 0,
    shuffle_roots: bool = True,
    validate: bool = True,
) -> LayoutResult:
    """Place ``database`` on ``store`` under ``policy`` and reset stats.

    ``seed`` drives both the policy's internal randomness (slot
    shuffles) and the root-order permutation, so experiments are
    reproducible run to run.

    The load allocates only what it keeps: the placement is grouped by
    page as OIDs, and each page's records are rendered
    (:meth:`~repro.objects.model.ObjectDef.to_record`) just before
    :meth:`~repro.storage.store.ObjectStore.store_page` writes that
    page, so at most one page of records is alive at a time.  Pages
    are written in the order the placement first names them.
    """
    shared = shared or {}
    if validate:
        validate_database(database, shared)
    rng = random.Random(seed)
    placement: Placement = policy.place(database, shared, store, rng)

    lookup: Dict[Oid, ObjectDef] = {}
    for cobj in database:
        lookup.update(cobj.objects)
    lookup.update(shared)

    # Pages in first-use order, each with its OIDs in placement order.
    by_page: Dict[int, List[Oid]] = {}
    for oid, page_id in placement.pages:
        oids = by_page.get(page_id)
        if oids is None:
            by_page[page_id] = [oid]
        else:
            oids.append(oid)
    for page_id, oids in by_page.items():
        store.store_page(
            page_id, [(oid, lookup[oid].to_record()) for oid in oids]
        )

    roots = [cobj.root for cobj in database]
    root_order = list(roots)
    if shuffle_roots:
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
