"""Elapsed-time figures E-1..E-3: what overlapped I/O buys.

Every earlier figure charges the disk as if reads happen one at a time
— the right model for the paper's single spindle, but a *sum* over
reads once data is declustered over K devices.  Section 7's sketch
("asynchronous I/O … we expect scalable performance") is about elapsed
time: devices serve their queues concurrently, so the cost of a run is
the **longest device timeline plus exposed CPU**, which the
event-driven engine (:mod:`repro.storage.events`) now measures:

* **E-1** — elapsed milliseconds vs device count, pipelined assembly
  over a declustered layout, against the synchronous sum of per-device
  service time (what the one-read-at-a-time loop would pay for the
  same reads).  The paper's scalability expectation is the check:
  elapsed at 4 devices beats 1 device by more than 1.5x.
* **E-2** — elapsed vs issue-ahead depth at 4 devices with a per-
  reference CPU cost: depth 1 exposes resolution work between
  completions; depth 2 hides it behind in-flight reads.  Deeper
  issue-ahead stops paying (and can mildly regress — early pops
  perturb the per-device elevator sweeps), which the slack in the
  non-increasing check acknowledges.
* **E-3** — per-device utilization of the E-1 run at max devices
  (balance of the declustered layout), plus the engine's ground-truth
  anchor: a single device at issue depth 1 and batch 1 reproduces the
  synchronous :class:`~repro.storage.costmodel.CostedDisk` service-
  time total *bit-for-bit* (also property-tested in the suite).

All drivers accept size overrides so the test suite can run them at
reduced scale; defaults match the other Section 6 figures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import get_database
from repro.bench.report import FigureResult, monotone_decreasing
from repro.cluster.layout import (
    LayoutSnapshot,
    layout_database,
    restore_layout,
    snapshot_layout,
)
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.core.multidevice import (
    MultiDeviceScheduler,
    PipelinedAssembly,
    PipelineStats,
)
from repro.core.schedulers import make_scheduler
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk, CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import make_template

#: Device counts swept by E-1 (1 = the synchronous baseline geometry).
DEVICE_COUNTS = (1, 2, 4)
#: Issue-ahead depths swept by E-2.
ISSUE_DEPTHS = (1, 2, 4)
#: Per-reference CPU cost (ms) that E-2 overlaps with in-flight reads.
CPU_MS_PER_REF = 0.2

#: Layout snapshots keyed by ``(db_size, cluster_pages, geometry)``.
#: Geometry is part of the key because placement goes through
#: ``disk.allocate`` — a multi-device disk stripes extents round-robin,
#: so the page images differ per device count.
_LAYOUT_SNAPSHOTS: Dict[Tuple, LayoutSnapshot] = {}
_LAYOUT_CACHE_LIMIT = 8


def _acob_layout(
    db, db_size: int, cluster_pages: int, geometry, store: ObjectStore
):
    """Lay out (or restore from snapshot) the declustered ACOB database.

    ``store`` must be freshly constructed and ``geometry`` must
    identify the disk's allocation behaviour (device count for
    multi-device disks).  The first call per key runs the real load
    phase and captures a snapshot; later calls restore it,
    bit-identical, without re-running placement and encoding.
    """
    key = (db_size, cluster_pages, geometry)
    snapshot = _LAYOUT_SNAPSHOTS.get(key)
    if snapshot is not None:
        return restore_layout(snapshot, store)
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=cluster_pages,
            disk_order=db.type_ids_depth_first(),
        ),
        shared=db.shared_pool,
    )
    _LAYOUT_SNAPSHOTS[key] = snapshot_layout(layout)
    while len(_LAYOUT_SNAPSHOTS) > _LAYOUT_CACHE_LIMIT:
        _LAYOUT_SNAPSHOTS.pop(next(iter(_LAYOUT_SNAPSHOTS)))
    return layout


def _pipelined_run(
    db_size: int,
    n_devices: int,
    window_per_device: int,
    cluster_pages: int,
    issue_depth: int,
    batch_pages: int,
    cpu_ms_per_ref: float = 0.0,
) -> Tuple[AsyncIOEngine, PipelineStats, int]:
    """One pipelined assembly over a declustered ACOB layout."""
    db = get_database(db_size, seed=2)
    disk = MultiDeviceDisk(
        n_devices=n_devices,
        pages_per_device=(7 * cluster_pages) // n_devices + cluster_pages + 88,
    )
    store = ObjectStore(disk, BufferManager(disk))
    layout = _acob_layout(
        db, db_size, cluster_pages, ("multi", n_devices), store
    )
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window_per_device * n_devices,
        scheduler=MultiDeviceScheduler(disk),
    )
    engine = AsyncIOEngine(disk, CostModel())
    pipeline = PipelinedAssembly(
        operator,
        engine,
        issue_depth=issue_depth,
        batch_pages=batch_pages,
        cpu_ms_per_ref=cpu_ms_per_ref,
    )
    emitted = pipeline.run()
    return engine, pipeline.stats, len(emitted)


def _synchronous_run(db_size: int, window: int, cluster_pages: int):
    """The synchronous single-spindle reference: a costed elevator run."""
    db = get_database(db_size, seed=2)
    disk = CostedDisk(n_pages=7 * cluster_pages + cluster_pages + 88)
    store = ObjectStore(disk, BufferManager(disk))
    layout = _acob_layout(db, db_size, cluster_pages, "costed", store)
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window,
        scheduler=make_scheduler(
            "elevator",
            head_fn=lambda: disk.head_position,
            resident_fn=store.buffer.is_resident,
        ),
    )
    emitted = operator.execute()
    return disk, len(emitted)


def _costed_pipelined_run(db_size: int, window: int, cluster_pages: int):
    """The same layout driven by the engine at depth 1 / batch 1."""
    db = get_database(db_size, seed=2)
    disk = CostedDisk(n_pages=7 * cluster_pages + cluster_pages + 88)
    store = ObjectStore(disk, BufferManager(disk))
    layout = _acob_layout(db, db_size, cluster_pages, "costed", store)
    operator = Assembly(
        ListSource(layout.root_order),
        store,
        make_template(db),
        window_size=window,
        scheduler=make_scheduler(
            "elevator",
            head_fn=lambda: disk.head_position,
            resident_fn=store.buffer.is_resident,
        ),
    )
    engine = AsyncIOEngine(disk, disk.cost_model)
    pipeline = PipelinedAssembly(
        operator, engine, issue_depth=1, batch_pages=1
    )
    emitted = pipeline.run()
    return engine, disk, len(emitted)


def figure_elapsed(
    db_size: int = 1000,
    window_per_device: int = 50,
    cluster_pages: int = 512,
    device_counts: Sequence[int] = DEVICE_COUNTS,
    issue_depths: Sequence[int] = ISSUE_DEPTHS,
    batch_pages: int = 4,
    cpu_ms_per_ref: float = CPU_MS_PER_REF,
) -> List[FigureResult]:
    """Figures E-1..E-3: elapsed time under the event-driven engine."""

    # -- E-1: elapsed time vs device count ---------------------------------
    e1 = FigureResult(
        figure_id="Figure E-1",
        title=f"elapsed time vs devices, pipelined, window={window_per_device}/device",
        x_label="devices",
        y_label="elapsed milliseconds (event clock)",
    )
    elapsed_by_devices: List[float] = []
    utilizations_at_max: List[float] = []
    emitted_ok = True
    for n_devices in device_counts:
        engine, _stats, emitted = _pipelined_run(
            db_size,
            n_devices,
            window_per_device,
            cluster_pages,
            issue_depth=2,
            batch_pages=batch_pages,
        )
        emitted_ok = emitted_ok and emitted == db_size
        e1.add_point("pipelined elapsed (ms)", n_devices, engine.elapsed)
        e1.add_point(
            "synchronous sum of device service (ms)",
            n_devices,
            engine.busy_time(),
        )
        elapsed_by_devices.append(engine.elapsed)
        if n_devices == max(device_counts):
            utilizations_at_max = engine.utilizations()
    e1.check("every run assembles the full database", emitted_ok)
    e1.check(
        "elapsed time falls monotonically with devices",
        monotone_decreasing(elapsed_by_devices),
    )
    speedup = (
        elapsed_by_devices[0] / elapsed_by_devices[-1]
        if elapsed_by_devices[-1] > 0
        else float("inf")
    )
    e1.check(
        f"max devices beat one device by >1.5x (measured {speedup:.2f}x)",
        speedup > 1.5,
    )
    single = e1.series["pipelined elapsed (ms)"][0][1]
    single_sum = e1.series["synchronous sum of device service (ms)"][0][1]
    e1.check(
        "one device cannot overlap: elapsed equals summed service",
        single == single_sum,
    )

    # -- E-2: elapsed time vs issue-ahead depth ----------------------------
    n_devices = max(device_counts)
    e2 = FigureResult(
        figure_id="Figure E-2",
        title=(
            f"elapsed time vs issue depth, {n_devices} devices, "
            f"{cpu_ms_per_ref} ms CPU per reference"
        ),
        x_label="issue-ahead depth (requests per device)",
        y_label="elapsed milliseconds (event clock)",
    )
    elapsed_by_depth: List[float] = []
    for depth in issue_depths:
        engine, _stats, emitted = _pipelined_run(
            db_size,
            n_devices,
            window_per_device,
            cluster_pages,
            issue_depth=depth,
            batch_pages=batch_pages,
            cpu_ms_per_ref=cpu_ms_per_ref,
        )
        e2.add_point("pipelined elapsed (ms)", depth, engine.elapsed)
        elapsed_by_depth.append(engine.elapsed)
        if emitted != db_size:
            e2.check(f"depth {depth} assembles the full database", False)
    e2.check(
        "issue depth 2 hides CPU that depth 1 exposes",
        elapsed_by_depth[1] < elapsed_by_depth[0],
    )
    e2.check(
        "deeper issue-ahead never regresses past 5%",
        monotone_decreasing(elapsed_by_depth, slack=0.05),
    )

    # -- E-3: device utilization + the engine's ground-truth anchor --------
    e3 = FigureResult(
        figure_id="Figure E-3",
        title=f"device utilization at {n_devices} devices (E-1 run)",
        x_label="device",
        y_label="busy fraction of elapsed time",
    )
    for device, utilization in enumerate(utilizations_at_max):
        e3.add_point("utilization", device, utilization)
    e3.check(
        "no device exceeds full utilization",
        all(u <= 1.0 + 1e-9 for u in utilizations_at_max),
    )
    e3.check(
        "declustering keeps every device at least 40% busy",
        all(u >= 0.40 for u in utilizations_at_max),
    )
    sync_disk, sync_emitted = _synchronous_run(
        db_size, window_per_device, cluster_pages
    )
    engine, piped_disk, piped_emitted = _costed_pipelined_run(
        db_size, window_per_device, cluster_pages
    )
    e3.check(
        "single device at depth 1 reproduces the synchronous service "
        "time bit-for-bit",
        engine.elapsed == sync_disk.service_time_total
        and piped_disk.service_time_total == sync_disk.service_time_total
        and piped_emitted == sync_emitted == db_size,
    )
    e3.notes.append(
        f"synchronous service time {sync_disk.service_time_total:.3f} ms; "
        f"event-driven elapsed {engine.elapsed:.3f} ms (exact match "
        f"required)"
    )
    return [e1, e2, e3]
