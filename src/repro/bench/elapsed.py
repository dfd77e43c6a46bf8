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

from typing import List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentConfig, build_assembly, build_layout
from repro.bench.report import FigureResult, monotone_decreasing
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.storage.costmodel import CostedDisk, CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.multidisk import MultiDeviceDisk
from repro.iterator import ListSource
from repro.workloads.acob import make_template

#: Device counts swept by E-1 (1 = the synchronous baseline geometry).
DEVICE_COUNTS = (1, 2, 4)
#: Issue-ahead depths swept by E-2.
ISSUE_DEPTHS = (1, 2, 4)
#: Per-reference CPU cost (ms) that E-2 overlaps with in-flight reads.
CPU_MS_PER_REF = 0.2


def pipelined_run(
    db_size: int,
    n_devices: int,
    window_per_device: int,
    cluster_pages: int,
    issue_depth: int,
    batch_pages: int,
    cpu_ms_per_ref: float = 0.0,
    faults: Optional[FaultConfig] = None,
) -> Tuple[AsyncIOEngine, PipelinedAssembly, Assembly, int]:
    """One pipelined assembly over a declustered ACOB layout.

    With ``faults``, an injector is attached after the layout (faults
    model the serving disk, not the bulk load that builds the
    database) and the operator and driver retry up to three times.
    Returns the engine, the driver, the operator and the emitted count.
    """
    disk = MultiDeviceDisk(
        n_devices=n_devices,
        pages_per_device=(7 * cluster_pages) // n_devices + cluster_pages + 88,
    )
    db, layout = build_layout(
        ExperimentConfig(
            n_complex_objects=db_size, seed=2, cluster_pages=cluster_pages
        ),
        disk,
    )
    injector = retry = None
    if faults is not None:
        injector = FaultInjector(faults).attach(disk)
        retry = RetryPolicy(max_retries=3)
    operator = Assembly(
        ListSource(layout.root_order),
        layout.store,
        make_template(db),
        window_size=window_per_device * n_devices,
        scheduler=MultiDeviceScheduler(disk),
        retry_policy=retry,
    )
    engine = AsyncIOEngine(disk, CostModel())
    pipeline = PipelinedAssembly(
        operator,
        engine,
        issue_depth=issue_depth,
        batch_pages=batch_pages,
        cpu_ms_per_ref=cpu_ms_per_ref,
        retry_policy=retry,
    )
    emitted = pipeline.run()
    assert injector is None or injector.stats.reads_seen > 0
    return engine, pipeline, operator, len(emitted)


def _costed_run(
    db_size: int, window: int, cluster_pages: int, pipelined: bool
) -> Tuple[Optional[AsyncIOEngine], CostedDisk, int]:
    """A costed elevator run on one spindle: the synchronous loop, or
    the same layout driven by the engine at depth 1 / batch 1."""
    disk = CostedDisk(n_pages=7 * cluster_pages + cluster_pages + 88)
    config = ExperimentConfig(
        n_complex_objects=db_size,
        seed=2,
        cluster_pages=cluster_pages,
        window_size=window,
    )
    db, layout = build_layout(config, disk)
    operator = build_assembly(config, db, layout)
    if not pipelined:
        return None, disk, len(operator.execute())
    engine = AsyncIOEngine(disk, disk.cost_model)
    pipeline = PipelinedAssembly(
        operator, engine, issue_depth=1, batch_pages=1
    )
    return engine, disk, len(pipeline.run())


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
        engine, _pipeline, _operator, emitted = pipelined_run(
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
        engine, _pipeline, _operator, emitted = pipelined_run(
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
    _, sync_disk, sync_emitted = _costed_run(
        db_size, window_per_device, cluster_pages, pipelined=False
    )
    engine, piped_disk, piped_emitted = _costed_run(
        db_size, window_per_device, cluster_pages, pipelined=True
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
