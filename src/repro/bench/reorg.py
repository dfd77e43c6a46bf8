"""Online reorganization benchmarks: figures G-1..G-3.

The paper's three clusterings are *static*: chosen at load time, frozen
forever.  Darmont et al. argue that once the access pattern drifts, a
simple statistics-driven online reorganization beats any frozen layout.
These drivers stage exactly that drift — a Zipfian hot set of roots
that shifts to a disjoint hot set mid-run — and race the online
reorganizer (:mod:`repro.cluster.reorg`, over an unclustered load)
against all three static clusterings on identical request schedules.

Costs are priced on the cost-model clock by a
:class:`~repro.cluster.reorg.DeviceIdleTracker` attached to every run
(for static runs it is a passive observer), so serving I/O time and
migration I/O time are separable and the comparison is honest: the
headline check charges the reorganized run for its migration I/O *on
top of* its serving I/O and still demands a ≥ 15% win over the best
static layout.

* **G-1** — per-phase serving I/O time, all four layouts; the ≥ 15%
  total-cost reduction check lives here.
* **G-2** — reorganizer activity per phase (migrations, migration I/O
  time) with the idle-window no-overlap and adaptivity checks.
* **G-3** — the safety anchor: a reorg-off service (explicit
  ``reorg_policy=None``) against a service built without the kwarg,
  bit-identical per phase, plus byte-equality of every object the
  reorganized run assembles.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentConfig, build_layout
from repro.bench.report import FigureResult
from repro.cluster.reorg import DeviceIdleTracker, ReorgPolicy
from repro.errors import ReproError
from repro.service.server import AssemblyService
from repro.storage.oid import Oid
from repro.workloads.acob import make_template

#: Request schedule: ``schedule[phase][batch]`` is a list of root OIDs.
Schedule = List[List[List[Oid]]]


def _zipf_weights(n: int, alpha: float = 1.2) -> List[float]:
    """Zipfian popularity over ``n`` ranked items."""
    return [1.0 / (rank + 1) ** alpha for rank in range(n)]


def _make_schedule(
    roots: Sequence[Oid],
    phases: int,
    shift_phase: int,
    n_groups: int,
    group_size: int,
    queries_per_phase: int,
    seed: int,
) -> Schedule:
    """Recurring-query schedule whose hot query set shifts mid-run.

    The workload is ``2 * n_groups`` *recurring queries*, each a fixed
    set of ``group_size`` roots cut from a seeded permutation of the
    database (so each query's roots are scattered across the layout —
    an index result, not a scan).  Every phase draws
    ``queries_per_phase`` queries Zipf-distributed over the active
    half: the first half before ``shift_phase``, the disjoint second
    half after — the drift a static layout cannot follow.  Recurrence
    is the point: objects a query touches together recur together,
    which is co-access structure only an *online* clusterer can learn.
    The schedule is computed once and replayed identically against
    every layout under test.
    """
    rng = random.Random(seed)
    perm = list(roots)
    rng.shuffle(perm)
    if len(perm) < 2 * n_groups * group_size:
        raise ReproError("database too small for two disjoint query sets")
    groups = [
        perm[i * group_size : (i + 1) * group_size]
        for i in range(2 * n_groups)
    ]
    weights = _zipf_weights(n_groups)
    schedule: Schedule = []
    for phase in range(phases):
        offset = 0 if phase < shift_phase else n_groups
        active = groups[offset : offset + n_groups]
        schedule.append(
            [
                list(rng.choices(active, weights=weights, k=1)[0])
                for _query in range(queries_per_phase)
            ]
        )
    return schedule


def _content_key(cobj) -> Tuple:
    """Byte-level identity of one assembled complex object.

    Everything the client can observe of the object's *content*: every
    reachable object's OID, integer state and raw reference OIDs, in
    traversal order.  Physical placement is deliberately absent —
    migrations change placement and nothing else.
    """
    return tuple(
        (obj.oid, obj.ints, obj.ref_oids, tuple(sorted(obj.children)))
        for obj in cobj.root.walk()
    )


class _ModeRun:
    """Per-phase costs of one layout mode over the shared schedule."""

    def __init__(self) -> None:
        self.serving_ms: List[float] = []
        self.migration_ms: List[float] = []
        self.migrations: List[int] = []
        self.avg_seek: List[float] = []
        self.service: Optional[AssemblyService] = None
        self.tracker: Optional[DeviceIdleTracker] = None
        self.content: Dict[Oid, Tuple] = {}

    def total_serving_ms(self) -> float:
        return sum(self.serving_ms)

    def total_migration_ms(self) -> float:
        return sum(self.migration_ms)

    def total_cost_ms(self) -> float:
        """Serving plus migration: what the run really paid."""
        return self.total_serving_ms() + self.total_migration_ms()


def _run_mode(
    config: ExperimentConfig,
    schedule: Schedule,
    window: int,
    reorg_policy: Optional[ReorgPolicy] = None,
    pass_kwarg: bool = True,
) -> _ModeRun:
    """Replay ``schedule`` against one layout; price every phase.

    ``pass_kwarg=False`` builds the service without mentioning
    ``reorg_policy`` at all — the G-3 anchor distinguishing "feature
    absent" from "feature off".
    """
    database, layout = build_layout(config)
    template = make_template(database)
    store = layout.store
    kwargs: Dict[str, object] = {"cache_capacity": 0}
    if pass_kwarg:
        kwargs["reorg_policy"] = reorg_policy
    service = AssemblyService(store, **kwargs)
    reorg = service.server.reorg
    if reorg is not None:
        reorg.bind_layout(layout)
        tracker = reorg.tracker
    else:
        tracker = DeviceIdleTracker(store.disk)

    run = _ModeRun()
    run.service = service
    run.tracker = tracker
    device = 0  # single-spindle benchmark disk
    for phase in schedule:
        busy_mark = len(tracker.busy_intervals[device])
        mig_mark = len(tracker.migration_intervals[device])
        migrations_before = service.metrics.reorg_migrations
        seek_before = store.disk.stats.read_seek_total
        reads_before = store.disk.stats.pages_read
        for batch in phase:
            request_id = service.submit(
                list(batch), template, window_size=window
            )
            emitted = service.result(request_id)
            assert len(emitted) == len(batch)
            for cobj in emitted:
                run.content[cobj.root.oid] = _content_key(cobj)
            service.run()  # drained: the reorganizer's idle window
        run.serving_ms.append(
            sum(
                end - start
                for start, end in tracker.busy_intervals[device][busy_mark:]
            )
        )
        run.migration_ms.append(
            sum(
                end - start
                for start, end in (
                    tracker.migration_intervals[device][mig_mark:]
                )
            )
        )
        run.migrations.append(
            service.metrics.reorg_migrations - migrations_before
        )
        reads = store.disk.stats.pages_read - reads_before
        seek = store.disk.stats.read_seek_total - seek_before
        run.avg_seek.append(seek / max(reads, 1))
    return run


def figure_reorg(
    db_size: int = 150,
    phases: int = 6,
    shift_phase: int = 3,
    n_groups: int = 6,
    group_size: int = 10,
    queries_per_phase: int = 16,
    window: int = 2,
    buffer_capacity: int = 16,
    schedule_seed: int = 23,
) -> List[FigureResult]:
    """The online-reorganization suite: figures G-1..G-3.

    Six recurring queries (ten scattered roots each) dominate each half
    of the run, Zipf-weighted; each query's footprint (ten pages even
    under the best static clustering) does not fit the 16-page buffer
    together with another query's, so layouts keep faulting and the
    race is about *seek locality*.  Static clusterings can co-locate
    the members of one complex object, but never the ten unrelated
    complex objects a recurring query assembles together — the
    reorganizer learns exactly that from the trace and packs each hot
    query's objects onto contiguous fresh extents.
    """
    policy = ReorgPolicy(
        decay=0.5,
        min_weight=1.0,
        min_observations=64,
        max_migrations_per_round=128,
        affinity_window=80,
    )

    def config_for(clustering: str) -> ExperimentConfig:
        return ExperimentConfig(
            n_complex_objects=db_size,
            clustering=clustering,
            scheduler="elevator",
            window_size=window,
            buffer_capacity=buffer_capacity,
        )

    # The schedule only needs the root set, identical across layouts.
    _database, seed_layout = build_layout(config_for("unclustered"))
    schedule = _make_schedule(
        seed_layout.root_order,
        phases=phases,
        shift_phase=shift_phase,
        n_groups=n_groups,
        group_size=group_size,
        queries_per_phase=queries_per_phase,
        seed=schedule_seed,
    )

    static_runs: Dict[str, _ModeRun] = {
        clustering: _run_mode(config_for(clustering), schedule, window)
        for clustering in ("unclustered", "inter-object", "intra-object")
    }
    # The reorganizer starts from the best static layout and improves
    # it online: intra-object clustering already co-locates each complex
    # object's members, so migrations only pay ~one read per *page* of
    # a hot query's footprint, and what reorg adds is exactly what no
    # static policy can — packing the ten unrelated objects a recurring
    # query touches together onto fewer, contiguous pages.
    reorg_run = _run_mode(
        config_for("intra-object"), schedule, window, reorg_policy=policy
    )

    cost = FigureResult(
        figure_id="Figure G-1",
        title="shifting Zipf hot set: static clusterings vs online reorg",
        x_label="workload phase (hot set shifts after phase "
        f"{shift_phase})",
        y_label="serving I/O time per phase (cost-model ms)",
    )
    for clustering, run in static_runs.items():
        for phase, ms in enumerate(run.serving_ms, start=1):
            cost.add_point(clustering, phase, round(ms, 3))
    for phase, ms in enumerate(reorg_run.serving_ms, start=1):
        cost.add_point("intra-object + reorg", phase, round(ms, 3))
    best_static = min(
        static_runs.values(), key=lambda run: run.total_serving_ms()
    )
    best_name = next(
        name
        for name, run in static_runs.items()
        if run is best_static
    )
    reduction = 1.0 - reorg_run.total_cost_ms() / best_static.total_serving_ms()
    cost.notes.append(
        f"best static: {best_name} at "
        f"{best_static.total_serving_ms():.1f} ms total; reorg pays "
        f"{reorg_run.total_serving_ms():.1f} ms serving + "
        f"{reorg_run.total_migration_ms():.1f} ms migration "
        f"({reduction:.1%} total-cost reduction)"
    )
    cost.check(
        "reorg (serving + migration) beats best static serving by >= 15%",
        reorg_run.total_cost_ms() <= 0.85 * best_static.total_serving_ms(),
    )
    post_shift = range(shift_phase, phases)
    settled = range(shift_phase + 1, phases)
    cost.notes.append(
        "phase {0} pays the re-clustering bill for the shifted hot set "
        "({1:.1f} ms migration); every later phase runs on the new "
        "layout".format(
            shift_phase + 1, reorg_run.migration_ms[shift_phase]
        )
    )
    cost.check(
        "reorg recovers within one phase of the shift "
        "(beats best static in every later phase, migration included)",
        all(
            reorg_run.serving_ms[p] + reorg_run.migration_ms[p]
            < best_static.serving_ms[p]
            for p in settled
        ),
    )

    activity = FigureResult(
        figure_id="Figure G-2",
        title="reorganizer activity under the hot-set shift",
        x_label="workload phase",
        y_label="objects migrated / migration I/O (cost-model ms)",
    )
    for phase in range(phases):
        activity.add_point(
            "objects migrated", phase + 1, reorg_run.migrations[phase]
        )
        activity.add_point(
            "migration I/O ms",
            phase + 1,
            round(reorg_run.migration_ms[phase], 3),
        )
    assert reorg_run.tracker is not None
    overlaps = reorg_run.tracker.overlaps()
    activity.check(
        "no migration I/O overlaps serving I/O on the device timeline",
        not overlaps,
    )
    activity.check(
        "reorganizer migrated objects at all (non-vacuous run)",
        sum(reorg_run.migrations) > 0,
    )
    activity.check(
        "reorganizer adapts: new hot set re-clustered after the shift",
        sum(reorg_run.migrations[p] for p in post_shift) > 0,
    )
    snapshot = reorg_run.service.metrics.snapshot()
    activity.notes.append(
        f"{snapshot['reorg_rounds']} rounds, "
        f"{snapshot['reorg_migrations']} migrations, "
        f"{snapshot['reorg_pages_written']} pages written, "
        f"priced {snapshot['reorg_io_ms']:.1f} ms"
    )

    anchor = FigureResult(
        figure_id="Figure G-3",
        title="safety anchor: reorg off is the service we always had",
        x_label="workload phase",
        y_label="average seek distance per read (pages)",
    )
    off_run = _run_mode(
        config_for("intra-object"),
        schedule,
        window,
        reorg_policy=None,
        pass_kwarg=True,
    )
    plain_run = _run_mode(
        config_for("intra-object"), schedule, window, pass_kwarg=False
    )
    for phase in range(phases):
        anchor.add_point(
            "reorg_policy=None", phase + 1, round(off_run.avg_seek[phase], 3)
        )
        anchor.add_point(
            "no reorg kwarg", phase + 1, round(plain_run.avg_seek[phase], 3)
        )
    off_stats = off_run.service.store.disk.stats
    plain_stats = plain_run.service.store.disk.stats
    anchor.check(
        "reorg-off run bit-identical to a pre-feature service",
        off_stats == plain_stats
        and off_run.service.metrics.snapshot()
        == plain_run.service.metrics.snapshot(),
    )
    anchor.check(
        "every reorganized assembly byte-equal to the static run's",
        reorg_run.content == plain_run.content,
    )
    return [cost, activity, anchor]
