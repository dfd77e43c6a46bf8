"""Experiment harness: one assembly run, fully parameterized.

Every figure of Section 6 is a sweep over the same five benchmark
parameters the paper names: "clustering, scheduling algorithm, window
size, buffer size and database size" — plus sharing degree (Section
6.4) and predicate selectivity (Section 6.5).  :func:`run_experiment`
executes one parameter point and returns every metric the figures (and
tests) need.

Database generation is cached per parameter set: object *definitions*
are immutable inputs, and each run lays them out on a fresh simulated
disk so no state leaks between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.layout import (
    LayoutResult,
    LayoutSnapshot,
    layout_database,
    restore_layout,
    snapshot_layout,
)
from repro.cluster.policies import (
    ClusteringPolicy,
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.core.assembly import Assembly
from repro.errors import ReproError
from repro.iterator import ListSource
from repro.obs.export import write_chrome_trace
from repro.obs.spans import SpanRecorder
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import (
    ACOBDatabase,
    generate_acob,
    make_template,
    payload_predicate,
)

#: Clustering names accepted by :class:`ExperimentConfig`.
CLUSTERINGS = ("inter-object", "intra-object", "unclustered")


@dataclass(frozen=True)
class ExperimentConfig:
    """One point in the Section 6 parameter space."""

    n_complex_objects: int = 1000
    clustering: str = "inter-object"
    scheduler: str = "elevator"
    window_size: int = 1
    buffer_capacity: Optional[int] = None
    sharing: float = 0.0
    #: predicate pass rate; ``None`` disables selective assembly.
    selectivity: Optional[float] = None
    #: tree position carrying the predicate (level-1 node by default,
    #: so failing objects abort after two fetches).
    predicate_position: int = 1
    use_sharing_statistics: bool = True
    cluster_pages: int = 512
    seed: int = 7
    layout_seed: int = 0
    #: distinct pages per scheduler batch; 1 = the paper's unbatched loop.
    batch_pages: int = 1

    def __post_init__(self) -> None:
        if self.clustering not in CLUSTERINGS:
            raise ReproError(
                f"clustering must be one of {CLUSTERINGS}, "
                f"got {self.clustering!r}"
            )


@dataclass
class ExperimentResult:
    """Metrics of one run; ``avg_seek`` is the paper's y-axis."""

    config: ExperimentConfig
    avg_seek: float
    reads: int
    #: pages transferred (== reads unless runs were batched).
    pages_read: int
    emitted: int
    aborted: int
    fetches: int
    shared_links: int
    buffer_hits: int
    buffer_faults: int
    re_reads: int
    peak_pinned_pages: int
    scheduler_ops: int
    pages_spanned: int


_DB_CACHE: Dict[Tuple[int, float, int], ACOBDatabase] = {}


def get_database(
    n_complex_objects: int, sharing: float = 0.0, seed: int = 7
) -> ACOBDatabase:
    """Cached benchmark database (generation is deterministic)."""
    key = (n_complex_objects, sharing, seed)
    if key not in _DB_CACHE:
        _DB_CACHE[key] = generate_acob(
            n_complex_objects, sharing=sharing, seed=seed
        )
    return _DB_CACHE[key]


def clear_database_cache() -> None:
    """Drop cached databases and layouts (tests use this to bound memory)."""
    _DB_CACHE.clear()
    _LAYOUT_SNAPSHOTS.clear()


#: Layouts are deterministic functions of a config's layout fields and
#: the disk's geometry; the snapshot cache is keyed by them and bounded
#: to the most recent few entries (page images dominate: ~1 KB per page).
_LAYOUT_SNAPSHOTS: Dict[Tuple, LayoutSnapshot] = {}
_LAYOUT_CACHE_LIMIT = 8


def make_policy(config: ExperimentConfig, database: ACOBDatabase) -> ClusteringPolicy:
    """Instantiate the clustering policy a config names.

    Inter-object clustering gets the depth-first-friendly cluster disk
    order — the Figure 12 layout whose mismatch with breadth-first
    fetch order produces the Figure 11A artifact.
    """
    if config.clustering == "inter-object":
        return InterObjectClustering(
            cluster_pages=config.cluster_pages,
            disk_order=database.type_ids_depth_first(),
        )
    if config.clustering == "intra-object":
        return IntraObjectClustering()
    return Unclustered()


def build_layout(
    config: ExperimentConfig, disk: Optional[SimulatedDisk] = None
) -> Tuple[ACOBDatabase, LayoutResult]:
    """Generate (cached) and lay out the configured database on ``disk``.

    ``disk`` must be freshly constructed; the default is an unbounded
    single :class:`SimulatedDisk`.  A striped or costed disk lays out
    through the same code; only layouts that differ in policy or seed
    (the Volcano family's) are built elsewhere.

    Layouts are deterministic, so the post-layout disk image is cached
    per parameter point (snapshot/restore): the first build runs the
    placement policy and writes every page; later builds of the same
    point restore the page images onto the fresh disk/buffer/store.  The
    restored state is bit-identical to a rebuild — sweeps that revisit
    a layout (e.g. a window-size sweep at one clustering) skip the
    whole load phase.  The disk's geometry is part of the key because
    placement goes through ``disk.allocate``: a multi-device disk
    stripes extents round-robin, so the page images differ per device
    count.
    """
    database = get_database(
        config.n_complex_objects, sharing=config.sharing, seed=config.seed
    )
    if disk is None:
        disk = SimulatedDisk()
    store = ObjectStore(
        disk, BufferManager(disk, capacity=config.buffer_capacity)
    )
    key = (
        config.n_complex_objects,
        config.sharing,
        config.seed,
        config.clustering,
        config.cluster_pages,
        config.layout_seed,
        disk.n_devices,
        disk.pages_per_device,
    )
    snapshot = _LAYOUT_SNAPSHOTS.get(key)
    if snapshot is not None:
        return database, restore_layout(snapshot, store)
    layout = layout_database(
        database.complex_objects,
        store,
        make_policy(config, database),
        shared=database.shared_pool,
        seed=config.layout_seed,
        validate=False,  # generators validate once; layouts are hot paths
    )
    _LAYOUT_SNAPSHOTS[key] = snapshot_layout(layout)
    while len(_LAYOUT_SNAPSHOTS) > _LAYOUT_CACHE_LIMIT:
        _LAYOUT_SNAPSHOTS.pop(next(iter(_LAYOUT_SNAPSHOTS)))
    return database, layout


def build_assembly(
    config: ExperimentConfig,
    database: ACOBDatabase,
    layout: LayoutResult,
    spans: Optional[SpanRecorder] = None,
) -> Assembly:
    """Construct the assembly operator for one run.

    ``spans`` optionally attaches a
    :class:`~repro.obs.spans.SpanRecorder` to the operator; tracing is
    strictly observational and never changes results or disk metrics.
    """
    predicate = None
    predicate_position = None
    if config.selectivity is not None:
        predicate = payload_predicate(config.selectivity)
        predicate_position = config.predicate_position
    template = make_template(
        database,
        sharing=config.sharing,
        predicate_position=predicate_position,
        predicate=predicate,
    )
    kwargs: Dict[str, object] = {}
    if spans is not None:
        kwargs["spans"] = spans
    return Assembly(
        ListSource(layout.root_order),
        layout.store,
        template,
        window_size=config.window_size,
        scheduler=config.scheduler,
        use_sharing_statistics=config.use_sharing_statistics,
        batch_pages=config.batch_pages,
        **kwargs,
    )


def run_experiment(
    config: ExperimentConfig, spans: Optional[SpanRecorder] = None
) -> ExperimentResult:
    """Execute one parameter point and collect all metrics.

    When a ``spans`` recorder is given, its clock is bound to the run's
    disk page counter — a deterministic simulated-time axis — and the
    operator emits assembly/window-slot/fetch/batch spans into it.  The
    returned metrics are bit-identical with or without the recorder.
    """
    database, layout = build_layout(config)
    if spans is not None:
        disk_stats = layout.store.disk.stats
        spans.bind_clock(lambda: float(disk_stats.pages_read))
    operator = build_assembly(config, database, layout, spans=spans)
    emitted = sum(1 for _ in operator.rows())
    store = layout.store
    disk_stats = store.disk.stats
    buffer_stats = store.buffer.stats
    return ExperimentResult(
        config=config,
        avg_seek=disk_stats.avg_seek_per_read,
        reads=disk_stats.reads,
        pages_read=disk_stats.pages_read,
        emitted=emitted,
        aborted=operator.stats.aborted,
        fetches=operator.stats.fetches,
        shared_links=operator.stats.shared_links,
        buffer_hits=buffer_stats.hits,
        buffer_faults=buffer_stats.faults,
        re_reads=buffer_stats.re_reads,
        peak_pinned_pages=operator.stats.peak_pinned_pages,
        scheduler_ops=operator.stats.scheduler_ops,
        pages_spanned=layout.pages_spanned(),
    )


def trace_experiment(
    config: ExperimentConfig, path: str
) -> Tuple[ExperimentResult, str]:
    """Run one instrumented experiment and write its span trace to
    ``path`` as Chrome ``trace_event`` JSON (``chrome://tracing`` /
    Perfetto).

    Returns ``(result, written_path)``; the experiment result itself is
    unaffected by tracing.
    """
    spans = SpanRecorder()
    result = run_experiment(config, spans=spans)
    return result, str(write_chrome_trace(spans.spans, path))
