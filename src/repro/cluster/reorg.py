"""Online adaptive re-clustering from observed access traces.

The paper fixes three *static* clusterings and lets the assembly
window/scheduler machinery compensate for bad placement.  Darmont et
al. (PAPERS.md: "Dynamic Clustering in OODBs: An Advocacy for
Simplicity") argue the opposite side of the trade: once the access
pattern drifts, a simple statistics-driven *online* reorganization
beats any frozen layout.  This module is that reorganizer, built from
ingredients earlier PRs landed:

* :class:`AffinitySketch` — a decayed pairwise co-access sketch fed
  from the device server's reference-resolution stream.  Objects
  resolved for the same client request accrue affinity — including
  members of *different* complex objects a recurring query touches
  together, which no structural clustering can see; per-round decay
  forgets yesterday's hot set.
* :class:`ReorgPlanner` — greedy agglomeration of hot co-accessed
  objects into page-sized clusters (Darmont's advocacy for simplicity:
  no graph partitioning, just sorted edges).
* :class:`DeviceIdleTracker` — a view over a
  :class:`~repro.storage.costmodel.DeviceLedger` that retains every
  priced read as a per-device interval, serving and migration alike,
  so migration I/O can be placed — and *proven*, interval against
  interval — inside idle windows.
* :class:`Reorganizer` — prices each migration batch through
  :class:`~repro.storage.costmodel.CostModel`, executes it through
  :meth:`~repro.storage.store.ObjectStore.migrate` (buffer-coherent,
  target-insert-before-source-delete), and records the new extents on
  the bound :class:`~repro.cluster.layout.LayoutResult`.

Safety contract (property-tested in ``tests/cluster``): with no policy
attached nothing here runs and the service is bit-identical to before;
with a policy attached every assembled object is byte-equal to the
unreorganized run — migrations move bytes, never change them.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.errors import ServiceStateError, TransientReadError
from repro.storage.costmodel import MIGRATION, SERVING, DeviceLedger
from repro.storage.disk import Extent
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore

# The sketch keys objects and edges by integers.  An OID's code is
# ``(type_id << 64) | serial`` — the big-endian ``>HQ`` of
# ``Oid.encode`` read as one number, so codes order exactly as OIDs do —
# and an edge's code is ``(low << 80) | high``, which orders as the
# ``(low, high)`` OID pair, so the hot-edge sort breaks ties on plain
# integers.
_M64 = (1 << 64) - 1
_M80 = (1 << 80) - 1


@dataclass(frozen=True)
class ReorgPolicy:
    """Knobs of the background reorganizer (all deterministic).

    The defaults are sized for service workloads of hundreds of
    objects per round; tests shrink ``min_observations`` /
    ``min_weight`` to force migrations at toy scale.
    """

    #: multiplicative affinity decay applied once per reorg round.
    decay: float = 0.5
    #: edges lighter than this never seed or grow a cluster.
    min_weight: float = 2.0
    #: objects moved per round at most (migration I/O budget).
    max_migrations_per_round: int = 128
    #: reference resolutions observed before the first round may run.
    min_observations: int = 64
    #: live co-access groups tracked (older groups fall off an LRU).
    group_capacity: int = 512
    #: co-access horizon within one group: a reference pairs with at
    #: most this many preceding references of the same context, so one
    #: giant query costs O(window) per observation, not O(query).
    affinity_window: int = 64
    #: decayed edge weights below this are pruned (bounded memory).
    prune_epsilon: float = 0.05
    #: transient read faults absorbed per migrated page before the
    #: round aborts (maintenance I/O retries for itself; client retry
    #: budgets belong to client requests).
    migration_retries: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.decay <= 1.0:
            raise ServiceStateError("decay must be in (0, 1]")
        if self.min_weight <= 0:
            raise ServiceStateError("min_weight must be positive")
        if self.max_migrations_per_round <= 0:
            raise ServiceStateError(
                "max_migrations_per_round must be positive"
            )
        if self.min_observations < 0:
            raise ServiceStateError("min_observations must be non-negative")
        if self.prune_epsilon <= 0:
            raise ServiceStateError("prune_epsilon must be positive")
        if self.group_capacity <= 0:
            raise ServiceStateError("group_capacity must be positive")
        if self.affinity_window < 2:
            raise ServiceStateError("affinity_window must be at least 2")
        if self.migration_retries < 0:
            raise ServiceStateError(
                "migration_retries must be non-negative"
            )


class AffinitySketch:
    """Decayed pairwise co-access statistics over observed references.

    ``observe(group_key, oid)`` is called once per reference the device
    server resolves; the group key identifies one co-access *context* —
    the client request the reference was fetched for — so objects
    repeatedly touched by the same recurring query gain affinity even
    when they belong to different complex objects, which is precisely
    what no structural (static) clustering can see.  Within a context,
    a reference pairs with at most the last ``affinity_window``
    references, bounding one observation at O(window).  Per-round
    :meth:`decay` ages every weight (by ``policy.decay``) and prunes
    the dust, so the sketch tracks the *current* hot set in bounded
    memory.  All iteration orders are insertion orders and all
    tie-breaks are OID-lexicographic — the sketch is deterministic.
    """

    def __init__(self, policy: ReorgPolicy) -> None:
        self._policy = policy
        #: edge code -> decayed weight (codes: see the module's note).
        self._weights: Dict[int, float] = {}
        #: context -> OID codes of its last ``affinity_window`` references.
        self._groups: "OrderedDict[Hashable, List[int]]" = OrderedDict()
        #: references observed since construction (never decayed).
        self.observations = 0

    def __len__(self) -> int:
        return len(self._weights)

    def observe(self, group_key: Hashable, oid: Oid) -> None:
        """Record that ``oid`` was resolved for the group's object."""
        self.observations += 1
        group = self._groups.get(group_key)
        if group is None:
            while len(self._groups) >= self._policy.group_capacity:
                self._groups.popitem(last=False)
            group = []
            self._groups[group_key] = group
        else:
            self._groups.move_to_end(group_key)
        # The group holds at most ``affinity_window`` codes (trimmed
        # below), so it is the recent window itself: no copy.
        code = (oid.type_id << 64) | oid.serial
        if code in group:
            return
        weights = self._weights
        shifted = code << 80
        for other in group:
            key = (other << 80) | code if other < code else shifted | other
            weights[key] = weights.get(key, 0.0) + 1.0
        group.append(code)
        if len(group) > self._policy.affinity_window:
            del group[0]

    def decay(self) -> None:
        """Age every edge weight by one round; prune negligible ones."""
        factor = self._policy.decay
        epsilon = self._policy.prune_epsilon
        self._weights = {
            key: aged
            for key, weight in self._weights.items()
            if (aged := weight * factor) >= epsilon
        }

    def hot_codes(self) -> List[Tuple[int, float]]:
        """``(edge code, weight)`` at or above ``min_weight``, heaviest
        first, ties by code — that is, by the ``(low, high)`` OID pair,
        so two sketches fed the same stream plan the same migrations.

        Two stable sorts on C-level keys (code, then weight descending)
        give the ``(-weight, pair)`` order without a key per edge.
        """
        threshold = self._policy.min_weight
        edges = [
            (code, weight)
            for code, weight in self._weights.items()
            if weight >= threshold
        ]
        edges.sort(key=itemgetter(0))
        edges.sort(key=itemgetter(1), reverse=True)
        return edges


class ReorgPlanner:
    """Greedy clustering of hot co-accessed objects into page groups.

    Sorted-edge agglomeration (heaviest affinity first): an edge joins
    its endpoints into one cluster when the merged cluster still fits
    one page.  Clusters whose members already share a single physical
    page are dropped — migrating them buys nothing — and the rest are
    ordered by total affinity so the migration budget goes to the
    hottest structures first.
    """

    def __init__(self, policy: ReorgPolicy) -> None:
        self._policy = policy

    def plan(
        self,
        sketch: AffinitySketch,
        page_of: Callable[[Oid], int],
        objects_per_page: int,
    ) -> List[List[Oid]]:
        """Page-sized clusters worth migrating, hottest first."""
        cluster_of: Dict[int, int] = {}
        members: Dict[int, List[int]] = {}
        weight_of: Dict[int, float] = {}
        next_id = 0
        for code, weight in sketch.hot_codes():
            a = code >> 80
            b = code & _M80
            ca = cluster_of.get(a)
            cb = cluster_of.get(b)
            if ca is None and cb is None:
                if objects_per_page < 2:
                    continue
                cluster_of[a] = cluster_of[b] = next_id
                members[next_id] = [a, b]
                weight_of[next_id] = weight
                next_id += 1
            elif ca is None or cb is None:
                target, newcomer = (cb, a) if ca is None else (ca, b)
                if len(members[target]) < objects_per_page:
                    cluster_of[newcomer] = target
                    members[target].append(newcomer)
                    weight_of[target] += weight
            elif ca != cb:
                low, high = (ca, cb) if ca < cb else (cb, ca)
                if len(members[low]) + len(members[high]) <= objects_per_page:
                    for member in members[high]:
                        cluster_of[member] = low
                    members[low].extend(members.pop(high))
                    weight_of[low] += weight_of.pop(high) + weight
            else:
                weight_of[ca] += weight

        planned: List[Tuple[float, int, List[Oid]]] = []
        budget = self._policy.max_migrations_per_round
        for cluster_id, codes in members.items():
            if len(codes) < 2 or len(codes) > budget:
                continue
            oids = [Oid(code >> 64, code & _M64) for code in sorted(codes)]
            if len({page_of(oid) for oid in oids}) <= 1:
                continue  # already co-located: nothing to gain
            planned.append((-weight_of[cluster_id], cluster_id, oids))
        planned.sort()

        clusters: List[List[Oid]] = []
        migrations = 0
        for _neg_weight, _cluster_id, oids in planned:
            if migrations + len(oids) > budget:
                break
            clusters.append(oids)
            migrations += len(oids)
        return clusters


@dataclass(frozen=True)
class Migration:
    """One planned object move."""

    oid: Oid
    from_page: int
    to_page: int


@dataclass
class MigrationPlan:
    """A priced batch of migrations onto one fresh extent."""

    migrations: List[Migration] = field(default_factory=list)
    clusters: int = 0
    #: objects planned around because their source page was pinned.
    skipped_pinned: int = 0
    extent: Optional[Extent] = None
    #: cost-model milliseconds the batch's page visits are expected to
    #: take (source and target pages in execution order).
    priced_ms: float = 0.0

    def __bool__(self) -> bool:
        return bool(self.migrations)


@dataclass
class ReorgRound:
    """What one executed reorganization round did and cost."""

    migrations: int = 0
    clusters: int = 0
    #: objects whose source page was pinned and were left in place.
    skipped_pinned: int = 0
    extent: Optional[Extent] = None
    #: cost-model estimate of the batch (from :class:`MigrationPlan`).
    priced_ms: float = 0.0
    #: physical read seeks / pages the migration actually performed.
    seek_delta: int = 0
    pages_read_delta: int = 0
    #: distinct pages written to (sources tombstoned + targets filled).
    pages_touched: int = 0
    #: the round stopped early: a page kept faulting past the policy's
    #: ``migration_retries`` budget.  Completed migrations stand (each
    #: is individually transactional); the rest wait for a later round.
    aborted: bool = False


class DeviceIdleTracker:
    """Serving and migration intervals of one disk, device by device.

    A view over a :class:`~repro.storage.costmodel.DeviceLedger` that
    retains intervals — strictly observational, like every ledger.
    Each device's clock advances read by read, so the timeline is
    exactly the busy schedule an event-driven engine would have
    produced for the same read sequence.

    While the :class:`Reorganizer` holds :meth:`migration_guard`, reads
    are stamped as *migration* intervals instead of serving ones.  A
    migration interval starts at the device's current ``busy_until``
    watermark — the detected idle window — which is what makes the
    no-overlap property (:meth:`overlaps`) checkable rather than merely
    asserted.
    """

    def __init__(self, disk) -> None:
        self._disk = disk
        self.ledger = DeviceLedger(disk.n_devices, intervals=True)
        self.cost_model = self.ledger.cost_model
        disk.add_read_tap(self.ledger.record)

    def detach(self) -> None:
        """Stop watching the disk (idempotent)."""
        self._disk.remove_read_tap(self.ledger.record)

    def _intervals(self, kind: str) -> List[List[Tuple[float, float]]]:
        return [
            [(begin, end) for begin, end, k, _p, _s in timeline if k == kind]
            for timeline in self.ledger.intervals
        ]

    @property
    def busy_intervals(self) -> List[List[Tuple[float, float]]]:
        """Per device, the ``(begin, end)`` of every serving read."""
        return self._intervals(SERVING)

    @property
    def migration_intervals(self) -> List[List[Tuple[float, float]]]:
        """Per device, the ``(begin, end)`` of every migration read."""
        return self._intervals(MIGRATION)

    @contextmanager
    def migration_guard(self) -> Iterator[None]:
        """Stamp reads as migration intervals while held."""
        self.ledger.kind = MIGRATION
        try:
            yield
        finally:
            self.ledger.kind = SERVING

    def overlaps(self) -> List[Tuple[int, Tuple[float, float], Tuple[float, float]]]:
        """Every (device, busy, migration) interval pair that overlaps.

        Empty by construction — migration I/O starts at the device's
        idle watermark — and the property suite asserts exactly that.
        One merge pass per device: both interval lists are time-sorted
        and internally disjoint, so whichever interval ends first can
        overlap nothing further and is stepped past.
        """
        violations = []
        pairs = zip(self.busy_intervals, self.migration_intervals)
        for device, (busy, migration) in enumerate(pairs):
            b = m = 0
            while b < len(busy) and m < len(migration):
                serving, moving = busy[b], migration[m]
                if serving[0] < moving[1] and moving[0] < serving[1]:
                    violations.append((device, serving, moving))
                if serving[1] <= moving[1]:
                    b += 1
                else:
                    m += 1
        return violations


class Reorganizer:
    """Background page reorganizer over one object store.

    The device server feeds :meth:`observe` from its resolution stream;
    when the service drains (the idle window — no pending references,
    no in-flight batches), :meth:`run_round` plans, prices, and
    executes one migration batch.  Execution is conservative:

    * only runs when ``idle_check`` (the server's ``pending_total() ==
      0``) agrees the pool is quiescent — pooled references carry page
      ids as scheduling keys, and migrating under a live sweep would
      let them go stale;
    * skips any object whose source *page* is currently pinned (a
      partially assembled object may still hold it);
    * targets a single fresh extent per round, allocated contiguously,
      so one round's hot clusters land physically adjacent — the seek
      win is between clusters as much as within them.
    """

    def __init__(
        self,
        store: ObjectStore,
        policy: Optional[ReorgPolicy] = None,
        idle_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.store = store
        self.policy = policy or ReorgPolicy()
        self.sketch = AffinitySketch(self.policy)
        self.planner = ReorgPlanner(self.policy)
        self.tracker = DeviceIdleTracker(store.disk)
        self._idle_check = idle_check
        self._layout = None
        self._objects_per_page = store.objects_per_page()
        #: lifetime totals, folded into ServiceMetrics by the service.
        self.rounds = 0
        self.migrations_total = 0

    def bind_layout(self, layout) -> "Reorganizer":
        """Record migration extents on a :class:`~repro.cluster.layout.
        LayoutResult` (optional; benches bind it for bookkeeping)."""
        self._layout = layout
        return self

    # -- statistics ingestion -------------------------------------------------

    def observe(self, group_key: Hashable, oid: Oid) -> None:
        """One resolved reference: ``oid`` fetched for ``group_key``."""
        self.sketch.observe(group_key, oid)

    def ready(self) -> bool:
        """Enough observations for a round to be worth planning?"""
        return self.sketch.observations >= self.policy.min_observations

    # -- planning -------------------------------------------------------------

    def plan_round(self) -> MigrationPlan:
        """Plan (and price) the next migration batch without executing.

        Pinned source pages are planned around here, not at execution
        time, so the plan that is priced is the plan that runs.
        """
        clusters = self.planner.plan(
            self.sketch, self.store.directory.page_of, self._objects_per_page
        )
        plan = MigrationPlan()
        if not clusters:
            return plan
        buffer = self.store.buffer
        movable: List[List[Tuple[Oid, int]]] = []
        skipped = 0
        for cluster in clusters:
            kept: List[Tuple[Oid, int]] = []
            for oid in cluster:
                source = self.store.directory.page_of(oid)
                if buffer.pin_count(source) > 0:
                    skipped += 1
                    continue
                kept.append((oid, source))
            if len(kept) >= 2 and len({page for _o, page in kept}) > 1:
                movable.append(kept)
        plan.skipped_pinned = skipped
        if not movable:
            return plan
        extent = self.store.disk.allocate(len(movable))
        plan.extent = extent
        plan.clusters = len(movable)
        for index, kept in enumerate(movable):
            target = extent.page_at(index)
            for oid, source in kept:
                plan.migrations.append(Migration(oid, source, target))
        # Execute in source-page sweep order: one elevator pass over the
        # scattered sources instead of a source→target zigzag per
        # object.  Target pages all sit in the round's one fresh extent
        # and stay buffer-resident once materialized, so the batch's
        # head travel is dominated by the single source sweep.
        plan.migrations.sort(
            key=lambda m: (m.from_page, m.to_page, m.oid)
        )
        plan.priced_ms = self._price(plan.migrations)
        return plan

    def _price(self, migrations: List[Migration]) -> float:
        """Cost-model milliseconds for the batch's expected reads.

        Each distinct page faults at most once per batch: sources are
        visited in one sweep (consecutive migrations reuse a page still
        buffered), and a target page stays resident after its first
        materialization — the batch working set (current source plus
        the round's few targets) fits any buffer that can assemble.
        """
        cost = 0.0
        position: Optional[int] = None
        seen = set()
        model = self.tracker.cost_model
        for migration in migrations:
            for page in (migration.from_page, migration.to_page):
                if page in seen:
                    continue
                seen.add(page)
                distance = 0 if position is None else abs(page - position)
                cost += model.run_service_time(distance, 1)
                position = page
        return cost

    # -- execution ------------------------------------------------------------

    def run_round(self, force: bool = False) -> ReorgRound:
        """Plan and execute one migration batch inside the idle window.

        Returns an empty :class:`ReorgRound` (zero migrations) when the
        sketch is not :meth:`ready` (unless ``force``), the pool is not
        idle, or the planner finds nothing worth moving.  The sketch
        decays once per *executed* planning pass, so hot sets age with
        reorganization activity, not with wall time.
        """
        round_report = ReorgRound()
        if not force and not self.ready():
            return round_report
        if self._idle_check is not None and not self._idle_check():
            return round_report
        plan = self.plan_round()
        round_report.skipped_pinned = plan.skipped_pinned
        self.sketch.decay()
        if not plan:
            return round_report
        self.rounds += 1
        stats = self.store.disk.stats
        seek_before = stats.read_seek_total
        pages_before = stats.pages_read
        touched = set()
        with self.tracker.migration_guard():
            for migration in plan.migrations:
                if not self._execute(migration):
                    round_report.aborted = True
                    break
                touched.add(migration.from_page)
                touched.add(migration.to_page)
                round_report.migrations += 1
        stats = self.store.disk.stats
        round_report.clusters = plan.clusters
        round_report.extent = plan.extent
        round_report.priced_ms = plan.priced_ms
        round_report.seek_delta = stats.read_seek_total - seek_before
        round_report.pages_read_delta = stats.pages_read - pages_before
        round_report.pages_touched = len(touched)
        self.migrations_total += round_report.migrations
        if self._layout is not None and plan.extent is not None:
            self._layout.extents[f"reorg-{self.rounds}"] = plan.extent
        return round_report

    def _execute(self, migration: Migration) -> bool:
        """Run one migration, absorbing transient read faults.

        Both pages are warmed with retried buffer fixes first, so
        :meth:`~repro.storage.store.ObjectStore.migrate` mutates only
        buffer-resident pages — a fault can then never strike between
        the target insert and the source delete (the buffer holds at
        least two frames on any configuration that can assemble).
        Returns ``False`` when a page keeps faulting past the policy's
        ``migration_retries`` budget; the object stays at its old
        address and the round aborts.
        """
        for page_id in (migration.from_page, migration.to_page):
            if not self._warm(page_id):
                return False
        self.store.migrate(migration.oid, migration.to_page)
        return True

    def _warm(self, page_id: int) -> bool:
        """Fix ``page_id`` once, retrying transient read faults."""
        for _attempt in range(self.policy.migration_retries + 1):
            try:
                with self.store.buffer.fixed(page_id):
                    return True
            except TransientReadError:
                continue
        return False
