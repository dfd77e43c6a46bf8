"""Unit behaviour of the online reorganizer's parts.

The property suite (``test_reorg_properties``) pins the end-to-end
safety contract; these tests pin the pieces in isolation — policy
validation, the decayed affinity sketch, the greedy planner, the
idle-window tracker, and the reorganizer's conservative execution
rules (readiness, idle checks, pinned pages, layout bookkeeping).
"""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import Unclustered
from repro.cluster.reorg import (
    AffinitySketch,
    DeviceIdleTracker,
    Reorganizer,
    ReorgPlanner,
    ReorgPolicy,
)
from repro.errors import ServiceStateError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob


def oid(serial):
    return Oid(1, serial)


def edge(a, b):
    """The sketch's code for the edge between ``oid(a)`` and ``oid(b)``."""
    low, high = sorted((oid(a), oid(b)))
    return (
        (((low.type_id << 64) | low.serial) << 80)
        | (high.type_id << 64)
        | high.serial
    )


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decay": 0.0},
            {"decay": 1.5},
            {"min_weight": 0.0},
            {"max_migrations_per_round": 0},
            {"min_observations": -1},
            {"prune_epsilon": 0.0},
            {"prune_epsilon": -0.05},
            {"group_capacity": 0},
            {"affinity_window": 1},
        ],
    )
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ServiceStateError):
            ReorgPolicy(**kwargs)

    def test_defaults_are_valid(self):
        assert ReorgPolicy().min_observations > 0


class TestAffinitySketch:
    def test_same_context_references_accrue_pairwise_weight(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        for _repeat in range(2):
            sketch.observe(("q", _repeat), oid(1))
            sketch.observe(("q", _repeat), oid(2))
            sketch.observe(("q", _repeat), oid(3))
        edges = dict(sketch.hot_codes())
        assert edges[edge(1, 2)] == 2.0
        assert edges[edge(1, 3)] == 2.0
        assert edges[edge(2, 3)] == 2.0

    def test_different_contexts_never_pair(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        sketch.observe("a", oid(1))
        sketch.observe("b", oid(2))
        assert sketch.hot_codes() == []

    def test_repeat_within_window_is_not_a_self_pair(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        sketch.observe("q", oid(1))
        sketch.observe("q", oid(1))
        assert sketch.hot_codes() == []
        assert sketch.observations == 2

    def test_affinity_window_bounds_pairing_horizon(self):
        sketch = AffinitySketch(
            ReorgPolicy(min_weight=1.0, affinity_window=2)
        )
        sketch.observe("q", oid(1))
        sketch.observe("q", oid(2))
        sketch.observe("q", oid(3))  # pairs with 1 and 2
        sketch.observe("q", oid(4))  # window is [2, 3]: no (1, 4) edge
        edges = dict(sketch.hot_codes())
        assert edge(1, 4) not in edges
        assert edge(3, 4) in edges

    def test_decay_ages_and_prunes(self):
        sketch = AffinitySketch(
            ReorgPolicy(decay=0.5, min_weight=0.1, prune_epsilon=0.3)
        )
        sketch.observe("q", oid(1))
        sketch.observe("q", oid(2))
        assert len(sketch.hot_codes()) == 1
        sketch.decay()  # 1.0 -> 0.5, survives
        assert dict(sketch.hot_codes())[edge(1, 2)] == 0.5
        sketch.decay()  # 0.5 -> 0.25 < epsilon, pruned (0.25 >= min_weight)
        assert sketch.hot_codes() == []

    def test_group_capacity_is_an_lru(self):
        sketch = AffinitySketch(
            ReorgPolicy(min_weight=1.0, group_capacity=2)
        )
        sketch.observe("a", oid(1))
        sketch.observe("b", oid(2))
        sketch.observe("a", oid(3))  # refreshes "a"
        sketch.observe("c", oid(4))  # evicts "b", the coldest
        sketch.observe("b", oid(5))  # "b" restarts empty: no (2, 5) edge
        edges = dict(sketch.hot_codes())
        assert edge(1, 3) in edges
        assert edge(2, 5) not in edges

    def test_hot_edges_is_deterministically_ordered(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        sketch.observe("q", oid(3))
        sketch.observe("q", oid(1))
        sketch.observe("q", oid(2))
        sketch.observe("r", oid(1))
        sketch.observe("r", oid(2))
        edges = sketch.hot_codes()
        # (1, 2) has weight 2; the weight-1 edges tie-break on OID pair.
        assert edges[0] == (edge(1, 2), 2.0)
        assert edges[1:] == [
            (edge(1, 3), 1.0),
            (edge(2, 3), 1.0),
        ]


class TestReorgPlanner:
    def plan(self, sketch, pages, per_page=4):
        planner = ReorgPlanner(sketch._policy)
        return planner.plan(sketch, pages.__getitem__, per_page)

    def test_hot_pair_on_distinct_pages_is_planned(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        sketch.observe("q", oid(1))
        sketch.observe("q", oid(2))
        clusters = self.plan(sketch, {oid(1): 0, oid(2): 9})
        assert clusters == [[oid(1), oid(2)]]

    def test_co_located_cluster_is_dropped(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        sketch.observe("q", oid(1))
        sketch.observe("q", oid(2))
        assert self.plan(sketch, {oid(1): 3, oid(2): 3}) == []

    def test_cluster_growth_is_capped_at_page_capacity(self):
        sketch = AffinitySketch(ReorgPolicy(min_weight=1.0))
        for serial in range(1, 6):
            sketch.observe("q", oid(serial))
        pages = {oid(serial): serial for serial in range(1, 6)}
        clusters = self.plan(sketch, pages, per_page=3)
        assert all(len(cluster) <= 3 for cluster in clusters)

    def test_migration_budget_prefers_hotter_clusters(self):
        policy = ReorgPolicy(min_weight=1.0, max_migrations_per_round=2)
        sketch = AffinitySketch(policy)
        sketch.observe("cold", oid(1))
        sketch.observe("cold", oid(2))
        for _repeat in range(3):
            sketch.observe(("hot", _repeat), oid(11))
            sketch.observe(("hot", _repeat), oid(12))
        pages = {oid(1): 1, oid(2): 2, oid(11): 3, oid(12): 4}
        clusters = ReorgPlanner(policy).plan(sketch, pages.__getitem__, 4)
        assert clusters == [[oid(11), oid(12)]]


def build_store(n=20, disk=None):
    db = generate_acob(n, seed=3)
    disk = disk if disk is not None else SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects, store, Unclustered(), shared=db.shared_pool
    )
    return store, layout


class TestDeviceIdleTracker:
    def test_reads_accrue_contiguous_busy_intervals(self):
        store, layout = build_store()
        tracker = DeviceIdleTracker(store.disk)
        for root in layout.roots[:3]:
            store.fetch(root)
        intervals = tracker.busy_intervals[0]
        assert len(intervals) == store.disk.stats.reads
        for (_, prev_end), (begin, end) in zip(intervals, intervals[1:]):
            assert begin == prev_end
            assert end > begin
        assert tracker.ledger.busy_until[0] == intervals[-1][1]

    def test_migration_guard_routes_to_the_migration_ledger(self):
        store, layout = build_store()
        tracker = DeviceIdleTracker(store.disk)
        store.fetch(layout.roots[0])
        with tracker.migration_guard():
            store.fetch(layout.roots[1])
        assert tracker.busy_intervals[0]
        assert tracker.migration_intervals[0]
        assert tracker.overlaps() == []

    def test_overlapping_serving_and_migration_pair_is_reported(self):
        store, _layout = build_store()
        tracker = DeviceIdleTracker(store.disk)
        ledger = tracker.ledger
        # Hand-built: serving [0, 4) [4, 9) [20, 22); a migration that
        # starts inside the second serving read, and one in the clear.
        ledger.occupy(0, 0.0, 4.0)
        ledger.occupy(0, 4.0, 9.0)
        with tracker.migration_guard():
            ledger.occupy(0, 8.0, 12.0)
            ledger.occupy(0, 12.0, 20.0)
        ledger.occupy(0, 20.0, 22.0)
        assert tracker.overlaps() == [(0, (4.0, 9.0), (8.0, 12.0))]

    def test_multi_device_timelines_are_independent(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=32)
        store, layout = build_store(disk=disk)
        tracker = DeviceIdleTracker(disk)
        assert tracker.ledger.n_devices == 2
        assert disk.device_of(0) == 0
        assert disk.device_of(32) == 1
        store.fetch(layout.roots[0])
        # A layout extent lives on one device; moving an object onto a
        # device-1 extent makes that device's timeline advance too.
        target = next(
            extent
            for extent in (disk.allocate(1) for _ in range(disk.n_devices))
            if disk.device_of(extent.start) == 1
        )
        store.migrate(layout.roots[1], target.start)
        assert tracker.busy_intervals[0] and tracker.busy_intervals[1]
        assert tracker.overlaps() == []


AGGRESSIVE = ReorgPolicy(min_weight=1.0, min_observations=4)


def feed_pairs(reorg, layout, contexts=6):
    """Co-access the first roots pairwise so migrations get planned."""
    roots = layout.roots
    for context in range(contexts):
        reorg.observe(("q", context), roots[0])
        reorg.observe(("q", context), roots[1])


class TestReorganizer:
    def test_not_ready_without_observations(self):
        store, layout = build_store()
        reorg = Reorganizer(store, AGGRESSIVE)
        assert not reorg.ready()
        report = reorg.run_round()
        assert report.migrations == 0
        assert reorg.rounds == 0

    def test_idle_check_vetoes_a_round(self):
        store, layout = build_store()
        reorg = Reorganizer(store, AGGRESSIVE, idle_check=lambda: False)
        feed_pairs(reorg, layout)
        assert reorg.ready()
        assert reorg.run_round().migrations == 0
        assert reorg.rounds == 0

    def test_pinned_source_page_is_planned_around(self):
        store, layout = build_store()
        reorg = Reorganizer(store, AGGRESSIVE)
        feed_pairs(reorg, layout)
        store.fetch_pinned(layout.roots[0])
        try:
            plan = reorg.plan_round()
            assert not plan
            assert plan.skipped_pinned >= 1
        finally:
            store.unpin(layout.roots[0])
        assert reorg.plan_round()

    def test_round_migrates_and_records_the_extent(self):
        store, layout = build_store()
        reorg = Reorganizer(store, AGGRESSIVE).bind_layout(layout)
        feed_pairs(reorg, layout)
        before = {
            root: store.fetch(root).encode() for root in layout.roots[:2]
        }
        report = reorg.run_round()
        assert report.migrations == 2
        assert report.clusters == 1
        assert report.pages_touched >= 2
        assert report.priced_ms > 0
        assert "reorg-1" in layout.extents
        extent = layout.extents["reorg-1"]
        for root in layout.roots[:2]:
            assert store.directory.page_of(root) == extent.start
            assert store.fetch(root).encode() == before[root]

    def test_exhausted_fault_budget_aborts_the_round_cleanly(self):
        from repro.storage.faults import FaultConfig, FaultInjector

        store, layout = build_store()
        policy = ReorgPolicy(
            min_weight=1.0, min_observations=4, migration_retries=0
        )
        reorg = Reorganizer(store, policy)
        feed_pairs(reorg, layout)
        before = {
            root: store.fetch(root).encode() for root in layout.roots[:2]
        }
        store.buffer.flush_all()
        store.buffer.drop_clean()  # force physical (faultable) reads
        injector = FaultInjector(
            FaultConfig(
                seed=1, read_error_rate=1.0, max_consecutive_failures=2
            )
        ).attach(store.disk)
        report = reorg.run_round()
        injector.detach()
        assert report.aborted
        assert report.migrations == 0
        # The objects never moved and are still served byte-intact.
        for root, encoded in before.items():
            assert store.fetch(root).encode() == encoded

    def test_migration_to_same_page_is_skipped_next_round(self):
        store, layout = build_store()
        reorg = Reorganizer(store, AGGRESSIVE)
        feed_pairs(reorg, layout)
        assert reorg.run_round().migrations == 2
        feed_pairs(reorg, layout)
        # Already co-located now: the planner finds nothing to gain.
        assert reorg.run_round().migrations == 0
        assert reorg.rounds == 1
