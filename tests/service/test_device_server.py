"""The device server: registry, global sweep, fairness, determinism."""

import pytest

from repro.bench.harness import ExperimentConfig, build_layout
from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.errors import SchedulerError, ServiceStateError
from repro.service.device_server import DeviceServer
from repro.storage.buffer import BufferManager
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob, make_template


def build(n=40):
    config = ExperimentConfig(
        n_complex_objects=n,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
    )
    return build_layout(config)


def drive(server):
    """Step ``server`` until idle; every registered query must be done."""
    while server.step():
        pass
    unfinished = [
        query.query_id
        for query in server.active_queries()
        if not query.finished
    ]
    assert not unfinished, f"server idle with unfinished queries {unfinished}"


class TestRegistry:
    def test_two_queries_share_one_sweep(self):
        db, layout = build()
        server = DeviceServer(layout.store)
        template = make_template(db)
        first = server.register(layout.root_order[:20], template)
        second = server.register(layout.root_order[20:], template)
        drive(server)
        assert first.finished and second.finished
        assert len(first.output) == 20 and len(second.output) == 20
        for cobj in first.output + second.output:
            cobj.verify_swizzled()
        assert layout.store.buffer.pinned_pages == 0

    def test_register_rejects_private_scheduler(self):
        db, layout = build(n=5)
        server = DeviceServer(layout.store)
        with pytest.raises(ServiceStateError):
            server.register(
                layout.root_order, make_template(db), scheduler="elevator"
            )

    def test_proxy_pop_is_forbidden(self):
        db, layout = build(n=5)
        server = DeviceServer(layout.store)
        query = server.register(layout.root_order, make_template(db))
        proxy = query.assembly._scheduler  # the server-installed proxy
        with pytest.raises(SchedulerError):
            proxy.pop()

    def test_deregister_retracts_and_unpins(self):
        db, layout = build(n=10)
        server = DeviceServer(layout.store)
        template = make_template(db)
        query = server.register(layout.root_order[:5], template)
        keeper = server.register(layout.root_order[5:], template)
        assert server.pending_of(query.query_id) > 0
        server.deregister(query.query_id)
        assert server.pending_of(query.query_id) == 0
        drive(server)
        assert keeper.finished
        assert layout.store.buffer.pinned_pages == 0

    def test_next_result_round_robins_queries(self):
        db, layout = build(n=20)
        server = DeviceServer(layout.store)
        template = make_template(db)
        first = server.register(layout.root_order[:10], template)
        second = server.register(layout.root_order[10:], template)
        drive(server)
        order = []
        while True:
            emitted = server.next_result()
            if emitted is None:
                break
            order.append(emitted[0])
        assert sorted(order) == [first.query_id] * 10 + [second.query_id] * 10
        # With both queries holding output, emission alternates.
        assert order[:4] == [
            first.query_id, second.query_id,
            first.query_id, second.query_id,
        ]

    def test_bad_starvation_bound(self):
        _db, layout = build(n=5)
        with pytest.raises(ServiceStateError):
            DeviceServer(layout.store, starvation_bound=0)


class TestFairness:
    def test_starvation_bound_holds_with_one_slow_many_fast(self):
        """One big query plus four small ones: while any query has
        pending references, it is served at least once every
        ``bound + n_queries`` global resolutions."""
        bound = 4
        db, layout = build(n=40)
        server = DeviceServer(layout.store, starvation_bound=bound)
        template = make_template(db)
        slow = server.register(layout.root_order[:24], template)
        fast = [
            server.register(layout.root_order[24 + 4 * i: 28 + 4 * i], template)
            for i in range(4)
        ]
        n_queries = 5
        while server.step():
            for query in server.active_queries():
                assert server.waited(query.query_id) <= bound + n_queries
        assert slow.finished and all(q.finished for q in fast)
        assert all(q.served > 0 for q in fast)

    def test_unbounded_scan_can_starve_longer(self):
        """Without the bound, some query waits longer than the bounded
        run ever allows — the fairness mechanism is load-bearing."""
        db, layout = build(n=40)
        server = DeviceServer(layout.store, starvation_bound=None)
        template = make_template(db)
        server.register(layout.root_order[:24], template)
        for i in range(4):
            server.register(
                layout.root_order[24 + 4 * i: 28 + 4 * i], template
            )
        worst = 0
        while server.step():
            worst = max(
                worst,
                max(
                    server.waited(q.query_id)
                    for q in server.active_queries()
                ),
            )
        assert worst > 4 + 5


class TestDeterminism:
    def test_identical_registrations_replay_identical_fetches(self):
        """The global sweep breaks every tie on the admission sequence
        number, so a repeated run reads pages in the same order."""
        seeks = []
        for _ in range(2):
            db, layout = build(n=30)
            server = DeviceServer(layout.store)
            template = make_template(db)
            server.register(layout.root_order[:15], template)
            server.register(layout.root_order[15:], template)
            drive(server)
            seeks.append(list(layout.store.disk.stats.read_seeks))
        assert seeks[0] == seeks[1]


class TestMultiDevice:
    def test_one_queue_per_device(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=4096)
        store = ObjectStore(disk, BufferManager(disk))
        db = generate_acob(30, seed=3)
        layout = layout_database(
            db.complex_objects,
            store,
            InterObjectClustering(
                cluster_pages=8, disk_order=db.type_ids_depth_first()
            ),
            shared=db.shared_pool,
            seed=1,
        )
        server = DeviceServer(store)
        assert len(server.queue_depths()) == 2
        query = server.register(layout.root_order, make_template(db))
        drive(server)
        assert query.finished and len(query.output) == 30
        # Extents stripe round-robin, so both heads actually moved.
        assert all(stats.reads > 0 for stats in disk.device_stats)

