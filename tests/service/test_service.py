"""End-to-end tests of the assembly service façade."""

import pytest

from repro.bench.harness import ExperimentConfig, build_layout
from repro.core.tuning import pin_bound
from repro.errors import (
    ServiceOverloadError,
    ServiceStateError,
    UnknownOidError,
)
from repro.service.device_server import DeviceServer, DeviceServerAssembly
from repro.service.server import AssemblyService, RequestStatus
from repro.storage.oid import Oid
from repro.workloads.acob import make_template
from tests.service.test_device_server import drive


def build(n=30, buffer_capacity=None):
    config = ExperimentConfig(
        n_complex_objects=n,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
        buffer_capacity=buffer_capacity,
    )
    return build_layout(config)


class TestSubmitPollResult:
    def test_two_requests_complete(self):
        db, layout = build()
        service = AssemblyService(layout.store)
        template = make_template(db)
        first = service.submit(layout.root_order[:15], template)
        second = service.submit(layout.root_order[15:], template)
        assert service.poll(first) is RequestStatus.RUNNING
        results = service.result(first)
        assert len(results) == 15
        assert {c.root_oid for c in results} == set(layout.root_order[:15])
        assert service.result(second) and service.poll(second) is RequestStatus.DONE
        assert layout.store.buffer.pinned_pages == 0

    def test_metrics_track_the_request_life(self):
        db, layout = build(n=10)
        service = AssemblyService(layout.store)
        request = service.submit(layout.root_order, make_template(db))
        service.result(request)
        metrics = service.request_metrics(request)
        assert metrics.queue_wait == 0
        assert metrics.latency is not None and metrics.latency > 0
        assert metrics.emitted == 10
        assert metrics.fetches == 10 * 7
        assert metrics.window_size == 8
        snapshot = service.metrics.snapshot()
        assert snapshot["requests_completed"] == 1
        assert snapshot["objects_emitted"] == 10
        assert snapshot["p50_latency"] == metrics.latency

    def test_unknown_request_id(self):
        _db, layout = build(n=5)
        service = AssemblyService(layout.store)
        with pytest.raises(ServiceStateError):
            service.poll(99)

    def test_determinism_across_identical_services(self):
        seeks = []
        for _ in range(2):
            db, layout = build(n=20)
            service = AssemblyService(layout.store)
            template = make_template(db)
            service.submit(layout.root_order[:10], template)
            service.submit(layout.root_order[10:], template)
            service.run()
            seeks.append(list(layout.store.disk.stats.read_seeks))
        assert seeks[0] == seeks[1]


class TestUnknownRoot:
    """One client's bad root OID must not touch anyone else's request."""

    def test_rejected_submit_leaves_no_trace(self):
        db, layout = build(n=6)
        template = make_template(db)
        service = AssemblyService(layout.store)
        roots = layout.root_order

        def state():
            return (
                service.server.pending_total(),
                [q.query_id for q in service.server.active_queries()],
                service.admission.granted_pages,
                dict(service._running),
                service.metrics.snapshot(),
                layout.store.buffer.pinned_pages,
            )

        before = state()
        with pytest.raises(UnknownOidError):
            service.submit(
                roots[:2] + [Oid(99, 12345)], template, window_size=4
            )
        assert state() == before
        good = service.submit(roots[2:4], template, window_size=4)
        service.run()
        assert len(service.result(good)) == 2

    def test_failed_register_drops_the_query(self):
        """Below the service: a register whose open() raises leaves the
        server's pool and registry as they were."""
        db, layout = build(n=6)
        template = make_template(db)
        server = DeviceServer(layout.store)
        roots = layout.root_order
        with pytest.raises(UnknownOidError):
            server.register(
                roots[:2] + [Oid(99, 12345)], template, window_size=4
            )
        assert server.pending_total() == 0
        assert server.active_queries() == []
        assert layout.store.buffer.pinned_pages == 0
        query = server.register(roots[2:4], template, window_size=4)
        drive(server)
        assert len(query.take_results()) == 2

    def test_failed_partition_closes_the_ones_before_it(self):
        db, layout = build(n=6)
        # Two round-robin partitions: the ghost lands in the second.
        operator = DeviceServerAssembly(
            layout.root_order[:3] + [Oid(99, 12345)],
            layout.store,
            make_template(db),
            n_partitions=2,
            window_size=8,
        )
        with pytest.raises(UnknownOidError):
            operator.open()
        assert layout.store.buffer.pinned_pages == 0
        assert not any(
            q.assembly.is_open for q in operator._server.active_queries()
        )


class TestCacheIntegration:
    def test_repeat_submission_served_from_cache(self):
        db, layout = build(n=12)
        service = AssemblyService(layout.store)
        template = make_template(db)
        service.result(service.submit(layout.root_order, template))
        reads_before = layout.store.disk.stats.reads
        repeat = service.submit(layout.root_order, template)
        assert service.poll(repeat) is RequestStatus.DONE
        assert len(service.result(repeat)) == 12
        assert layout.store.disk.stats.reads == reads_before
        assert service.request_metrics(repeat).cache_hits == 12
        assert service.request_metrics(repeat).latency == 0

    def test_store_write_invalidates_exactly_the_touched_object(self):
        db, layout = build(n=12)
        service = AssemblyService(layout.store)
        template = make_template(db)
        first = service.result(service.submit(layout.root_order, template))
        # Rewrite one component of the first complex object in place.
        member = next(iter(first[0].scan())).oid
        layout.store.overwrite(member, layout.store.fetch(member))
        repeat = service.submit(layout.root_order, template)
        metrics = service.request_metrics(repeat)
        assert metrics.cache_hits == 11  # all but the invalidated one
        assert service.poll(repeat) is RequestStatus.RUNNING
        assert len(service.result(repeat)) == 12

    def test_cache_disabled(self):
        db, layout = build(n=6)
        service = AssemblyService(layout.store, cache_capacity=0)
        template = make_template(db)
        service.result(service.submit(layout.root_order, template))
        repeat = service.submit(layout.root_order, template)
        assert service.poll(repeat) is RequestStatus.RUNNING
        assert service.request_metrics(repeat).cache_hits == 0


class TestAdmissionIntegration:
    def test_budget_exhaustion_rejects_with_typed_error(self):
        db, layout = build(n=20)
        template = make_template(db)
        budget = pin_bound(8, template)
        service = AssemblyService(
            layout.store, budget_pages=budget, max_waiting=0
        )
        first = service.submit(
            layout.root_order[:10], template, window_size=8
        )
        with pytest.raises(ServiceOverloadError):
            service.submit(layout.root_order[10:], template, window_size=8)
        # The rejected request left no residue; the survivor completes.
        assert service.metrics.requests_rejected == 1
        assert len(service.result(first)) == 10
        after = service.submit(layout.root_order[10:], template)
        assert len(service.result(after)) == 10

    def test_rejected_request_leaves_no_cache_counts(self):
        """A shed request's cache probes are rolled back with it: the
        service-wide hit/miss totals cover accepted requests only."""
        db, layout = build(n=20)
        template = make_template(db)
        service = AssemblyService(
            layout.store,
            budget_pages=pin_bound(8, template),
            max_waiting=0,
        )
        roots = layout.root_order
        warm = service.submit(roots[:4], template, window_size=8)
        service.result(warm)
        blocker = service.submit(roots[4:10], template, window_size=8)
        with pytest.raises(ServiceOverloadError):
            # Two hits (roots 0, 1) and three misses, then rejected.
            service.submit(roots[:2] + roots[10:13], template)
        accepted_roots = 4 + 6
        metrics = service.metrics
        assert metrics.cache_hits + metrics.cache_misses == accepted_roots
        assert metrics.cache_hits == sum(
            m.cache_hits for m in metrics.per_request.values()
        )
        assert len(service.result(blocker)) == 6

    def test_queued_request_starts_after_release(self):
        db, layout = build(n=20)
        template = make_template(db)
        budget = pin_bound(8, template)
        service = AssemblyService(
            layout.store, budget_pages=budget, max_waiting=2, min_window=8
        )
        first = service.submit(layout.root_order[:10], template)
        queued = service.submit(layout.root_order[10:], template)
        assert service.poll(queued) is RequestStatus.QUEUED
        service.run()
        assert service.poll(queued) is RequestStatus.DONE
        assert len(service.result(queued)) == 10
        wait = service.request_metrics(queued).queue_wait
        assert wait is not None and wait > 0
        assert service.request_metrics(first).queue_wait == 0

    def test_shrunk_window_still_completes(self):
        db, layout = build(n=10)
        template = make_template(db)
        # Budget fits W=2 (13 pages) but not the asked W=8 (49).
        service = AssemblyService(
            layout.store, budget_pages=pin_bound(2, template)
        )
        request = service.submit(layout.root_order, template, window_size=8)
        assert len(service.result(request)) == 10
        metrics = service.request_metrics(request)
        assert metrics.shrunk and metrics.window_size == 2
