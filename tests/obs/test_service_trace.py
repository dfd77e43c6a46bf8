"""End-to-end span traces through the service and device server."""

import json

import pytest

from repro.bench.harness import ExperimentConfig, build_layout
from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core import trace
from repro.core.assembly import Assembly
from repro.core.trace import AssemblyTracer
from repro.core.tuning import pin_bound
from repro.obs.demo import demo_service_run
from repro.obs.export import (
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spans import SpanRecorder
from repro.service import admission
from repro.service.device_server import DeviceServer
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template


def build_service(recorder, n=20, **service_kwargs):
    config = ExperimentConfig(
        n_complex_objects=n, window_size=4, cluster_pages=64
    )
    db, layout = build_layout(config)
    service = AssemblyService(
        layout.store, span_recorder=recorder, **service_kwargs
    )
    return db, layout, service


class TestServiceSpans:
    def test_request_assembly_slot_hierarchy(self):
        recorder = SpanRecorder()
        db, layout, service = build_service(recorder)
        template = make_template(db)
        request = service.submit(layout.root_order[:6], template,
                                 window_size=3)
        service.result(request)
        (request_span,) = recorder.of_kind("request")
        assert request_span.attrs["request_id"] == request
        assert request_span.attrs["outcome"] == "done"
        (assembly_span,) = recorder.of_kind("assembly")
        assert assembly_span.parent_id == request_span.span_id
        assert assembly_span.attrs["window"] == 3
        slots = recorder.of_kind("window-slot")
        assert len(slots) == 6
        assert all(s.parent_id == assembly_span.span_id for s in slots)
        assert all(s.attrs["outcome"] == "emitted" for s in slots)
        assert recorder.of_kind("scheduler-pop")
        assert recorder.of_kind("fetch")
        assert recorder.open_spans() == []
        # Stamped on the service's resolution clock, monotonically.
        assert request_span.start == 0.0
        assert request_span.end == float(service.clock)

    def test_queue_wait_span_measures_admission_delay(self, monkeypatch):
        monkeypatch.setattr(admission, "MIN_WINDOW", 8)
        recorder = SpanRecorder()
        config = ExperimentConfig(n_complex_objects=20, cluster_pages=64)
        db, layout = build_layout(config)
        template = make_template(db)
        service = AssemblyService(
            layout.store,
            span_recorder=recorder,
            budget_pages=pin_bound(8, template),
            max_waiting=2,
        )
        service.submit(layout.root_order[:10], template)
        queued = service.submit(layout.root_order[10:], template)
        service.run()
        service.result(queued)
        (wait,) = recorder.of_kind("queue-wait")
        assert wait.finished and wait.duration > 0
        assert wait.duration == service.request_metrics(queued).queue_wait

    def test_rejected_request_closes_its_span(self, monkeypatch):
        monkeypatch.setattr(admission, "MIN_WINDOW", 8)
        from repro.errors import ServiceOverloadError

        recorder = SpanRecorder()
        config = ExperimentConfig(n_complex_objects=20, cluster_pages=64)
        db, layout = build_layout(config)
        template = make_template(db)
        service = AssemblyService(
            layout.store,
            span_recorder=recorder,
            budget_pages=pin_bound(8, template),
            max_waiting=0,
        )
        service.submit(layout.root_order[:10], template)
        with pytest.raises(ServiceOverloadError):
            service.submit(layout.root_order[10:], template)
        rejected = [s for s in recorder.of_kind("request")
                    if s.attrs.get("outcome") == "rejected"]
        assert len(rejected) == 1 and rejected[0].finished

    def test_export_trace_both_formats(self, tmp_path):
        recorder = SpanRecorder()
        db, layout, service = build_service(recorder, n=10)
        service.result(
            service.submit(layout.root_order, make_template(db))
        )
        chrome = write_chrome_trace(recorder.spans, str(tmp_path / "t.json"))
        document = json.loads(open(chrome).read())
        assert validate_chrome_trace(document) == []
        assert document["traceEvents"]
        jsonl = write_jsonl(recorder.spans, str(tmp_path / "t.jsonl"))
        assert read_jsonl(jsonl) == recorder.spans
        # The engine's decisions ride in the same log, one instant span
        # each, and read back as the same trace events.
        decisions = [
            span for span in read_jsonl(jsonl) if span.kind == trace.DECISION
        ]
        assert decisions == recorder.of_kind(trace.DECISION)
        kinds = [e.kind for e in AssemblyTracer(recorder).events]
        assert kinds.count(trace.EMITTED) == 10


class TestRetrySpans:
    def test_fault_retries_leave_retry_events(self):
        db = generate_acob(20, seed=2)
        disk = SimulatedDisk()
        store = ObjectStore(disk, BufferManager(disk))
        layout = layout_database(db.complex_objects, store,
                                 InterObjectClustering(cluster_pages=64))
        recorder = SpanRecorder()
        recorder.bind_clock(lambda: float(disk.stats.pages_read))
        FaultInjector(
            FaultConfig(seed=11, read_error_rate=0.3,
                        max_consecutive_failures=2)
        ).attach(disk)
        operator = Assembly(
            ListSource(layout.root_order),
            store,
            make_template(db),
            window_size=4,
            retry_policy=RetryPolicy(max_retries=2),
            spans=recorder,
        )
        operator.execute()
        retries = recorder.of_kind("retry")
        assert len(retries) == operator.stats.fault_retries > 0
        assert all(span.start == span.end for span in retries)


class TestDemoRun:
    def test_demo_is_deterministic_and_complete(self):
        first, _service = demo_service_run()
        second, _service = demo_service_run()
        from repro.obs.export import diff_spans

        assert diff_spans(first.spans, second.spans, with_timing=True) == []
        assert first.open_spans() == []
        kinds = {span.kind for span in first.spans}
        assert {"request", "assembly", "window-slot", "fetch",
                "device-io"} <= kinds

    def test_demo_sampling_thins_slot_detail(self):
        full, _ = demo_service_run()
        sampled, _ = demo_service_run(sample_rate=0.25)
        assert len(sampled.of_kind("window-slot")) < len(
            full.of_kind("window-slot")
        )
        assert len(sampled.of_kind("request")) == len(
            full.of_kind("request")
        )
