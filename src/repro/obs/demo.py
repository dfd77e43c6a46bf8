"""A small, fully instrumented service run producing a sample trace.

One function builds a deterministic multi-client
:class:`~repro.service.server.AssemblyService` workload with every
observability hook attached — request/assembly/window-slot spans from
the service, device-I/O samples from a
:class:`~repro.obs.devices.DeviceIOTimeline` tap — and returns the
recorder.  ``python -m repro.obs render`` uses it to produce a valid
Chrome trace from a real service run with zero setup; the CI trace
artifact and the exporter tests drive the same function.
"""

from __future__ import annotations

from typing import Tuple

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.obs.devices import DeviceIOTimeline
from repro.obs.spans import SpanRecorder
from repro.service.server import AssemblyService
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob, make_template

#: The demo workload: ``N_CLIENTS`` clients each submit
#: ``REQUESTS_PER_CLIENT`` requests of ``ROOTS_PER_REQUEST`` roots at
#: window ``WINDOW``, over ``N_OBJECTS`` ACOB objects generated from
#: ``SEED``.
N_OBJECTS = 60
N_CLIENTS = 3
REQUESTS_PER_CLIENT = 2
ROOTS_PER_REQUEST = 5
WINDOW = 4
SEED = 7


def demo_service_run(
    sample_rate: float = 1.0,
) -> Tuple[SpanRecorder, AssemblyService]:
    """Run the instrumented demo workload; returns (recorder, service).

    Deterministic end to end: the database, layout, request schedule
    and service execution are all seeded, and every span is stamped on
    the service's resolution clock — two calls with the same arguments
    produce structurally identical traces.  ``sample_rate`` goes to
    the recorder.
    """
    database = generate_acob(N_OBJECTS, seed=SEED)
    disk = SimulatedDisk()
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        database.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=64, disk_order=database.type_ids_depth_first()
        ),
        shared=database.shared_pool,
    )
    recorder = SpanRecorder(sample_rate=sample_rate)
    service = AssemblyService(store, span_recorder=recorder)
    timeline = DeviceIOTimeline(
        disk,
        clock_fn=lambda: float(service.clock),
        spans=recorder,
    ).attach()
    try:
        template = make_template(database)
        roots = list(layout.root_order)
        cursor = 0
        request_ids = []
        for _request in range(REQUESTS_PER_CLIENT):
            for _client in range(N_CLIENTS):
                batch = [
                    roots[(cursor + i) % len(roots)]
                    for i in range(ROOTS_PER_REQUEST)
                ]
                cursor += ROOTS_PER_REQUEST
                request_ids.append(
                    service.submit(batch, template, window_size=WINDOW)
                )
        service.run()
        for request_id in request_ids:
            service.result(request_id)
    finally:
        timeline.detach()
    return recorder, service
