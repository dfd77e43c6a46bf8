"""A service step costs the same at any service age and any client count.

A count, not a clock: one service lives through 800 closed-loop
requests and the work per ``step()`` while serving requests 700–800 is
compared with the work while serving the first 100 — the identical
client mix, the result cache off so both windows assemble the same
objects.  Work is counted as profiled function calls per step
(deterministic, unlike wall time) and as how much of the request
registry any single read inside a step could see.  The same requests
dealt to 2 and to 16 closed-loop clients must cost the same
service-layer calls per step: a step pays for the reference it serves,
not for the queries that share the pool.
"""

from __future__ import annotations

import cProfile
import os
from types import CodeType

from repro.bench.harness import ExperimentConfig, build_layout
from repro.service.server import AssemblyService, RequestStatus
from repro.workloads.acob import make_template

N_CLIENTS = 8
WINDOW_REQUESTS = 100
WINDOWS = 8
#: the service layer: code under ``repro/service/``.
SERVICE_LAYER = os.path.join("repro", "service", "")


class WatchedRegistry(dict):
    """A request registry that records every whole-registry read."""

    def __init__(self, *args):
        super().__init__(*args)
        #: len(registry) at each bulk read (iteration, values, items…).
        self.bulk_reads = []

    def _bulk(self):
        self.bulk_reads.append(len(self))

    def __iter__(self):
        self._bulk()
        return super().__iter__()

    def keys(self):
        self._bulk()
        return super().keys()

    def values(self):
        self._bulk()
        return super().values()

    def items(self):
        self._bulk()
        return super().items()


def closed_loop(service, template, schedule, profiler=None):
    """Run ``schedule[client]`` request lists to completion; step count.

    Each client keeps one request in flight and submits its next the
    moment the previous one is done, like ``service_closed``.  A
    ``profiler`` is enabled around each ``step()`` only.
    """
    cursors = [0] * len(schedule)
    in_flight = {}
    steps = 0

    def submit_next(client):
        if cursors[client] < len(schedule[client]):
            roots = schedule[client][cursors[client]]
            cursors[client] += 1
            in_flight[client] = service.submit(roots, template, window_size=4)
        else:
            in_flight.pop(client, None)

    for client in range(len(schedule)):
        submit_next(client)
    while in_flight:
        if profiler is not None:
            profiler.enable()
        advanced = service.step()
        if profiler is not None:
            profiler.disable()
        assert advanced
        steps += 1
        for client, request_id in list(in_flight.items()):
            if service.poll(request_id) is RequestStatus.DONE:
                submit_next(client)
    return steps


def profiled(call):
    """``(result, total function calls)`` of ``call()`` under cProfile."""
    profiler = cProfile.Profile()
    result = profiler.runcall(call)
    return result, sum(entry.callcount for entry in profiler.getstats())


def test_step_work_is_flat_over_service_lifetime():
    config = ExperimentConfig(
        n_complex_objects=48,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
    )
    db, layout = build_layout(config)
    template = make_template(db)
    roots = layout.root_order
    per_client = WINDOW_REQUESTS // N_CLIENTS + 1
    schedule = [
        [
            [roots[(client * 7 + n * 3 + k) % len(roots)] for k in range(3)]
            for n in range(per_client)
        ]
        for client in range(N_CLIENTS)
    ]
    service = AssemblyService(layout.store, cache_capacity=0)
    service._requests = registry = WatchedRegistry(service._requests)

    def window():
        return closed_loop(service, template, schedule)

    young_steps, young_calls = profiled(window)
    for _ in range(WINDOWS - 2):
        window()
    assert len(registry) == (WINDOWS - 1) * per_client * N_CLIENTS
    old_steps, old_calls = profiled(window)

    assert old_steps == young_steps
    young, old = young_calls / young_steps, old_calls / old_steps
    assert abs(old - young) / young < 0.05, (young, old)
    # Nothing a step builds may be sized by the service's history: the
    # only reads of the registry are single-id lookups.
    assert [n for n in registry.bulk_reads if n > N_CLIENTS] == []
    assert service._running == {}


def service_calls_per_step(n_clients, requests):
    """Profiled service-layer calls per ``step()`` with ``requests``
    dealt round-robin to ``n_clients`` closed-loop clients."""
    config = ExperimentConfig(
        n_complex_objects=48,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
    )
    db, layout = build_layout(config)
    template = make_template(db)
    roots = layout.root_order
    schedule = [
        [
            [roots[(n * 5 + k) % len(roots)] for k in range(3)]
            for n in range(client, requests, n_clients)
        ]
        for client in range(n_clients)
    ]
    service = AssemblyService(layout.store, cache_capacity=0)
    profiler = cProfile.Profile()
    steps = closed_loop(service, template, schedule, profiler)
    calls = sum(
        entry.callcount
        for entry in profiler.getstats()
        if isinstance(entry.code, CodeType)
        and SERVICE_LAYER in entry.code.co_filename
    )
    return calls / steps


def test_step_work_is_flat_in_the_number_of_clients():
    few = service_calls_per_step(2, 32)
    many = service_calls_per_step(16, 32)
    assert abs(many - few) / few < 0.05, (few, many)
