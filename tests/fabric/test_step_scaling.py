"""A fabric step costs the same at any backlog.

A count, not a clock: the same 32 requests run through a one-shard,
one-replica fabric twice — far enough apart that at most one is ever
outstanding, and all at t=0 so that all 32 are — and the fabric layer's
work per replica step must be equal within 5 %.  That work is every
profiled call into a function under ``repro/fabric/`` plus every call
such a function makes directly into another layer, so a ``poll`` of
each outstanding request after every step would count: a step pays for
the resolution it makes, not for the requests waiting behind it.
"""

from __future__ import annotations

import cProfile
import os
from types import CodeType

from repro.fabric import RequestSpec, build_sharded_fabric
from repro.workloads.acob import generate_acob

N_REQUESTS = 32
#: the fabric layer: code under ``repro/fabric/``.
FABRIC_LAYER = os.path.join("repro", "fabric", "")


def in_fabric(code):
    return isinstance(code, CodeType) and FABRIC_LAYER in code.co_filename


def fabric_work(gap_ms):
    """``(fabric-layer calls per replica step, report)`` for
    :data:`N_REQUESTS` two-root requests arriving ``gap_ms`` apart."""
    fabric = build_sharded_fabric(
        generate_acob(48, seed=2), cache_capacity=0, max_waiting=10_000
    )
    roots = fabric.shards[0].roots
    specs = [
        RequestSpec(
            roots=(roots[2 * n % len(roots)], roots[(2 * n + 1) % len(roots)]),
            arrival_ms=n * gap_ms,
        )
        for n in range(N_REQUESTS)
    ]
    profiler = cProfile.Profile()
    report = profiler.runcall(fabric.run, specs)
    calls = steps = 0
    for entry in profiler.getstats():
        if not in_fabric(entry.code):
            continue
        calls += entry.callcount
        calls += sum(
            sub.callcount
            for sub in entry.calls or ()
            if not in_fabric(sub.code)
        )
        if entry.code.co_name == "step":  # ShardReplica.step
            steps += entry.callcount
    return calls / steps, report


def test_fabric_work_per_step_is_flat_in_the_backlog():
    light, light_report = fabric_work(10_000.0)
    heavy, heavy_report = fabric_work(0.0)
    # Light: every request is served before the next one arrives.
    served = light_report.requests
    assert all(
        done.complete_ms < following.spec.arrival_ms
        for done, following in zip(served, served[1:])
    )
    # Heavy: all arrive at t=0, ahead of any step (ties go to events).
    assert {r.spec.arrival_ms for r in heavy_report.requests} == {0.0}
    assert len(heavy_report.served) == N_REQUESTS >= 16
    assert abs(heavy - light) / light < 0.05, (light, heavy)
