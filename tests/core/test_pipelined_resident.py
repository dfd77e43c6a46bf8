"""The pipelined driver's all-resident path against the bracketed path.

A batch whose pages are all buffer-resident is pinned with plain fixes
and issued without an ``io_fn``.  The oracle is the same run on a
buffer that reports no page resident, which sends every batch through
``fix_many`` inside the engine's ledger bracket — the route resident
batches took before.  Everything observable must agree: the objects,
the buffer counters, the simulated clock, the driver's and the
engine's counts, and the circuit breaker's record.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, PipelinedAssembly
from repro.core.tuning import pin_bound
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostModel
from repro.storage.events import AsyncIOEngine
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.acob import generate_acob, make_template

N = 60
WINDOW = 8


class CountingBuffer(BufferManager):
    """Counts ``fix_many`` calls."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fix_many_calls = 0

    def fix_many(self, page_ids):
        self.fix_many_calls += 1
        return super().fix_many(page_ids)


class ResidencyBlindBuffer(CountingBuffer):
    """Reports no page resident: every batch takes the bracketed path."""

    def is_resident(self, page_id: int) -> bool:
        return False


def run(buffer_cls, capacity=None, faults=None):
    db = generate_acob(N, seed=2)
    template = make_template(db)
    disk = MultiDeviceDisk(n_devices=2, pages_per_device=2048)
    buffer = buffer_cls(disk, capacity=capacity)
    store = ObjectStore(disk, buffer)
    layout = layout_database(
        db.complex_objects, store,
        InterObjectClustering(
            cluster_pages=64, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    buffer.drop_clean()
    buffer.reset_stats()
    buffer.fix_many_calls = 0
    injector = None
    if faults is not None:
        injector = FaultInjector(faults).attach(disk)
    operator = Assembly(
        ListSource(layout.root_order), store, template,
        window_size=WINDOW, scheduler=MultiDeviceScheduler(disk),
        retry_policy=RetryPolicy(max_retries=3) if faults else None,
    )
    engine = AsyncIOEngine(disk, CostModel())
    driver = PipelinedAssembly(
        operator, engine, issue_depth=2, batch_pages=4,
        retry_policy=RetryPolicy(max_retries=3) if faults else None,
    )
    emitted = driver.run()
    assert buffer.pinned_pages == 0
    return {
        "buffer": buffer,
        "operator": operator,
        "driver": driver,
        "summary": {
            "objects": [c.root_oid for c in emitted],
            "buffer_stats": asdict(buffer.stats),
            "elapsed": engine.elapsed,
            "issues": engine.issues,
            "zero_read_issues": engine.zero_read_issues,
            "busy": [engine.busy_time(d) for d in range(engine.n_devices)],
            "pipeline": asdict(driver.stats),
            "operator": asdict(operator.stats),
            "health": driver.health.snapshot(),
            "injected": (
                None if injector is None else asdict(injector.stats)
            ),
        },
    }


def pin_capacity():
    """A pool the window's pins nearly fill: its pin bound plus two."""
    return pin_bound(WINDOW, make_template(generate_acob(N, seed=2))) + 2


class TestResidentPath:
    def test_unbounded_buffer_matches_the_bracketed_path(self):
        fast = run(CountingBuffer)
        oracle = run(ResidencyBlindBuffer)
        assert fast["summary"] == oracle["summary"]
        # The resident path really ran: fewer batches needed fix_many.
        assert fast["buffer"].fix_many_calls < oracle["buffer"].fix_many_calls
        assert fast["driver"].stats.zero_read_issues > 0

    def test_nearly_full_pool_never_rejects_a_resident_batch(self):
        capacity = pin_capacity()
        fast = run(CountingBuffer, capacity=capacity)
        oracle = run(ResidencyBlindBuffer, capacity=capacity)
        # A resident batch never meets the admission test, and the
        # bracketed path never failed one either: the BufferStats,
        # fallbacks and clock agree with what fix_many produced.
        assert fast["summary"] == oracle["summary"]
        assert fast["buffer"].fix_many_calls < oracle["buffer"].fix_many_calls
        assert fast["operator"].stats.peak_pinned_pages >= capacity - 2

    def test_health_records_resident_successes_as_before(self):
        faults = FaultConfig(
            seed=9, read_error_rate=0.1, max_consecutive_failures=2
        )
        fast = run(CountingBuffer, faults=faults)
        oracle = run(ResidencyBlindBuffer, faults=faults)
        assert fast["summary"] == oracle["summary"]
        assert fast["summary"]["injected"]["transient_errors"] > 0
        assert fast["buffer"].fix_many_calls < oracle["buffer"].fix_many_calls
        successes = sum(
            device["successes"]
            for device in fast["summary"]["health"].values()
        )
        assert successes > fast["driver"].stats.physical_issues
