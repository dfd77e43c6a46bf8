"""The device server's pool against the per-device queues it replaced.

``DeviceServer`` used to keep its own array of elevators: it filed each
reference by ``page_id // pages_per_device``, retracted an owner from
every queue in turn, scanned the queues for the deepest available one
and, when every pending device was quarantined, probed the one that
reopens first.  It now pools through one
:class:`~repro.core.multidevice.MultiDeviceScheduler` and picks with
:func:`~repro.core.multidevice.deepest_device`.  :class:`QueueServer`
keeps the earlier ``_enqueue``, ``_retract``, ``_deepest_device``,
``_pop``, ``_pop_starved``, ``queue_depths`` and ``step`` verbatim as
the oracle.

No figure and no observatory workload runs a device server on more
than one device, so the property draws the multi-device cases itself:
one to four devices, one to three queries, every starvation bound the
server distinguishes (off, overriding at every step, overriding
sometimes) and fault schedules with transient errors and outages whose
ends coincide across devices, so breakers open, objects are dropped
(retracting their owners from every device) and the probe has to break
ties.  Whole runs must agree: the pop order, each query's emitted
roots in order, the disk's and every device's statistics, the
resolution count, the breaker's snapshot and the injector's
statistics.
"""

from __future__ import annotations

from dataclasses import asdict
from heapq import heappush
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.schedulers import ElevatorScheduler, UnresolvedReference
from repro.errors import ReproError, SchedulerError
from repro.service.device_server import DeviceServer
from repro.storage.buffer import BufferManager
from repro.storage.faults import (
    DownInterval,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob, make_template

N_OBJECTS = 24
#: steps after which a drive counts as a runaway.
STEP_BUDGET = 5_000


class RecordingServer(DeviceServer):
    """Logs every reference it serves, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pops = []

    def _serve(self, ref):
        self.pops.append((ref.client, ref.oid))
        super()._serve(ref)


class QueueServer(RecordingServer):
    """The server's earlier pool: its own elevator per device."""

    def __init__(self, store, *args, **kwargs):
        super().__init__(store, *args, **kwargs)
        self._queues = [
            ElevatorScheduler(store.disk.head_probe(device))
            for device in range(store.disk.n_devices)
        ]
        self._pages_per_device = store.disk.pages_per_device

    def _enqueue(self, ref: UnresolvedReference) -> None:
        # Per-assembly sequence numbers are not unique across queries:
        # the pool's tie-break is the global admission sequence.
        self._seq += 1
        ref.seq = self._seq
        self._queues[ref.page_id // self._pages_per_device].add(ref)
        self._pending_total += 1
        client = ref.client
        pending = self._pending
        if not pending[client]:
            # Rising from zero: the query starts waiting now.
            now = self.resolutions
            self._queries[client].stamp = now
            if self._stamps is not None:
                heappush(self._stamps, (now, client))
        pending[client] += 1

    def _retract(self, query_id: int, owner: int) -> List[UnresolvedReference]:
        removed: List[UnresolvedReference] = []
        for queue in self._queues:
            removed.extend(queue.remove_owner(owner, query_id))
        if removed:
            self._pending[query_id] -= len(removed)
            self._pending_total -= len(removed)
        return removed

    def queue_depths(self) -> List[int]:
        """Pending references per device (balance diagnostics)."""
        return [len(queue) for queue in self._queues]

    def _deepest_device(self) -> int:
        # Deepest queue first: elevator sweeps pay off in proportion to
        # queue depth (same rule as MultiDeviceScheduler); ties resolve
        # to the lowest device index, deterministically.  Quarantined
        # devices are skipped — unless every pending device is
        # quarantined, in which case the earliest-recovering one is
        # probed anyway (on the synchronous path, only attempts advance
        # the injector's op clock, so probing is what ends an outage).
        # A lone queue is the deepest or the only probe: either way, 0.
        if len(self._queues) == 1:
            return 0
        now = self.store.disk.fault_now()
        best = None
        best_depth = 0
        probe = None
        probe_recovery = None
        for device, queue in enumerate(self._queues):
            depth = len(queue)
            if depth == 0:
                continue
            if not self.health.available(device, now):
                recovery = self.health.quarantined_until(device)
                if probe_recovery is None or recovery < probe_recovery:
                    probe, probe_recovery = device, recovery
                continue
            if depth > best_depth:
                best, best_depth = device, depth
        if best is None:
            best = probe
        if best is None:
            raise SchedulerError("device server pool is empty")
        return best

    def _pop(self, device: int) -> UnresolvedReference:
        """Pop the SCAN-next reference on ``device``.

        A reference stops counting as pending here, at pop: until it is
        served it belongs to the step that popped it.
        """
        ref = self._queues[device].pop()
        self._pending[ref.client] -= 1
        self._pending_total -= 1
        return ref

    def _pop_starved(self, query_id: int) -> Tuple[int, UnresolvedReference]:
        """The starvation override: ``(device, ref)`` for the starved
        query's reference nearest the head of the first device that
        holds one."""
        for device, queue in enumerate(self._queues):
            ref = queue.pop_nearest(query_id)
            if ref is not None:
                self._pending[query_id] -= 1
                self._pending_total -= 1
                return device, ref
        raise SchedulerError(f"query {query_id} has no pending reference")

    def step(self) -> bool:
        self.touched = []
        if not self._pending_total and not self._release_stuck():
            return False
        starved = self._starved_query()
        if starved is None:
            device = self._deepest_device()
            ref = self._pop(device)
        else:
            device, ref = self._pop_starved(starved)
        pop_span = None
        if self.spans is not None:
            pop_span = self.spans.begin(
                "scheduler-pop", kind="scheduler-pop", device=device
            )
        try:
            self._serve(ref)
        finally:
            if pop_span is not None:
                self.spans.end(pop_span)
        return True


def run(server_cls, case):
    """One whole run under ``case``; everything it leaves behind."""
    n_devices = case["n_devices"]
    db = generate_acob(N_OBJECTS, seed=2)
    disk = MultiDeviceDisk(
        n_devices=n_devices, pages_per_device=(7 * 16) // n_devices + 64
    )
    store = ObjectStore(disk, BufferManager(disk, capacity=48))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(
            cluster_pages=16, disk_order=db.type_ids_depth_first()
        ),
        shared=db.shared_pool,
    )
    store.buffer.drop_clean()
    disk.reset_stats()
    injector = None
    if case["faults"] is not None:
        injector = FaultInjector(case["faults"]).attach(disk)
    server = server_cls(store, starvation_bound=case["bound"])
    template = make_template(db)
    n_queries = case["n_queries"]
    queries = []
    failure: Optional[str] = None
    try:
        for index in range(n_queries):
            queries.append(
                server.register(
                    layout.root_order[index::n_queries],
                    template,
                    window_size=4,
                    retry_policy=RetryPolicy(max_retries=case["retries"]),
                    on_fault=case["on_fault"],
                )
            )
        steps = 0
        while server.step():
            steps += 1
            assert steps < STEP_BUDGET, "runaway drive"
    except ReproError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    return {
        "failure": failure,
        "pops": server.pops,
        "roots": [[c.root.oid for c in q.output] for q in queries],
        "finished": [q.finished for q in queries],
        "served": [q.served for q in queries],
        "resolutions": server.resolutions,
        "pending": server.pending_total(),
        "depths": list(server.queue_depths()),
        "disk": asdict(disk.stats),
        "devices": [asdict(stats) for stats in disk.device_stats],
        "health": server.health.snapshot(),
        "injector": None if injector is None else asdict(injector.stats),
    }


DOWN = st.builds(
    lambda device, start, end: (device, start, end),
    st.integers(0, 3),
    st.sampled_from([0.0, 10.0, 30.0]),
    # Few distinct ends: two devices that reopen together make the
    # probe break a tie.
    st.sampled_from([60.0, 120.0]),
)

FAULTS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 50),
        st.sampled_from([0.0, 0.05, 0.2]),
        st.lists(DOWN, max_size=3),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    n_devices=st.integers(1, 4),
    n_queries=st.integers(1, 3),
    bound=st.sampled_from([None, 1, 4]),
    faults=FAULTS,
    retries=st.integers(0, 2),
    on_fault=st.sampled_from(["skip_object", "partial"]),
)
def test_the_pool_serves_what_the_queues_served(
    n_devices, n_queries, bound, faults, retries, on_fault
):
    config = None
    if faults is not None:
        seed, rate, downs = faults
        config = FaultConfig(
            seed=seed,
            read_error_rate=rate,
            max_consecutive_failures=2,
            down_intervals=tuple(
                DownInterval(device=device % n_devices, start=start, end=end)
                for device, start, end in downs
            ),
        )
    case = dict(
        n_devices=n_devices, n_queries=n_queries, bound=bound,
        faults=config, retries=retries, on_fault=on_fault,
    )
    assert run(RecordingServer, case) == run(QueueServer, case)
