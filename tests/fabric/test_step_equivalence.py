"""The heap-stepped fabric loop is the re-pick-every-step loop, run for run.

``ServiceFabric.run`` used to rebuild the busy-replica list and take a
keyed ``min`` after every resolution, and ``_step_replica`` polled every
request outstanding on the stepped replica.  Now the busy replicas go on
a heap once per event and the earliest one is stepped until the next
event is due, and a step completes only the requests its service step
finished.  The old loop is kept here as the oracle.  Both run the same
generated open-loop schedules — arrival ties included — with hedging on
and off, SLO shedding on and off, both placements, one replica three
times slower than the others and one behind a fault injector, and must
agree on every request, every shard snapshot, every replica clock and
the merged metrics.
"""

from __future__ import annotations

import functools
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FabricError
from repro.fabric import (
    HedgePolicy,
    RequestSpec,
    SheddingPolicy,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.fabric.fabric import FabricRequest, ServiceFabric
from repro.service.server import RequestStatus
from repro.storage.events import EventQueue
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.workloads.acob import generate_acob

from tests.faults.test_chaos_property import fingerprint

N_OBJECTS = 40
PLACEMENTS = ("shortest-queue", "round-robin")


class RepickFabric(ServiceFabric):
    """The loop this change replaced: re-pick the earliest busy replica
    after every step, and poll every request outstanding on it."""

    def run(self, specs):
        events = EventQueue()
        self._events = events
        requests = [
            FabricRequest(index, spec) for index, spec in enumerate(specs)
        ]
        for request in requests:
            events.schedule(request.spec.arrival_ms, ("arrival", request))
        while True:
            next_event = events.next_time()
            busy = [
                replica
                for shard in self.shards
                for replica in shard.replicas
                if replica.outstanding
            ]
            if busy:
                replica = min(
                    busy, key=lambda r: (r.clock, r.shard_id, r.replica_id)
                )
                if next_event is None or replica.clock < next_event:
                    self._step_replica(replica)
                    continue
            if next_event is None:
                break
            when, (kind, payload) = events.pop()
            if kind == "arrival":
                self._arrive(when, payload)
            else:
                self._fire_hedge(when, payload)
        self._events = None
        assert all(
            r.status in (FabricRequest.DONE, FabricRequest.SHED)
            for r in requests
        )
        return self._report(requests)

    def _step_replica(self, replica):
        advanced = replica.step()
        for request_id in list(replica.outstanding):
            if request_id not in replica.outstanding:
                continue  # cancelled as a hedge loser this sweep
            if replica.service.poll(request_id) is RequestStatus.DONE:
                self._complete(
                    replica.outstanding[request_id], replica, request_id
                )
        if not advanced and replica.outstanding:
            raise FabricError("replica idle with requests outstanding")


class RunsDryFabric(ServiceFabric):
    """Broken on purpose: steps the busy replicas until they run dry,
    past the next event."""

    def _step_busy(self, ranked, horizon):
        super()._step_busy(ranked, math.inf)


class CountingFabric(ServiceFabric):
    """Counts heap builds, replica steps, and runs of steps whose
    stopping event a completion cancelled."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.builds = self.steps = self.cancelled_stops = 0

    def _step_busy(self, ranked, horizon):
        self.builds += 1
        stop = self._events.next_time()
        super()._step_busy(ranked, horizon)
        self.cancelled_stops += self._events.next_time() != stop

    def _step_replica(self, replica):
        self.steps += 1
        super()._step_replica(replica)


def build(fabric_class, hedged, shed, placement, fault_seed, n_shards=2):
    """``n_shards`` x 2 replicas of one database, rebuilt as
    ``fabric_class``: replica (0, 1) runs 3x slow, replica 0 of the last
    shard reads through a fault injector and degrades on exhausted
    retries, and a 96-frame budget with a 4-deep wait queue makes
    requests queue, shrink and overflow."""
    built = build_sharded_fabric(
        generate_acob(N_OBJECTS, seed=2),
        n_shards=n_shards,
        replicas_per_shard=2,
        placement=placement,
        speed_factors={(0, 1): 3.0},
        hedging=HedgePolicy(multiplier=1.0) if hedged else None,
        shedding=(
            SheddingPolicy(target_ms=300.0, window=8, min_samples=4)
            if shed
            else None
        ),
        buffer_capacity=96,
        max_waiting=4,
    )
    flaky = built.shards[-1].replicas[0]
    FaultInjector(
        FaultConfig(
            seed=fault_seed, read_error_rate=0.2, max_consecutive_failures=2
        )
    ).attach(flaky.store.disk)
    # Fabric requests carry no fault mode: wrap the replica's submit.
    flaky.service.submit = functools.partial(
        flaky.service.submit,
        retry_policy=RetryPolicy(max_retries=1),
        on_fault="partial",
    )
    return fabric_class(
        built.shards,
        built.router,
        built.template,
        hedging=built.hedging,
    )


def drive(fabric, gaps, seed):
    """Run arrivals ``gaps`` ms apart (0 = a tie); ``(fabric, report)``."""
    times = [float(t) for t in itertools.accumulate(gaps)]
    specs = open_loop_workload(
        fabric, times, roots_per_request=(1, 3), seed=seed
    )
    return fabric, fabric.run(specs)


def observe(fabric, report):
    """Everything the two loops must agree on."""
    return {
        "requests": [
            (
                request.status,
                request.shard_id,
                list(request.attempts),
                request.complete_ms,
                request.won_by_hedge,
                request.shed_reason,
                fingerprint(request.results),
            )
            for request in report.requests
        ],
        "per_shard": report.per_shard,
        "clocks": [
            replica.clock
            for shard in fabric.shards
            for replica in shard.replicas
        ],
        "fleet": report.fleet.snapshot(),
        "replicas": report.replicas.snapshot(),
        "elapsed_ms": report.elapsed_ms,
    }


#: arrival gaps in ms; a 0 is a tie, and ties are where order is decided.
GAPS = st.lists(
    st.one_of(st.just(0), st.integers(0, 80)), min_size=1, max_size=30
)


@settings(max_examples=40, deadline=None)
@given(
    gaps=GAPS,
    seed=st.integers(0, 2**16),
    hedged=st.booleans(),
    shed=st.booleans(),
    placement=st.sampled_from(PLACEMENTS),
    fault_seed=st.integers(0, 2**16),
    n_shards=st.sampled_from((1, 2)),
)
def test_heap_stepping_equals_repicking(
    gaps, seed, hedged, shed, placement, fault_seed, n_shards
):
    config = (hedged, shed, placement, fault_seed, n_shards)
    expected = observe(*drive(build(RepickFabric, *config), gaps, seed))
    got = observe(*drive(build(ServiceFabric, *config), gaps, seed))
    assert got == expected


#: a schedule that reaches every case the property exists for.
BUSY_GAPS = [0, 0, 0, 5, 20, 0, 35, 10, 0, 60, 15, 5, 0, 90, 25, 40] * 2


def test_the_schedules_reach_hedges_sheds_faults_and_long_runs():
    """Vacuity guard: hedges fire and win, requests are shed and
    degraded, and one heap build serves several steps."""
    fabric, report = drive(
        build(CountingFabric, True, True, "round-robin", 3), BUSY_GAPS, 5
    )
    assert report.fleet.hedge_fired > 0 and report.fleet.hedge_won > 0
    assert report.shed
    assert report.replicas.objects_degraded > 0
    assert fabric.steps > 3 * fabric.builds
    assert observe(fabric, report) == observe(
        *drive(
            build(RepickFabric, True, True, "round-robin", 3), BUSY_GAPS, 5
        )
    )


def test_a_loop_that_runs_replicas_dry_is_caught():
    """The oracle has teeth: stepping past the next event is visible."""
    config = (True, False, "shortest-queue", 1)
    expected = observe(*drive(build(RepickFabric, *config), BUSY_GAPS, 5))
    broken = observe(*drive(build(RunsDryFabric, *config), BUSY_GAPS, 5))
    assert broken != expected


def test_a_completion_can_cancel_the_event_the_steps_stopped_at():
    """Two requests at t=0 on the two replicas of one shard, hedged
    late: the one-root request finishes before its hedge timer, the
    event the steps were heading for, and the three-root one must go on
    stepping towards its own timer, which it then beats too."""

    def run(fabric_class):
        built = build_sharded_fabric(
            generate_acob(N_OBJECTS, seed=2),
            n_shards=1,
            replicas_per_shard=2,
            hedging=HedgePolicy(multiplier=2.0),
        )
        fabric = fabric_class(
            built.shards,
            built.router,
            built.template,
            hedging=built.hedging,
        )
        roots = fabric.shards[0].roots
        specs = [
            RequestSpec(roots=(roots[0],)),
            RequestSpec(roots=tuple(roots[1:4])),
        ]
        return fabric, fabric.run(specs)

    fabric, report = run(CountingFabric)
    assert fabric.cancelled_stops > 0
    assert report.fleet.hedge_fired == 0
    assert observe(fabric, report) == observe(*run(RepickFabric))
