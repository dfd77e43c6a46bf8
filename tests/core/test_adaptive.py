"""Tests for the adaptive scheduler (Section 7's integrated algorithm)."""

import pytest

from repro.core.schedulers import (
    DETOUR_PAGES,
    AdaptiveElevatorScheduler,
    make_scheduler,
)
from repro.errors import SchedulerError

from tests.core.test_schedulers import drain, ref


class TestBufferAwareness:
    def test_resident_pages_served_first(self):
        resident = {7}
        s = AdaptiveElevatorScheduler(
            head_fn=lambda: 0, resident_fn=lambda p: p in resident
        )
        s.add(ref(1, page=2))
        s.add(ref(2, page=7))  # resident: free, despite being farther
        assert s.pop().oid.serial == 2
        assert s.resident_hits == 1
        assert s.pop().oid.serial == 1

    def test_no_residents_behaves_like_elevator(self):
        head = [5]
        s = AdaptiveElevatorScheduler(head_fn=lambda: head[0])
        for serial, page in ((1, 2), (2, 7), (3, 9)):
            s.add(ref(serial, page=page))
        assert s.pop().oid.serial == 2
        head[0] = 7
        assert s.pop().oid.serial == 3
        head[0] = 9
        assert s.pop().oid.serial == 1


class TestPredicateDetours:
    """Budget ``rejection x DETOUR_PAGES`` (64 pages for a certain
    rejector) above the sweep-optimal choice."""

    def test_detour_to_likely_rejector(self):
        s = AdaptiveElevatorScheduler(head_fn=lambda: 0)
        s.add(ref(1, page=5, rejection=0.0, seq=1))
        s.add(ref(2, page=60, rejection=0.9, seq=2))  # extra 55 <= 57.6
        assert s.pop().oid.serial == 2
        assert s.detours == 1

    def test_detour_budget_respected(self):
        s = AdaptiveElevatorScheduler(head_fn=lambda: 0)
        s.add(ref(1, page=5, rejection=0.0, seq=1))
        s.add(ref(2, page=70, rejection=0.9, seq=2))  # extra 65 > 57.6
        assert s.pop().oid.serial == 1
        assert s.detours == 0

    @pytest.mark.parametrize(
        "extra, detours", [(DETOUR_PAGES, True), (DETOUR_PAGES + 1, False)]
    )
    def test_budget_edge_for_a_certain_rejector(self, extra, detours):
        s = AdaptiveElevatorScheduler(head_fn=lambda: 0)
        s.add(ref(1, page=5, rejection=0.0, seq=1))
        s.add(ref(2, page=5 + extra, rejection=1.0, seq=2))
        assert s.pop().oid.serial == (2 if detours else 1)
        assert s.detours == int(detours)


class TestPoolSemantics:
    def test_remove_owner(self):
        s = AdaptiveElevatorScheduler()
        s.add(ref(1, page=1, owner=0))
        s.add(ref(2, page=2, owner=1))
        removed = s.remove_owner(0)
        assert [r.oid.serial for r in removed] == [1]
        assert drain(s) == [2]

    def test_empty_pop(self):
        with pytest.raises(SchedulerError):
            AdaptiveElevatorScheduler().pop()

    def test_registry_wiring(self):
        resident = {3}
        s = make_scheduler(
            "adaptive",
            head_fn=lambda: 0,
            resident_fn=lambda p: p in resident,
        )
        s.add(ref(1, page=9))
        s.add(ref(2, page=3))
        assert s.pop().oid.serial == 2  # resident first


class TestEndToEnd:
    def test_assembles_correctly(self, small_acob, small_layout):
        from repro.core.assembly import Assembly
        from repro.iterator import ListSource
        from repro.workloads.acob import make_template

        op = Assembly(
            ListSource(small_layout.root_order),
            small_layout.store,
            make_template(small_acob),
            window_size=8,
            scheduler="adaptive",
        )
        emitted = op.execute()
        assert len(emitted) == 30
        for cobj in emitted:
            cobj.verify_swizzled()

    def test_never_worse_than_elevator_on_predicates(self):
        from repro.bench.harness import ExperimentConfig, run_experiment

        results = {}
        for scheduler in ("elevator", "adaptive"):
            results[scheduler] = run_experiment(
                ExperimentConfig(
                    n_complex_objects=300,
                    clustering="inter-object",
                    scheduler=scheduler,
                    window_size=30,
                    selectivity=0.3,
                    cluster_pages=64,
                )
            )
        assert results["adaptive"].emitted == results["elevator"].emitted
        assert (
            results["adaptive"].avg_seek
            <= results["elevator"].avg_seek * 1.05
        )
