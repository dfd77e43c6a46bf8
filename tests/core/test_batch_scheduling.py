"""Tests for scheduler batches: pop_batch, residency, owner index."""

import pytest

from repro.core.schedulers import (
    BreadthFirstScheduler,
    DepthFirstScheduler,
    ElevatorScheduler,
    UnresolvedReference,
    make_scheduler,
)
from repro.core.template import TemplateNode
from repro.errors import SchedulerError
from repro.storage.oid import Oid

NODE = TemplateNode("n")


def ref(name, page=0, owner=0, seq=0, rejection=0.0, is_root=False):
    """A labelled reference; ``name`` is carried in the Oid serial."""
    return UnresolvedReference(
        oid=Oid(1, name),
        page_id=page,
        owner=owner,
        node=NODE,
        parent=None,
        parent_slot=-1,
        seq=seq,
        rejection=rejection,
        is_root=is_root,
    )


def serials(refs):
    return [r.oid.serial for r in refs]


class TestElevatorPopBatch:
    def test_same_page_coalesced(self):
        s = ElevatorScheduler()
        s.add(ref(1, page=5, seq=0))
        s.add(ref(2, page=5, seq=1))
        s.add(ref(3, page=9, seq=2))
        batch = s.pop_batch(max_pages=1)
        assert serials(batch) == [1, 2]
        assert len(s) == 1

    def test_contiguous_run_up(self):
        s = ElevatorScheduler()
        for name, page in ((1, 5), (2, 6), (3, 7), (4, 9)):
            s.add(ref(name, page=page, seq=name))
        batch = s.pop_batch(max_pages=4)
        # Pages 5,6,7 are contiguous; 9 is a gap and stays queued.
        assert serials(batch) == [1, 2, 3]
        assert serials(s.pop_batch(max_pages=4)) == [4]

    def test_contiguous_run_down(self):
        head = [10]
        s = ElevatorScheduler(head_fn=lambda: head[0])
        for name, page in ((1, 8), (2, 7), (3, 2)):
            s.add(ref(name, page=page, seq=name))
        # head=10, nothing above: the sweep reverses and the batch
        # takes 8 then the adjacent 7, not the distant 2.
        batch = s.pop_batch(max_pages=2)
        assert serials(batch) == [1, 2]
        assert serials(s.pop_batch(max_pages=2)) == [3]

    def test_max_pages_bounds_pages_not_refs(self):
        s = ElevatorScheduler()
        for name, (page, seq) in enumerate(
            ((5, 0), (5, 1), (6, 2), (7, 3)), start=1
        ):
            s.add(ref(name, page=page, seq=seq))
        batch = s.pop_batch(max_pages=2)
        # Three refs but only two distinct pages (5, 5, 6).
        assert serials(batch) == [1, 2, 3]

    def test_batch_of_one_matches_pop(self):
        a = ElevatorScheduler()
        b = ElevatorScheduler()
        for name, page in ((1, 3), (2, 9), (3, 1)):
            a.add(ref(name, page=page, seq=name))
            b.add(ref(name, page=page, seq=name))
        popped = []
        while len(a):
            popped.append(a.pop().oid.serial)
        batched = []
        while len(b):
            batched.extend(serials(b.pop_batch(max_pages=1)))
        assert batched == popped

    def test_empty_raises(self):
        with pytest.raises(SchedulerError):
            ElevatorScheduler().pop_batch()

    def test_one_positioning_op_per_batch(self):
        s = ElevatorScheduler()
        s.add(ref(1, page=5, seq=0))
        s.add(ref(2, page=6, seq=1))
        ops_before = s.ops
        s.pop_batch(max_pages=2)
        assert s.ops == ops_before + 1


class TestElevatorResidency:
    def test_resident_page_served_first(self):
        s = ElevatorScheduler(resident_fn=lambda page: page == 40)
        s.add(ref(1, page=5, seq=0))
        s.add(ref(2, page=40, seq=1))
        batch = s.pop_batch(max_pages=1)
        # Page 40 is buffer-resident: serving it first costs no seek.
        assert serials(batch) == [2]
        assert s.resident_batches == 1

    def test_no_resident_pages_falls_back_to_sweep(self):
        s = ElevatorScheduler(resident_fn=lambda page: False)
        s.add(ref(1, page=5, seq=0))
        s.add(ref(2, page=40, seq=1))
        assert serials(s.pop_batch(max_pages=1)) == [1]
        assert s.resident_batches == 0

    def test_single_pop_ignores_residency(self):
        # The paper's pure SCAN: pop() must stay position-ordered even
        # when a resident page is pending (figure shapes depend on it).
        s = ElevatorScheduler(resident_fn=lambda page: page == 40)
        s.add(ref(1, page=5, seq=0))
        s.add(ref(2, page=40, seq=1))
        assert s.pop().oid.serial == 1

    def test_make_scheduler_wires_resident_fn(self):
        # Satellite: make_scheduler used to silently drop resident_fn
        # for non-adaptive schedulers.
        s = make_scheduler(
            "elevator",
            head_fn=lambda: 0,
            resident_fn=lambda page: page == 40,
        )
        s.add(ref(1, page=5, seq=0))
        s.add(ref(2, page=40, seq=1))
        assert serials(s.pop_batch(max_pages=1)) == [2]
        assert s.resident_batches == 1


class TestDequeSchedulers:
    def test_default_pop_batch_is_single_pop(self):
        for cls in (DepthFirstScheduler, BreadthFirstScheduler):
            s = cls()
            s.add(ref(1, is_root=True))
            s.add(ref(2, is_root=True))
            assert len(s.pop_batch(max_pages=8)) == 1

    def test_remove_owner_ops_proportional_to_removed(self):
        s = DepthFirstScheduler()
        for name in range(1, 101):
            s.add(ref(name, owner=name % 2, is_root=True))
        ops_before = s.ops
        removed = s.remove_owner(1)
        assert len(removed) == 50
        assert s.ops == ops_before + 50
        assert len(s) == 50

    def test_pop_after_remove_owner_skips_tombstones(self):
        s = BreadthFirstScheduler()
        s.add(ref(1, owner=1, is_root=True))
        s.add(ref(2, owner=2, is_root=True))
        s.add(ref(3, owner=1, is_root=True))
        s.remove_owner(1)
        assert s.pop().oid.serial == 2
        assert len(s) == 0

    def test_readding_same_ref_object(self):
        s = DepthFirstScheduler()
        r = ref(1, owner=1, is_root=True)
        s.add(r)
        s.remove_owner(1)
        s.add(r)  # the tombstoned object comes back
        assert s.pop().oid.serial == 1


class TestOwnerIndexedPools:
    def test_elevator_remove_owner_ops(self):
        s = ElevatorScheduler()
        for name in range(1, 41):
            s.add(ref(name, page=name, owner=name % 4, seq=name))
        ops_before = s.ops
        removed = s.remove_owner(0)
        assert len(removed) == 10
        assert s.ops == ops_before + 10

    def test_elevator_sweep_unperturbed_by_removal(self):
        s = ElevatorScheduler()
        for name, page in ((1, 2), (2, 4), (3, 6)):
            s.add(ref(name, page=page, owner=name, seq=name))
        s.remove_owner(2)
        assert s.pop().oid.serial == 1
        assert s.pop().oid.serial == 3
