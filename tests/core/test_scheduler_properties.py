"""Property-based tests for all reference schedulers.

Whatever the policy, a scheduler is a multiset with a removal rule:
everything added comes out exactly once (unless retracted), retraction
removes precisely one owner's references, and operation counters only
grow.  Hypothesis drives random add/pop/retract streams through every
scheduler and checks those contracts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multidevice import MultiDeviceScheduler
from repro.core.schedulers import (
    AdaptiveElevatorScheduler,
    BreadthFirstScheduler,
    DepthFirstScheduler,
    ElevatorScheduler,
    UnresolvedReference,
)
from repro.core.template import TemplateNode
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.oid import Oid

NODE = TemplateNode("n")


def make_ref(serial, page, owner, seq):
    return UnresolvedReference(
        oid=Oid(1, serial),
        page_id=page,
        owner=owner,
        node=NODE,
        parent=None,
        parent_slot=-1,
        seq=seq,
    )


def make_schedulers():
    head = [0]
    disk = MultiDeviceDisk(n_devices=3, pages_per_device=40)
    return [
        DepthFirstScheduler(),
        BreadthFirstScheduler(),
        ElevatorScheduler(head_fn=lambda: head[0]),
        AdaptiveElevatorScheduler(head_fn=lambda: head[0]),
        MultiDeviceScheduler(disk),
    ]


@st.composite
def op_streams(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, 119),  # page within the multi-disk
                    st.integers(0, 4),    # owner
                ),
                st.tuples(st.just("pop"), st.just(0), st.just(0)),
                st.tuples(
                    st.just("retract"), st.just(0), st.integers(0, 4)
                ),
            ),
            max_size=80,
        )
    )


@settings(max_examples=40, deadline=None)
@given(op_streams())
def test_every_scheduler_is_a_faithful_multiset(ops):
    for scheduler in make_schedulers():
        added = []       # serials currently inside
        popped = []
        serial = 0
        seq = 0
        for op, page, owner in ops:
            if op == "add":
                serial += 1
                seq += 1
                scheduler.add(make_ref(serial, page, owner, seq))
                added.append((serial, owner))
            elif op == "pop" and len(scheduler):
                ref = scheduler.pop()
                popped.append(ref.oid.serial)
                added = [(s, o) for s, o in added if s != ref.oid.serial]
            elif op == "retract":
                removed = scheduler.remove_owner(owner)
                removed_serials = {r.oid.serial for r in removed}
                expected = {s for s, o in added if o == owner}
                assert removed_serials == expected
                added = [(s, o) for s, o in added if o != owner]
            assert len(scheduler) == len(added)
        # Drain: everything still inside comes out exactly once.
        drained = []
        while len(scheduler):
            drained.append(scheduler.pop().oid.serial)
        assert sorted(drained) == sorted(s for s, _o in added)
        # Nothing was ever duplicated or lost overall.
        assert len(set(popped + drained)) == len(popped) + len(drained)
        assert scheduler.ops >= len(popped) + len(drained)
