"""Equivalence of the optimized SweepPool against a naive reference.

The raw-speed pass gave :class:`~repro.core.schedulers.SweepPool` lazy
tombstones, an owner index, a per-page live counter, and incremental
residency tracking for the zero-seek probe.  None of that may change
*behaviour*: pop order, batch composition, and the page picked by
``take_resident_page`` must stay bit-identical to the obvious
implementation (one sorted list, full scans everywhere).

Hypothesis drives both pools through identical streams of adds,
elevator pops, whole-page and run batches, owner retractions,
zero-seek probes, and buffer residency changes (reads after pops,
arbitrary evictions), asserting after every operation that the two
pools return the same references and hold the same live entries.

The residency model follows the buffer's real contract: a page can
*become* resident only after a read, and reads happen only to pages
just popped from the pool (or to pages with nothing pending, loaded by
some other consumer of the buffer); eviction can happen at any time.

Retraction-heavy programs (bursts of ``remove_owner`` / ``remove_ref``,
then pops that cross the tombstones in both directions and reverse at
either end, and retracted references added back) run against the same
naive pool, and a fixed probe program evicts a confirmed page in the
step that flags new ones — failing a probe that trusts old
confirmations.

The elevator files, pops and batches in its own frame
(``ElevatorScheduler.add`` / ``pop`` / ``pop_batch`` work on the pool's
fields), so :class:`ElevatorPool` drives those through a real
scheduler — the head probe and the sweep direction set before each
pop — and every other operation on its :class:`SweepPool`.

A second property drives the pool the way the device server does: the
references of several clients in one pool, told apart by ``ref.client``
alone, with window serials that collide across clients, a global
admission sequence as the tie-break, per-client retraction and the
starvation override's nearest-to-head pick.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schedulers import (
    ElevatorScheduler,
    SweepPool,
    UnresolvedReference,
)
from repro.core.template import TemplateNode
from repro.storage.oid import Oid

NODE = TemplateNode("n")

#: Page-id range of the generated streams (small enough to collide).
N_PAGES = 48


def make_ref(serial, page, owner, rejection, seq, client=None):
    """One pool entry; ``rejection`` exercises the sort tie-break."""
    ref = UnresolvedReference(
        oid=Oid(1, serial),
        page_id=page,
        owner=owner,
        node=NODE,
        parent=None,
        parent_slot=-1,
        seq=seq,
        rejection=rejection,
    )
    ref.client = client
    return ref


class ElevatorPool:
    """A :class:`SweepPool` under an :class:`ElevatorScheduler`.

    ``add`` is the scheduler's; ``pop_next(head, direction)`` and
    ``pop_batch_next(head, direction, max_pages)`` park the head probe
    and the sweep direction, pop through the scheduler (no residency
    probe: the batch is the sweep's) and return the pop with the new
    direction.  Every other attribute is the pool's (``pool_cls``, so
    a mutant pool runs under the same scheduler).
    """

    def __init__(self, pool_cls=SweepPool):
        """An empty pool under a fresh elevator."""
        self.head = 0
        self.scheduler = ElevatorScheduler(head_fn=lambda: self.head)
        self.scheduler._pool = pool_cls()

    def add(self, ref):
        """File ``ref`` through the scheduler."""
        self.scheduler.add(ref)

    def pop_next(self, head, direction):
        """Elevator pop from ``head`` sweeping in ``direction``."""
        self.head = head
        self.scheduler._direction = direction
        return self.scheduler.pop(), self.scheduler._direction

    def pop_batch_next(self, head, direction, max_pages):
        """Elevator batch from ``head``: the sweep's next run."""
        self.head = head
        self.scheduler._direction = direction
        return self.scheduler.pop_batch(max_pages), self.scheduler._direction

    def __len__(self):
        """Number of pending references."""
        return len(self.scheduler)

    def __getattr__(self, name):
        """The pool's own operations and fields."""
        return getattr(self.scheduler._pool, name)


class NaiveSweepPool:
    """The obvious pool: one sorted list, linear scans, no caches.

    Implements exactly the SweepPool operations the suite compares,
    from the documented semantics — sorted by ``(page, -rejection,
    seq)``, elevator positioning, whole-page batches, and a
    full-scan zero-seek probe.
    """

    def __init__(self):
        """Start empty."""
        self.entries = []

    def __len__(self):
        """Number of pending references."""
        return len(self.entries)

    def add(self, ref, seq):
        """Insert ``ref`` keeping the list sorted."""
        self.entries.append((ref.page_id, -ref.rejection, seq, ref))
        self.entries.sort(key=lambda entry: entry[:3])

    def remove_owner(self, owner, client=None):
        """Retract one client's owner, in insertion (seq) order."""
        def hit(entry):
            return (entry[3].client, entry[3].owner) == (client, owner)

        removed = sorted(filter(hit, self.entries), key=lambda e: e[2])
        self.entries = [entry for entry in self.entries if not hit(entry)]
        return [entry[3] for entry in removed]

    def nearest_of(self, client, head):
        """Full scan: ``client``'s entry nearest ``head``, lowest seq."""
        mine = [entry for entry in self.entries if entry[3].client == client]
        if not mine:
            return None
        return min(mine, key=lambda e: (abs(e[0] - head), e[2]))[3]

    def remove_ref(self, ref):
        """Retract one specific reference."""
        self.entries = [e for e in self.entries if e[3] is not ref]

    def _locate(self, head, direction):
        """SCAN positioning: next entry and possibly reversed direction."""
        above = [entry for entry in self.entries if entry[0] >= head]
        below = [entry for entry in self.entries if entry[0] < head]
        if direction > 0:
            if above:
                return min(above), direction
            return max(below), -1
        if below:
            return max(below), direction
        return min(above), 1

    def pop_next(self, head, direction):
        """Elevator pop: nearest entry in the sweep direction."""
        entry, direction = self._locate(head, direction)
        self.entries.remove(entry)
        return entry[3], direction

    def take_page(self, page_id):
        """Remove and return every reference on one page, pool order."""
        taken = sorted(
            (entry for entry in self.entries if entry[0] == page_id),
            key=lambda entry: entry[:3],
        )
        self.entries = [
            entry for entry in self.entries if entry[0] != page_id
        ]
        return [entry[3] for entry in taken]

    def take_run(self, page_id, direction, max_pages):
        """Contiguous whole-page batch in the sweep direction."""
        refs = self.take_page(page_id)
        pages = 1
        while refs and pages < max_pages:
            next_page = page_id + direction * pages
            if next_page < 0:
                break
            more = self.take_page(next_page)
            if not more:
                break
            refs.extend(more)
            pages += 1
        return refs

    def take_resident_page(self, resident_fn):
        """Full scan: all refs of the lowest resident pending page."""
        pending = sorted({entry[0] for entry in self.entries})
        resident = [page for page in pending if resident_fn(page)]
        if not resident:
            return []
        return self.take_page(min(resident))

    def pop_batch_next(self, head, direction, max_pages):
        """Elevator batch: position, then take the run."""
        entry, direction = self._locate(head, direction)
        return self.take_run(entry[0], direction, max_pages), direction

    def live_pages(self):
        """Set of pages with pending references."""
        return {entry[0] for entry in self.entries}


@st.composite
def pool_op_streams(draw):
    """Mixed maintenance/pop/probe/residency op streams.

    ``mark`` booleans on pop-style ops simulate the read that follows
    a pop (turning the popped pages buffer-resident) — the event the
    incremental residency tracking keys on.
    """
    mark = st.booleans()
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, N_PAGES - 1),   # page
                    st.integers(0, 4),             # owner
                    st.integers(0, 3),             # rejection grade
                ),
                st.tuples(st.just("pop"), mark),
                st.tuples(
                    st.just("take_page"), st.integers(0, N_PAGES - 1)
                ),
                st.tuples(st.just("batch"), st.integers(1, 4), mark),
                st.tuples(st.just("retract"), st.integers(0, 4)),
                st.tuples(st.just("probe")),
                st.tuples(st.just("evict"), st.integers(0, 63)),
                st.tuples(
                    st.just("load"), st.integers(0, N_PAGES - 1)
                ),
            ),
            max_size=120,
        )
    )


def assert_same_refs(fast_refs, naive_refs):
    """Both pools must return the very same reference objects in order."""
    assert [id(ref) for ref in fast_refs] == [
        id(ref) for ref in naive_refs
    ]


def assert_same_state(pool, naive):
    """Live entries of the optimized pool match the naive list exactly."""
    fast_entries = [
        (page, neg_rej, seq, id(ref))
        for page, neg_rej, seq, ref in pool.live_entries()
    ]
    naive_entries = [
        (page, neg_rej, seq, id(ref))
        for page, neg_rej, seq, ref in naive.entries
    ]
    assert fast_entries == naive_entries
    assert len(pool) == len(naive)


@given(pool_op_streams())
@settings(max_examples=60, deadline=None)
def test_sweep_pool_matches_naive_reference(ops):
    """Every operation returns identical refs and leaves equal state."""
    pool = ElevatorPool()
    naive = NaiveSweepPool()
    resident = set()
    probes = 0
    head, direction = 0, 1
    serial = seq = 0

    def resident_fn(page_id):
        return page_id in resident

    def mark_read(refs):
        # The caller reads the pages it popped; their siblings (if any)
        # are now buffer-resident without any further pool event.
        for ref in refs:
            resident.add(ref.page_id)

    for op in ops:
        kind = op[0]
        if kind == "add":
            _, page, owner, grade = op
            serial += 1
            seq += 1
            ref = make_ref(serial, page, owner, grade / 4.0, seq)
            pool.add(ref)
            naive.add(ref, seq)
        elif kind == "pop" and len(naive):
            prev_direction = direction
            ref, direction = pool.pop_next(head, prev_direction)
            naive_ref, naive_dir = naive.pop_next(head, prev_direction)
            assert id(ref) == id(naive_ref)
            assert direction == naive_dir
            head = ref.page_id
            if op[1]:
                mark_read([ref])
        elif kind == "take_page":
            assert_same_refs(
                pool.take_run(op[1], 1, 1), naive.take_page(op[1])
            )
        elif kind == "batch" and len(naive):
            prev_direction = direction
            refs, direction = pool.pop_batch_next(head, prev_direction, op[1])
            naive_refs, naive_dir = naive.pop_batch_next(
                head, prev_direction, op[1]
            )
            assert_same_refs(refs, naive_refs)
            assert direction == naive_dir
            if refs:
                head = refs[-1].page_id
            if op[2]:
                mark_read(refs)
        elif kind == "retract":
            assert_same_refs(
                pool.remove_owner(op[1]), naive.remove_owner(op[1])
            )
        elif kind == "probe":
            probes += 1
            refs = pool.take_resident_page(resident_fn)
            assert_same_refs(
                refs, naive.take_resident_page(resident_fn)
            )
            mark_read(refs)  # the batch's page stays in the buffer
        elif kind == "evict":
            # Bounded buffer: any page may leave at any time.
            if resident:
                victims = sorted(resident)
                resident.discard(victims[op[1] % len(victims)])
        elif kind == "load":
            # Some other consumer of the buffer reads a page this pool
            # has nothing pending on (a pending page can only turn
            # resident via a pool-visible event — see module docstring).
            if op[1] not in naive.live_pages():
                resident.add(op[1])
        assert_same_state(pool, naive)

    # Drain both pools; the remaining stream must also agree.
    while len(naive):
        prev_direction = direction
        ref, direction = pool.pop_next(head, prev_direction)
        naive_ref, _ = naive.pop_next(head, prev_direction)
        assert id(ref) == id(naive_ref)
        head = ref.page_id
    assert len(pool) == 0


@given(pool_op_streams())
@example(
    # A single pop leaves a sibling on the page it is about to read:
    # only the pop can flag that page for the next probe.
    [("add", 5, 0, 0), ("add", 5, 1, 0), ("pop", True)]
)
@settings(max_examples=30, deadline=None)
def test_probe_after_every_op_matches_full_scan(ops):
    """A probe between every pair of ops still matches the full scan.

    This is the adversarial schedule for the incremental tracking: the
    ``_recent_pages`` flag set is cleared by each probe, so any missed
    flagging event would surface as a divergence on the very next one.
    """
    pool = ElevatorPool()
    naive = NaiveSweepPool()
    resident = set()
    head, direction = 0, 1
    serial = seq = 0

    def resident_fn(page_id):
        return page_id in resident

    for op in ops:
        kind = op[0]
        if kind == "add":
            _, page, owner, grade = op
            serial += 1
            seq += 1
            ref = make_ref(serial, page, owner, grade / 4.0, seq)
            pool.add(ref)
            naive.add(ref, seq)
        elif kind == "pop" and len(naive):
            prev_direction = direction
            ref, direction = pool.pop_next(head, prev_direction)
            naive_ref, _ = naive.pop_next(head, prev_direction)
            assert id(ref) == id(naive_ref)
            head = ref.page_id
            if op[1]:
                resident.add(ref.page_id)
        elif kind == "retract":
            assert_same_refs(
                pool.remove_owner(op[1]), naive.remove_owner(op[1])
            )
        elif kind == "evict" and resident:
            victims = sorted(resident)
            resident.discard(victims[op[1] % len(victims)])
        elif kind == "load" and op[1] not in naive.live_pages():
            resident.add(op[1])
        # The adversarial part: probe after *every* operation.
        refs = pool.take_resident_page(resident_fn)
        assert_same_refs(refs, naive.take_resident_page(resident_fn))
        assert_same_state(pool, naive)


@st.composite
def shared_pool_op_streams(draw):
    """Op streams of a pool several clients share (the device server's).

    Clients 0..2 each number their owners 0..2, so every window serial
    collides across clients.
    """
    client = st.integers(0, 2)
    owner = st.integers(0, 2)
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, 11),            # page: shared often
                    client,
                    owner,
                    st.integers(0, 1),             # rejection grade
                ),
                st.tuples(st.just("pop")),
                st.tuples(st.just("batch"), st.integers(1, 3)),
                st.tuples(st.just("retract"), client, owner),
                st.tuples(st.just("nearest"), client),
            ),
            max_size=120,
        )
    )


@given(shared_pool_op_streams())
@settings(max_examples=60, deadline=None)
def test_shared_pool_tells_clients_apart_by_the_reference_alone(ops):
    """What the device server does to a pool, against the full scans.

    Retracting one client's owner leaves the other clients' same-numbered
    owners intact; same-page, same-rejection references of different
    clients pop in global admission order; and the per-client
    nearest-to-head pick is the one a full scan finds.
    """
    pool = ElevatorPool()
    naive = NaiveSweepPool()
    head, direction = 0, 1
    admitted = 0
    born = {}  # client -> its operator's own (colliding) sequence

    for op in ops:
        kind = op[0]
        if kind == "add":
            _, page, client, owner, grade = op
            born[client] = born.get(client, 0) + 1
            ref = make_ref(
                admitted, page, owner, grade / 2.0, born[client], client
            )
            # The server stamps its global admission sequence onto the
            # reference at enqueue; the pool reads nothing else.
            admitted += 1
            ref.seq = admitted
            pool.add(ref)
            naive.add(ref, ref.seq)
        elif kind == "pop" and len(naive):
            prev_direction = direction
            ref, direction = pool.pop_next(head, prev_direction)
            naive_ref, naive_dir = naive.pop_next(head, prev_direction)
            assert ref is naive_ref
            assert direction == naive_dir
            head = ref.page_id
        elif kind == "batch" and len(naive):
            prev_direction = direction
            refs, direction = pool.pop_batch_next(head, prev_direction, op[1])
            naive_refs, naive_dir = naive.pop_batch_next(
                head, prev_direction, op[1]
            )
            assert_same_refs(refs, naive_refs)
            assert direction == naive_dir
            # One page's references come out in admission order within a
            # rejection grade, whichever clients they belong to.
            for first, second in zip(refs, refs[1:]):
                if first.page_id == second.page_id:
                    assert (-first.rejection, first.seq) < (
                        -second.rejection, second.seq
                    )
            head = refs[-1].page_id
        elif kind == "retract":
            _, client, owner = op
            others = [
                entry for entry in naive.entries
                if (entry[3].client, entry[3].owner) != (client, owner)
            ]
            removed = pool.remove_owner(owner, client)
            assert_same_refs(removed, naive.remove_owner(owner, client))
            assert all(
                (ref.client, ref.owner) == (client, owner) for ref in removed
            )
            assert naive.entries == others
        elif kind == "nearest":
            ref = pool.nearest_of(op[1], head)
            assert ref is naive.nearest_of(op[1], head)
            if ref is not None:
                assert ref.client == op[1]
                pool.remove_ref(ref)
                naive.remove_ref(ref)
                head = ref.page_id
        assert_same_state(pool, naive)

    while len(naive):
        prev_direction = direction
        ref, direction = pool.pop_next(head, prev_direction)
        assert ref is naive.pop_next(head, prev_direction)[0]
        head = ref.page_id
    assert len(pool) == 0


@st.composite
def tombstone_programs(draw):
    """Retraction-heavy programs: bursts of ``remove_owner`` and
    ``remove_ref`` leave tombstones across the list, then pops in either
    sweep direction cross them — from a head parked at the bottom, in
    the middle or past the top, so the sweep reverses at either end —
    and retracted references come back."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, 15),            # page: few, so dense
                    st.integers(0, 5),             # owner
                    st.integers(0, 2),             # rejection grade
                ),
                st.tuples(
                    st.just("burst"),
                    st.lists(st.integers(0, 5), min_size=1, max_size=4),
                ),
                st.tuples(st.just("remove_ref"), st.integers(0, 63)),
                st.tuples(st.just("readd"), st.integers(0, 63)),
                st.tuples(
                    st.just("park"),
                    st.sampled_from((0, 7, 16)),   # bottom, middle, past top
                    st.sampled_from((1, -1)),
                ),
                st.tuples(st.just("pop")),
                st.tuples(st.just("batch"), st.integers(1, 3)),
                st.tuples(st.just("take_page"), st.integers(0, 15)),
            ),
            max_size=150,
        )
    )


def run_tombstone_program(pool, ops):
    """Drive ``pool`` and the naive pool through ``ops``, asserting
    after every operation; retracted references are kept for re-adding
    (a re-add while the old entry is still a tombstone must not let it
    resurrect)."""
    naive = NaiveSweepPool()
    head, direction = 0, 1
    retracted = []
    serial = 0
    for op in ops:
        kind = op[0]
        if kind == "add":
            _, page, owner, grade = op
            serial += 1
            ref = make_ref(serial, page, owner, grade / 2.0, serial)
            pool.add(ref)
            naive.add(ref, ref.seq)
        elif kind == "burst":
            for owner in op[1]:
                removed = pool.remove_owner(owner)
                assert_same_refs(removed, naive.remove_owner(owner))
                retracted.extend(removed)
        elif kind == "remove_ref" and len(naive):
            ref = naive.entries[op[1] % len(naive)][3]
            pool.remove_ref(ref)
            naive.remove_ref(ref)
            retracted.append(ref)
        elif kind == "readd" and retracted:
            ref = retracted.pop(op[1] % len(retracted))
            pool.add(ref)
            naive.add(ref, ref.seq)
        elif kind == "park":
            _, head, direction = op
        elif kind == "pop" and len(naive):
            prev_direction = direction
            ref, direction = pool.pop_next(head, prev_direction)
            naive_ref, naive_dir = naive.pop_next(head, prev_direction)
            assert ref is naive_ref
            assert direction == naive_dir
            head = ref.page_id
        elif kind == "batch" and len(naive):
            prev_direction = direction
            refs, direction = pool.pop_batch_next(head, prev_direction, op[1])
            naive_refs, naive_dir = naive.pop_batch_next(
                head, prev_direction, op[1]
            )
            assert_same_refs(refs, naive_refs)
            assert direction == naive_dir
            head = refs[-1].page_id
        elif kind == "take_page":
            assert_same_refs(pool.take_run(op[1], 1, 1), naive.take_page(op[1]))
        assert_same_state(pool, naive)


@given(tombstone_programs())
@example(
    # A retracted reference re-added after a newer sibling of its owner:
    # the retraction still returns the two in admission order.
    [("add", 0, 2, 0), ("remove_ref", 0), ("add", 0, 2, 0), ("readd", 0),
     ("burst", [2])]
)
@settings(max_examples=80, deadline=None)
def test_tombstone_heavy_programs_match_naive_reference(ops):
    """Pops and batches that cross tombstones in both directions, and
    re-added retracted references, agree with the full scans."""
    run_tombstone_program(ElevatorPool(), ops)


def test_tombstones_crossed_at_both_reversals():
    """A fixed program: tombstones sit at both ends of the list, so the
    reversal at the top and the one at the bottom each purge on their
    way; then a reference is re-added over its own tombstone."""
    ends = (0, 1, 2, 17, 18, 19)
    ops = [("add", page, int(page in ends), 0) for page in range(20)]
    ops.append(("burst", [1]))
    top = [("park", 17, 1), ("pop",), ("pop",)]
    bottom = [("park", 2, -1), ("pop",), ("pop",)]
    rest = [("remove_ref", 0), ("readd", 6), ("batch", 3), ("readd", 0)]
    rest += [("readd", 0), ("park", 20, 1), ("pop",), ("batch", 2)]
    pool = ElevatorPool()
    run_tombstone_program(pool, ops)
    assert len(pool._entries) == 20  # six tombstones, not yet purged
    pool = ElevatorPool()
    run_tombstone_program(pool, ops + top)
    assert len(pool._entries) == 15  # two popped, 17 to 19 purged
    pool = ElevatorPool()
    run_tombstone_program(pool, ops + top + bottom)
    # The bottom reversal purges 1 and 0 going down, then 2 — the
    # tombstone the split pointed at — going up.
    assert len(pool._entries) == 10
    run_tombstone_program(ElevatorPool(), ops + top + bottom + rest)


def test_readded_reference_does_not_resurrect_its_tombstone():
    """Retract a reference, re-add the same object while its tombstone
    is still in the list: it is pending exactly once."""
    pool = ElevatorPool()
    refs = [make_ref(n, n, n, 0.0, n) for n in range(6)]
    for ref in refs:
        pool.add(ref)
    pool.remove_owner(2)
    assert len(pool._entries) == 6  # a tombstone, not yet purged
    pool.add(refs[2])
    assert len(pool) == 6
    popped = [pool.pop_next(0, 1)[0] for _ in range(6)]
    assert popped == refs
    assert len(pool) == 0 and pool._entries == []


def _probe_program(pool_cls):
    """Pages 3 and 5 are pending and resident; the first probe takes 3
    and confirms 5.  Then, in one step, 5 is evicted while new
    references flag pages 7 (resident) and 9 (not).  The second probe
    must take 7 — not the stale 5."""
    resident = {3, 5, 7}
    pool = ElevatorPool(pool_cls)
    naive = NaiveSweepPool()
    refs = {}
    for serial, page in enumerate((3, 5), start=1):
        refs[page] = make_ref(serial, page, 0, 0.0, serial)
        pool.add(refs[page])
        naive.add(refs[page], serial)
    first = pool.take_resident_page(resident.__contains__)
    assert_same_refs(first, naive.take_resident_page(resident.__contains__))
    resident.discard(5)
    for serial, page in enumerate((7, 9), start=3):
        refs[page] = make_ref(serial, page, 1, 0.0, serial)
        pool.add(refs[page])
        naive.add(refs[page], serial)
    second = pool.take_resident_page(resident.__contains__)
    assert_same_refs(second, naive.take_resident_page(resident.__contains__))
    assert second == [refs[7]]
    assert_same_state(pool, naive)


class _UncheckedConfirmedPool(SweepPool):
    """A broken probe: trusts earlier confirmations without re-checking
    them, so an evicted page is served as a zero-seek batch."""

    def take_resident_page(self, resident_fn):
        """Checks newly flagged pages only, then takes ``min(confirmed)``."""
        for page_id in self._recent_pages:
            if page_id in self._page_live and resident_fn(page_id):
                self._resident_live.add(page_id)
        self._recent_pages.clear()
        if self._resident_live:
            return self.take_run(min(self._resident_live), 1, 1)
        return []


def test_probe_drops_a_confirmed_page_evicted_as_new_pages_flag():
    """The eviction-and-flag step of :func:`_probe_program`."""
    _probe_program(SweepPool)


def test_unchecked_confirmed_pages_are_caught():
    """The oracle is sharp: the broken probe fails the program."""
    with pytest.raises(AssertionError):
        _probe_program(_UncheckedConfirmedPool)
