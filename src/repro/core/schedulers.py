"""Reference-pool scheduling: depth-first, breadth-first, elevator.

"At any stage of assembling a complex object there may be several
references yet to be resolved … Ideally, the reference that reduces
disk head movement and overall assembly time will be chosen." (§4)

The pool of :class:`UnresolvedReference` items is the data structure
whose maintenance is the only CPU overhead of set-oriented assembly
(paper, footnote 5: "a list, queue or priority queue").  Three
schedulers implement Section 6.2:

* **depth-first** — LIFO within a complex object, earlier windows
  first: "equivalent to object-at-a-time assembly, regardless of
  window size";
* **breadth-first** — FIFO across the window ("'breadth' refers to the
  breadth of the window and not … a single complex object");
* **elevator** — the SCAN policy over physical page numbers,
  "minimizing disk head movement"; ties on the same page break toward
  the higher rejection probability, implementing Section 5's rule that
  equal-cost fetches prefer the component more likely to abort the
  object.

Every structure operation is counted (``ops``) so the footnote-5
overhead claim can be measured (ablation A-1).  The counters are kept
*honest* with respect to the underlying work: an ``add`` or a ``pop``
(or a ``pop_batch``, which performs a single positioning search) is
one operation, and ``remove_owner`` counts one operation per reference
actually retracted.  The pools back this accounting with matching
asymptotics — the sorted sweep pool and both deque pools keep an
**owner index**, so retracting an aborted object's k references costs
O(k) bookkeeping instead of the full-pool rebuild the original
implementation paid (which made abort-heavy runs quadratic).

There is one sorted pool (:class:`SweepPool`, constructed only here)
and one scheduler body over it (:class:`_SweepScheduler`): the
elevator and the adaptive elevator differ only in their pick,
and the device server's per-device request queues (§7) are plain
elevators holding many clients' references.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from collections import deque
from operator import attrgetter
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.assembled import AssembledObject
from repro.core.template import TemplateNode
from repro.errors import SchedulerError
from repro.storage.oid import Oid


class UnresolvedReference:
    """One pending inter-object reference.

    ``owner`` identifies the in-window complex object; ``parent`` and
    ``parent_slot`` say where to swizzle the fetched child
    (``parent is None`` for window roots).  ``page_id`` is the physical
    location from the OID directory — the elevator's key.  ``rejection``
    is the highest rejection probability in the referenced subtree,
    used for equal-cost tie-breaking.

    Everything a pool needs to know about an entry is read from the
    reference itself: ``owner`` and ``seq`` (the tie-break sequence —
    whoever owns the pool stamps it: the operator for a private pool,
    the device server with its global admission sequence for a shared
    one), and ``client``, which names the query a reference belongs to
    when several operators share one pool (``None`` in a private pool).
    No pool keeps a per-reference side table.

    A slotted plain class rather than a dataclass: references are the
    single most-allocated object of a run (one per edge of every
    assembled complex object), so the dict-free layout is pure savings.
    """

    __slots__ = (
        "oid",
        "page_id",
        "owner",
        "node",
        "parent",
        "parent_slot",
        "seq",
        "rejection",
        "is_root",
        "client",
    )

    def __init__(
        self,
        oid: Oid,
        page_id: int,
        owner: int,
        node: TemplateNode,
        parent: Optional[AssembledObject],
        parent_slot: int,
        seq: int,
        rejection: float = 0.0,
        is_root: bool = False,
    ) -> None:
        self.oid = oid
        self.page_id = page_id
        self.owner = owner
        self.node = node
        self.parent = parent
        self.parent_slot = parent_slot
        self.seq = seq
        self.rejection = rejection
        self.is_root = is_root
        self.client: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"UnresolvedReference({self.oid}, page={self.page_id}, "
            f"owner={self.owner}, node={self.node.label!r})"
        )


#: Admission order of pooled references (a C-level sort key).
_BY_SEQ = attrgetter("seq")


class SweepPool:
    """Owner-indexed sorted pool under every sweep scheduler.

    Entries stay sorted by ``(page_id, -rejection, seq)``, exactly the
    order the original list pools used, so SCAN positioning is one
    bisect on ``(head,)``, which sorts before every ``(head, …)`` entry
    and so splits the list at the first entry on page ``head`` or
    above.  Two structural changes make maintenance cheap:

    * an **owner index** maps each ``(ref.client, ref.owner)`` to its
      live references, so :meth:`remove_owner` touches only the
      retracted entries (O(k)) instead of rebuilding the pool (O(n));
    * removals are **lazy**: a retracted entry becomes a tombstone in
      the sorted list and is purged either when a sweep passes over it
      or when tombstones reach half the list, triggering one O(n)
      compaction — amortized O(1) per removal.

    The pool also understands the physical layout: :meth:`take_run`
    removes every live reference on one page (same-page coalescing) and
    on the contiguous pages after it in a sweep direction, which is what
    turns an elevator sweep into multi-page batched reads.

    A popped page holds about one pending reference on every measured
    workload, so the cost is per operation, not per page.  The
    per-operation work runs in the scheduler's frame, not here:
    :meth:`_SweepScheduler.add` files an entry,
    :meth:`ElevatorScheduler.pop` positions, purges and unindexes one,
    and :meth:`ElevatorScheduler.pop_batch` positions before its take,
    each writing this class's fields directly (this module only).
    Every other operation — retraction, the adaptive pick's
    positioning, takes, the zero-seek probe — is one method call here.
    """

    __slots__ = (
        "_entries",
        "_dead",
        "_owners",
        "_live",
        "_page_live",
        "_recent_pages",
        "_resident_live",
    )

    def __init__(self) -> None:
        self._entries: List[Tuple[int, float, int, UnresolvedReference]] = []
        self._dead: Set[int] = set()
        self._owners: Dict[
            Tuple[Optional[int], int], Dict[int, UnresolvedReference]
        ] = {}
        self._live = 0
        #: live references per page — lets the zero-seek probe iterate
        #: distinct pending pages instead of individual references.
        self._page_live: Dict[int, int] = {}
        #: pages whose residency may have changed since the last
        #: zero-seek probe (new references, or a single-reference pop
        #: that left siblings behind on a page about to be read).
        self._recent_pages: Set[int] = set()
        #: pages confirmed buffer-resident by an earlier probe and
        #: still pending; re-verified (eviction) before being taken.
        self._resident_live: Set[int] = set()

    def __len__(self) -> int:
        return self._live

    # -- maintenance --------------------------------------------------------

    def remove_owner(
        self, owner: int, client: Optional[int] = None
    ) -> List[UnresolvedReference]:
        """Retract every reference of one owner — O(k log k) in the
        retracted — and return them in admission (``seq``) order.

        The bucket holds them in insertion order, which differs once a
        popped or retracted reference is re-added after a newer sibling.
        """
        bucket = self._owners.pop((client, owner), None)
        if not bucket:
            return []
        removed = sorted(bucket.values(), key=_BY_SEQ)
        for ref in removed:
            self._dead.add(id(ref))
            self._drop_page_ref(ref.page_id)
        self._live -= len(removed)
        if len(self._dead) * 2 > len(self._entries):
            self._compact()
        return removed

    def remove_ref(self, ref: UnresolvedReference) -> None:
        """Retract one specific reference (detour and per-query picks)."""
        key = (ref.client, ref.owner)
        bucket = self._owners[key]
        del bucket[id(ref)]
        if not bucket:
            del self._owners[key]
        self._live -= 1
        self._drop_page_ref(ref.page_id)
        self._dead.add(id(ref))
        if len(self._dead) * 2 > len(self._entries):
            self._compact()

    def _drop_page_ref(self, page_id: int) -> None:
        """One live reference left ``page_id`` by retraction."""
        remaining = self._page_live[page_id] - 1
        if remaining:
            self._page_live[page_id] = remaining
        else:
            del self._page_live[page_id]
            self._recent_pages.discard(page_id)
            self._resident_live.discard(page_id)

    def _compact(self) -> None:
        self._entries = [
            entry for entry in self._entries if id(entry[3]) not in self._dead
        ]
        self._dead.clear()

    # -- iteration ----------------------------------------------------------

    def live_entries(
        self,
    ) -> Iterator[Tuple[int, float, int, UnresolvedReference]]:
        """Live ``(page, -rejection, seq, ref)`` tuples in sorted order."""
        for entry in self._entries:
            if id(entry[3]) not in self._dead:
                yield entry

    # -- single-reference SCAN (the paper's §6.2 elevator) -------------------

    def _locate(self, head: int, direction: int) -> Tuple[int, int]:
        """Index of the next live entry under SCAN, with the (possibly
        reversed) sweep direction; tombstones met on the way are purged
        (each at most once, so the sweep stays amortized O(1)).  The
        pool must be non-empty.  :meth:`ElevatorScheduler.pop` and
        :meth:`ElevatorScheduler.pop_batch` inline this; the adaptive
        pick calls it."""
        entries, dead = self._entries, self._dead
        index = bisect_left(entries, (head,))  # type: ignore[arg-type]
        if direction > 0:
            while index < len(entries) and id(entries[index][3]) in dead:
                dead.discard(id(entries.pop(index)[3]))
            if index == len(entries):
                direction = -1
        if direction < 0:
            index -= 1
            while index >= 0 and id(entries[index][3]) in dead:
                dead.discard(id(entries.pop(index)[3]))
                index -= 1
            if index < 0:
                direction, index = 1, 0
                while id(entries[0][3]) in dead:
                    dead.discard(id(entries.pop(0)[3]))
        return index, direction

    def nearest_of(
        self, client: Optional[int], head: int
    ) -> Optional[UnresolvedReference]:
        """``client``'s live reference nearest ``head`` (ties to the
        lowest sequence), left in the pool; ``None`` when it has none.

        Linear scan — its one caller, the device server's starvation
        override, is rare by construction.
        """
        best: Optional[UnresolvedReference] = None
        best_cost: Optional[Tuple[int, int]] = None
        for page, _rej, seq, ref in self.live_entries():
            if ref.client != client:
                continue
            cost = (abs(page - head), seq)
            if best_cost is None or cost < best_cost:
                best, best_cost = ref, cost
        return best

    # -- batched sweeps ------------------------------------------------------

    def take_run(
        self, page_id: int, direction: int, max_pages: int
    ) -> List[UnresolvedReference]:
        """Take ``page_id`` plus pending contiguous pages in the sweep
        direction, up to ``max_pages`` distinct pages.

        The run stops at the first page with nothing pending — that is
        where the physical run would break anyway.  Each page is one
        bisect and one slice deletion; a page leaves the live count and
        the residency flags whole.  Tombstones after a page's last live
        entry stay until a sweep or a compaction passes.
        """
        entries, dead, owners = self._entries, self._dead, self._owners
        page_live = self._page_live
        refs: List[UnresolvedReference] = []
        pages = 0
        while True:
            taken = page_live.pop(page_id, 0)
            if not taken:  # nothing pending: only ever the first page
                return refs
            self._live -= taken
            self._recent_pages.discard(page_id)
            self._resident_live.discard(page_id)
            # The page's ``taken`` live entries start at the split; the
            # tombstones among them are purged with them.
            lo = index = bisect_left(entries, (page_id,))  # type: ignore[arg-type]
            while taken:
                ref = entries[index][3]
                ref_id = id(ref)
                index += 1
                if ref_id in dead:
                    dead.discard(ref_id)
                    continue
                taken -= 1
                refs.append(ref)
                key = (ref.client, ref.owner)
                bucket = owners[key]
                del bucket[ref_id]
                if not bucket:
                    del owners[key]
            del entries[lo:index]
            pages += 1
            page_id += direction
            if pages >= max_pages or page_id not in page_live:
                return refs  # (also every page below 0)

    def take_resident_page(
        self, resident_fn: Callable[[int], bool]
    ) -> List[UnresolvedReference]:
        """All references of the lowest-numbered pending page that is
        buffer-resident, or ``[]`` — a zero-seek batch.

        Residency is tracked incrementally: a pending page can only
        *become* resident after an event the pool sees (a reference
        added for an already-resident page, or a single-reference pop
        that leaves siblings on a page the caller is about to read), so
        each probe checks just the pages flagged since the last one
        plus previously confirmed pages — not every pending page.
        Confirmed pages are re-verified before being taken, so eviction
        by a bounded buffer never yields a stale batch.  Residency does
        not change within one probe, so each page is asked once: the
        earlier probes' pages first, then the newly flagged ones.
        """
        confirmed = self._resident_live
        if confirmed:
            confirmed.difference_update(
                [page_id for page_id in confirmed if not resident_fn(page_id)]
            )
        recent = self._recent_pages
        if recent:
            page_live = self._page_live
            for page_id in recent:
                if (
                    page_id not in confirmed
                    and page_id in page_live
                    and resident_fn(page_id)
                ):
                    confirmed.add(page_id)
            recent.clear()
        if confirmed:
            return self.take_run(min(confirmed), 1, 1)
        return []


class ReferenceScheduler(ABC):
    """The scheduling structure of footnote 5.

    The base class and the built-in schedulers are slotted; subclasses
    that declare no ``__slots__`` of their own (the adaptive and
    multi-device schedulers) simply regain a ``__dict__`` and lose
    nothing.
    """

    __slots__ = ("ops",)

    #: registry name, e.g. ``"elevator"``.
    name: str = "abstract"

    def __init__(self) -> None:
        #: structure operations performed (adds + pops + removals).
        self.ops = 0

    @abstractmethod
    def add(self, ref: UnresolvedReference) -> None:
        """Insert one unresolved reference into the pool."""

    @abstractmethod
    def pop(self) -> UnresolvedReference:
        """Remove and return the next reference to resolve."""

    def pop_batch(self, max_pages: int = 1) -> List[UnresolvedReference]:
        """Remove and return the next batch of references.

        ``max_pages`` bounds the *distinct pages* the batch may span,
        not the reference count — the batch is everything pending on
        the next page(s) of the sweep, so one physical fetch satisfies
        every returned reference.  The base implementation is a single
        :meth:`pop`: schedulers without a physical-order pool have no
        coalescing to exploit, and the adaptive elevator has no batched
        pick (no figure or workload runs one).
        """
        return [self.pop()]

    def add_siblings(self, refs: List[UnresolvedReference]) -> None:
        """Insert the child references of one freshly fetched object.

        Default: insert in child-slot order.  Depth-first overrides to
        keep footnote 6's child order under its LIFO pool.
        """
        for ref in refs:
            self.add(ref)

    # -- per-device view (event-driven drivers) ------------------------------
    #
    # The completion loop issues I/O per physical device while other
    # devices have requests in flight, so it needs to pop *for a given
    # device* rather than globally.  Single-device pools present
    # themselves as device 0; :class:`repro.core.multidevice.
    # MultiDeviceScheduler` overrides all three methods to expose its
    # per-device elevator queues.

    def queue_depths(self) -> List[int]:
        """Pending references per device, indexed by device."""
        return [len(self)]

    def pop_on(self, device: int) -> UnresolvedReference:
        """Pop the next reference destined for one device."""
        if device != 0:
            raise SchedulerError(
                f"{self.name} scheduler serves a single device (0), "
                f"not device {device}"
            )
        return self.pop()

    def pop_batch_on(
        self, device: int, max_pages: int = 1
    ) -> List[UnresolvedReference]:
        """Pop the next sweep batch destined for one device."""
        if device != 0:
            raise SchedulerError(
                f"{self.name} scheduler serves a single device (0), "
                f"not device {device}"
            )
        return self.pop_batch(max_pages)

    @abstractmethod
    def remove_owner(self, owner: int) -> List[UnresolvedReference]:
        """Retract every reference of an aborted complex object."""

    @abstractmethod
    def __len__(self) -> int:
        """Pending reference count."""

    def require_nonempty(self) -> None:
        """Raise :class:`SchedulerError` when the pool is empty."""
        if len(self) == 0:
            raise SchedulerError(f"{self.name} scheduler pool is empty")


class _IndexedDequeScheduler(ReferenceScheduler):
    """Shared owner-indexed machinery for the two deque schedulers.

    The deque gives the discipline (LIFO or FIFO); the owner index
    gives O(k) :meth:`remove_owner` via tombstones, purged as pops
    sweep over them or when they reach half the deque.
    """

    __slots__ = ("_deque", "_owners", "_dead", "_live")

    def __init__(self) -> None:
        super().__init__()
        self._deque: Deque[UnresolvedReference] = deque()
        self._owners: Dict[int, Dict[int, UnresolvedReference]] = {}
        self._dead: Set[int] = set()
        self._live = 0

    def _index(self, ref: UnresolvedReference) -> None:
        ref_id = id(ref)
        if ref_id in self._dead:
            # Re-add of a retracted object: purge its tombstone first so
            # the old deque occurrence cannot pop as the new entry.
            self._compact()
        self._owners.setdefault(ref.owner, {})[ref_id] = ref
        self._live += 1

    def _take(
        self, pop: Callable[[], UnresolvedReference]
    ) -> UnresolvedReference:
        while True:
            ref = pop()
            ref_id = id(ref)
            if ref_id in self._dead:
                self._dead.discard(ref_id)
                continue
            bucket = self._owners[ref.owner]
            del bucket[ref_id]
            if not bucket:
                del self._owners[ref.owner]
            self._live -= 1
            return ref

    def remove_owner(self, owner: int) -> List[UnresolvedReference]:
        bucket = self._owners.pop(owner, None)
        if not bucket:
            return []
        removed = list(bucket.values())
        self.ops += len(removed)
        for ref in removed:
            self._dead.add(id(ref))
        self._live -= len(removed)
        if len(self._dead) * 2 > len(self._deque):
            self._compact()
        return removed

    def _compact(self) -> None:
        self._deque = deque(
            ref for ref in self._deque if id(ref) not in self._dead
        )
        self._dead.clear()

    def __len__(self) -> int:
        return self._live


class DepthFirstScheduler(_IndexedDequeScheduler):
    """Object-at-a-time order (Section 6.2's first algorithm).

    Non-root references are pushed and popped LIFO; window roots enter
    at the *bottom* of the stack, so the current complex object is
    fully traversed before the next one starts — which is exactly why
    depth-first scheduling "is equivalent to object-at-a-time assembly,
    regardless of window size".  Children of one object pop in child
    slot order (footnote 6: child order is reference storage order).
    """

    __slots__ = ()

    name = "depth-first"

    def add(self, ref: UnresolvedReference) -> None:
        self.ops += 1
        self._index(ref)
        if ref.is_root:
            self._deque.appendleft(ref)
        else:
            self._deque.append(ref)

    def add_siblings(self, refs: List[UnresolvedReference]) -> None:
        """Push reversed so the first-slot child pops first (footnote 6)."""
        for ref in reversed(refs):
            self.add(ref)

    def pop(self) -> UnresolvedReference:
        self.require_nonempty()
        self.ops += 1
        return self._take(self._deque.pop)


class BreadthFirstScheduler(_IndexedDequeScheduler):
    """FIFO across the whole window (Section 6.2's second algorithm)."""

    __slots__ = ()

    name = "breadth-first"

    def add(self, ref: UnresolvedReference) -> None:
        self.ops += 1
        self._index(ref)
        self._deque.append(ref)

    def pop(self) -> UnresolvedReference:
        self.require_nonempty()
        self.ops += 1
        return self._take(self._deque.popleft)


class _SweepScheduler(ReferenceScheduler):
    """The one body under every sweep scheduler.

    A :class:`SweepPool` ordered by physical page, a head probe, an
    optional buffer-residency probe and a sweep direction — plus every
    operation that does not depend on *which* reference is next: adding
    (the pool's insertion, in this frame) and retracting an owner.  A
    subclass states its pick, in ``pop`` and ``pop_batch``, each
    refusing an empty pool and counting one op.

    ``head_fn`` supplies the live head position (wired to the simulated
    disk by the assembly operator, as :meth:`SimulatedDisk.head_probe
    <repro.storage.disk.SimulatedDisk.head_probe>`, which costs no
    Python frame per pop).  ``resident_fn`` is the buffer
    manager's residency probe; the elevator consults it on batched pops
    only (zero-seek batches first), so its single-reference ``pop``
    keeps the paper's pure sweep.

    The device server's per-device queues are elevators too (§7: "each
    server would maintain a queue of requests"), holding many clients'
    references, with :meth:`pop_nearest` as the fairness override.
    """

    __slots__ = (
        "_head_fn",
        "_resident_fn",
        "_pool",
        "_direction",
        "resident_batches",
    )

    def __init__(
        self,
        head_fn: Optional[Callable[[], int]] = None,
        resident_fn: Optional[Callable[[int], bool]] = None,
    ) -> None:
        super().__init__()
        self._head_fn = head_fn if head_fn is not None else (lambda: 0)
        self._resident_fn = resident_fn
        self._pool = SweepPool()
        self._direction = 1  # +1 sweeping up, -1 sweeping down
        #: batches served off buffer-resident pages (no seek charged).
        self.resident_batches = 0

    def add(self, ref: UnresolvedReference) -> None:
        """Insert a reference into the pool, filed under what it says
        about itself: sorted entry, owner index, page count and flag."""
        self.ops += 1
        pool = self._pool
        ref_id = id(ref)
        if ref_id in pool._dead:
            # The same object is being re-added while its old entry is
            # still a tombstone; purge eagerly so it cannot resurrect.
            pool._compact()
        page_id = ref.page_id
        insort(pool._entries, (page_id, -ref.rejection, ref.seq, ref))
        key = (ref.client, ref.owner)
        owners = pool._owners
        bucket = owners.get(key)
        if bucket is None:
            owners[key] = {ref_id: ref}
        else:
            bucket[ref_id] = ref
        pool._live += 1
        page_live = pool._page_live
        page_live[page_id] = page_live.get(page_id, 0) + 1
        pool._recent_pages.add(page_id)

    def remove_owner(
        self, owner: int, client: Optional[int] = None
    ) -> List[UnresolvedReference]:
        """Retract every reference of ``client``'s aborted object."""
        removed = self._pool.remove_owner(owner, client)
        self.ops += len(removed)
        return removed

    def __len__(self) -> int:
        return self._pool._live

    def pop_nearest(self, client: int) -> Optional[UnresolvedReference]:
        """Pop ``client``'s reference nearest the head, or ``None`` when
        it has nothing pending here.

        The device server's starvation override: instead of the
        SCAN-next entry, serve the starved query's cheapest fetch.
        """
        ref = self._pool.nearest_of(client, self._head_fn())
        if ref is not None:
            self.ops += 1
            self._pool.remove_ref(ref)
        return ref


class ElevatorScheduler(_SweepScheduler):
    """SCAN over physical page numbers (Section 6.2's third algorithm).

    ``pop`` continues in the current sweep direction from the disk
    head's position and reverses at the end, like the classic elevator;
    ``pop_batch`` takes the sweep-next page whole, plus its contiguous
    continuation in the sweep direction.
    """

    __slots__ = ()

    name = "elevator"

    def pop(self) -> UnresolvedReference:
        """Nearest entry in the sweep direction, reversing at the ends.

        One frame: the positioning of :meth:`SweepPool._locate`, then
        the entry leaves the owner index, the per-page live count and
        the residency flags in line.
        """
        pool = self._pool
        if not pool._live:
            raise SchedulerError(f"{self.name} scheduler pool is empty")
        self.ops += 1
        entries, dead = pool._entries, pool._dead
        direction = self._direction
        index = bisect_left(entries, (self._head_fn(),))  # type: ignore[arg-type]
        if direction > 0:
            while index < len(entries) and id(entries[index][3]) in dead:
                dead.discard(id(entries.pop(index)[3]))
            if index == len(entries):
                direction = -1
        if direction < 0:
            index -= 1
            while index >= 0 and id(entries[index][3]) in dead:
                dead.discard(id(entries.pop(index)[3]))
                index -= 1
            if index < 0:
                direction, index = 1, 0
                while id(entries[0][3]) in dead:
                    dead.discard(id(entries.pop(0)[3]))
        self._direction = direction
        page_id, _rej, _seq, ref = entries.pop(index)
        key = (ref.client, ref.owner)
        owners = pool._owners
        bucket = owners[key]
        del bucket[id(ref)]
        if not bucket:
            del owners[key]
        pool._live -= 1
        page_live = pool._page_live
        remaining = page_live[page_id] - 1
        if remaining:
            page_live[page_id] = remaining
            # A single-reference pop usually precedes a read of its
            # page; siblings left behind may therefore turn resident
            # without any pool event, so flag the page for the next
            # zero-seek probe.
            pool._recent_pages.add(page_id)
        else:
            del page_live[page_id]
            pool._recent_pages.discard(page_id)
            pool._resident_live.discard(page_id)
        return ref

    def pop_batch(self, max_pages: int = 1) -> List[UnresolvedReference]:
        """The sweep-next page whole, plus its contiguous continuation.

        Positions in this frame, as :meth:`pop` does; the take is one
        :meth:`SweepPool.take_run`.
        """
        pool = self._pool
        if not pool._live:
            raise SchedulerError(f"{self.name} scheduler pool is empty")
        self.ops += 1
        if self._resident_fn is not None:
            # Resident first: a pending page that is already buffered is
            # served whole before the sweep spends any head movement.
            refs = pool.take_resident_page(self._resident_fn)
            if refs:
                self.resident_batches += 1
                return refs
        entries, dead = pool._entries, pool._dead
        direction = self._direction
        index = bisect_left(entries, (self._head_fn(),))  # type: ignore[arg-type]
        if direction > 0:
            while index < len(entries) and id(entries[index][3]) in dead:
                dead.discard(id(entries.pop(index)[3]))
            if index == len(entries):
                direction = -1
        if direction < 0:
            index -= 1
            while index >= 0 and id(entries[index][3]) in dead:
                dead.discard(id(entries.pop(index)[3]))
                index -= 1
            if index < 0:
                direction, index = 1, 0
                while id(entries[0][3]) in dead:
                    dead.discard(id(entries.pop(0)[3]))
        self._direction = direction
        return pool.take_run(entries[index][0], direction, max_pages)


#: Detour budget, in pages, granted to a certain rejector (rejection =
#: 1.0).  A reference with rejection r may be served up to
#: ``r * DETOUR_PAGES`` pages "too early" in the sweep.
DETOUR_PAGES = 64


class AdaptiveElevatorScheduler(_SweepScheduler):
    """Elevator scheduling integrated with predicates, sharing, buffer:
    Section 7's "primary scheduling algorithm".

    "Currently, assembly operates entirely with one scheduling
    algorithm.  Also, scheduling priorities based on shared sub-objects
    and predicates have not been integrated into a single scheduling
    algorithm.  The primary scheduling algorithm will be the elevator
    algorithm modified to account for predicates, sharing and the
    buffer size." (Section 7)  This class is that integration:

    * **buffer awareness** — a reference whose target page is already
      resident in the buffer costs no disk seek at all; the base
      elevator orders it by page number anyway.  The adaptive scheduler
      serves resident-page references immediately (cost 0), which both
      saves seeks and resolves references before their pages can be
      evicted (the sharing-retention concern of Section 5).
    * **predicate awareness** — the elevator breaks same-page ties
      toward the higher rejection probability; the adaptive scheduler
      goes further: a reference likely to *abort* its complex object is
      worth a bounded detour, because a successful abort retracts that
      object's remaining references entirely.  The detour budget is
      ``rejection x DETOUR_PAGES``.

    The result degrades exactly to the plain elevator when the template
    has no predicates and the buffer has no relevant residents.

    Parameters
    ----------
    head_fn:
        Current disk-head position (as for the plain elevator).
    resident_fn:
        Predicate telling whether a page is currently buffered; wired
        to ``BufferManager.is_resident`` by the assembly operator and
        consulted by every pick.
    """

    name = "adaptive"

    def __init__(
        self,
        head_fn: Optional[Callable[[], int]] = None,
        resident_fn: Optional[Callable[[int], bool]] = None,
    ) -> None:
        super().__init__(
            head_fn,
            resident_fn if resident_fn is not None else (lambda _page: False),
        )
        #: references served for free because their page was resident.
        self.resident_hits = 0
        #: references served out of sweep order to chase a rejection.
        self.detours = 0

    def pop(self) -> UnresolvedReference:
        self.require_nonempty()
        self.ops += 1
        ref = self._pick()
        self._pool.remove_ref(ref)
        return ref

    def _pick(self) -> UnresolvedReference:
        head = self._head_fn()

        # 1. Buffer awareness: any resident-page reference is free.
        for page, _rej, _seq, ref in self._pool.live_entries():
            if self._resident_fn(page):
                self.resident_hits += 1
                return ref

        # 2. The sweep-optimal (plain elevator) candidate.
        index, self._direction = self._pool._locate(head, self._direction)
        entry = self._pool._entries[index]
        base_ref = entry[3]
        base_distance = abs(entry[0] - head)

        # 3. Predicate awareness: a likelier rejector may pre-empt the
        #    sweep choice if its extra distance fits its detour budget.
        best = base_ref
        best_rejection = base_ref.rejection
        for page, _rej, _seq, ref in self._pool.live_entries():
            if ref.rejection <= best_rejection:
                continue
            extra = abs(page - head) - base_distance
            if extra <= ref.rejection * DETOUR_PAGES:
                best = ref
                best_rejection = ref.rejection
        if best is not base_ref:
            self.detours += 1
        return best


#: Scheduler registry keyed by benchmark-table names.
SCHEDULERS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        DepthFirstScheduler,
        BreadthFirstScheduler,
        ElevatorScheduler,
        AdaptiveElevatorScheduler,
    )
}


def make_scheduler(
    name: str,
    head_fn: Optional[Callable[[], int]] = None,
    resident_fn: Optional[Callable[[int], bool]] = None,
) -> ReferenceScheduler:
    """Instantiate a scheduler by registry name.

    ``head_fn`` feeds disk-position-aware schedulers; ``resident_fn``
    feeds buffer-aware ones — the adaptive scheduler uses it on every
    pop, the elevator only on batched pops.  Schedulers that
    need neither ignore them.
    """
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    if cls in (DepthFirstScheduler, BreadthFirstScheduler):
        return cls()  # position-blind: no head or buffer to consult
    return cls(head_fn=head_fn, resident_fn=resident_fn)
