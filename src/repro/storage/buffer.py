"""Buffer manager: fix/unfix interface with LRU replacement.

Volcano "includes a file system with heap files, B-trees, and buffer
management" (Section 3); every page access in this repository goes
through this buffer manager.  Two paper-specific concerns shape it:

* **Pinning as reference counting.**  Section 5 requires that "the
  shared component remains in memory as long as there is at least one
  valid reference to it … e.g., through reference counting.  After a
  component is no longer referenced, it is subject to replacement using
  buffer replacement policies."  ``fix``/``unfix`` are exactly that
  reference count; the assembly operator holds a fix per in-window
  referrer of a shared component's page.

* **Buffer hits are not free.**  Footnote 4 observes that even buffer
  hits cost a guarded table lookup.  The stats therefore count hits and
  faults separately so benchmarks can report both (Figure 15 notes that
  sharing statistics reduce *total reads*, i.e. faults).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.errors import BufferFullError, PinError
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


@dataclass
class BufferStats:
    """Buffer-traffic accounting."""

    fixes: int = 0
    hits: int = 0
    faults: int = 0
    evictions: int = 0
    #: Faults on pages that were resident earlier and got evicted —
    #: the wasted work Figure 15's sharing statistics avoid.
    re_reads: int = 0


class _Frame:
    """One buffered page plus its pin count."""

    __slots__ = ("page", "pin_count", "dirty")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.pin_count = 0
        self.dirty = False


class BufferManager:
    """A pool of page frames over a :class:`SimulatedDisk`.

    ``capacity`` is the number of frames; ``None`` means unbounded,
    which the paper's main experiments use ("There is enough buffer
    space to hold the largest database, so no page replacement
    occurs").  The restricted-buffer ablation passes a finite capacity.

    Replacement is least-recently-used over unpinned frames, tracked
    by access order.

    A ``fix`` pins the frame (incrementing its pin count); ``unfix``
    releases one pin.  Evicting is only legal for frames with pin
    count zero.
    """

    def __init__(
        self, disk: SimulatedDisk, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise BufferFullError("buffer capacity must be positive")
        self._disk = disk
        self._capacity = capacity
        # Insertion order doubles as LRU order for unpinned frames;
        # move_to_end on access keeps it current.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._ever_resident: Set[int] = set()
        #: pages with at least one pin (read-only outside this class).
        self.pinned_pages = 0
        self._reserved_frames = 0
        self.stats = BufferStats()

    # -- introspection --------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        """Frame limit, or ``None`` when unbounded."""
        return self._capacity

    @property
    def resident_pages(self) -> int:
        """Number of pages currently buffered."""
        return len(self._frames)

    def pin_count(self, page_id: int) -> int:
        """Current pin count of ``page_id`` (0 if not resident)."""
        frame = self._frames.get(page_id)
        return frame.pin_count if frame else 0

    def is_resident(self, page_id: int) -> bool:
        """Is the page in the pool right now?"""
        return page_id in self._frames

    # -- reservations (admission-control budget) ------------------------------

    @property
    def reserved_frames(self) -> int:
        """Frames promised to admitted-but-running pinning workloads."""
        return self._reserved_frames

    def reserve(self, n_frames: int) -> None:
        """Promise ``n_frames`` to a future pinning workload.

        Reservations are an accounting ledger for admission control
        (the assembly service reserves each query's worst-case pin
        bound before letting it run); they do not themselves pin or
        evict frames.  Over-reserving a bounded pool raises
        :class:`BufferFullError` so the caller can queue or shrink the
        workload instead.
        """
        if n_frames < 0:
            raise BufferFullError("cannot reserve a negative frame count")
        if (
            self._capacity is not None
            and self._reserved_frames + n_frames > self._capacity
        ):
            raise BufferFullError(
                f"reserving {n_frames} frames would exceed capacity "
                f"{self._capacity} ({self._reserved_frames} already reserved)"
            )
        self._reserved_frames += n_frames

    def unreserve(self, n_frames: int) -> None:
        """Return frames reserved with :meth:`reserve`."""
        if n_frames < 0 or n_frames > self._reserved_frames:
            raise BufferFullError(
                f"cannot unreserve {n_frames} of "
                f"{self._reserved_frames} reserved frames"
            )
        self._reserved_frames -= n_frames

    # -- replacement ------------------------------------------------------------

    def _evict_one(self) -> None:
        """Drop the least recently used unpinned frame (writing it
        back first if dirty)."""
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                if frame.dirty:
                    self._disk.write(frame.page)
                del self._frames[page_id]
                self.stats.evictions += 1
                return
        raise BufferFullError(
            f"all {len(self._frames)} frames are pinned; cannot evict"
        )

    # -- fix / unfix ---------------------------------------------------------------

    def fix(self, page_id: int) -> Page:
        """Pin ``page_id`` in the pool and return its page.

        The caller must balance every ``fix`` with an ``unfix``.  The
        returned :class:`Page` object stays valid until the final unfix.
        """
        stats = self.stats
        frames = self._frames
        frame = frames.get(page_id)
        if frame is not None:
            stats.hits += 1
            frames.move_to_end(page_id)
        else:
            capacity = self._capacity
            if capacity is not None and len(frames) >= capacity:
                # One eviction is enough: no call leaves more frames
                # than the capacity.
                self._evict_one()
            # Counted only once the read succeeded: a read that raised
            # (an injected fault) faulted nothing in.
            frame = _Frame(self._disk.read(page_id))
            stats.faults += 1
            if page_id in self._ever_resident:
                stats.re_reads += 1
            frames[page_id] = frame
            self._ever_resident.add(page_id)
        stats.fixes += 1
        if frame.pin_count == 0:
            self.pinned_pages += 1
        frame.pin_count += 1
        return frame.page

    def fix_many(self, page_ids: Sequence[int]) -> Dict[int, Page]:
        """Pin a batch of pages, batching the disk reads.

        Semantically this is one :meth:`fix` per entry of ``page_ids``
        (duplicates take one pin per occurrence, and the stats come out
        identical: one fault per absent page, hits for the rest) — but
        all absent pages are faulted through a single
        :meth:`~repro.storage.disk.SimulatedDisk.read_batch`, so ids
        that are physically contiguous cost one seek.  Pass the ids in
        sweep order; the disk coalesces from that order.

        Admission is **atomic** against the pin bound: if the pool
        cannot hold every requested page simultaneously alongside the
        frames other callers have pinned, :class:`BufferFullError` is
        raised before any pin is taken or frame evicted, so a rejected
        batch leaves the pool exactly as it found it.  Returns a map
        of page id to page.
        """
        distinct: List[int] = []
        seen: Set[int] = set()
        seen_add = seen.add
        distinct_append = distinct.append
        for page_id in page_ids:
            if page_id not in seen:
                seen_add(page_id)
                distinct_append(page_id)
        if self._capacity is not None:
            immovable = sum(
                1
                for pid, frame in self._frames.items()
                if frame.pin_count > 0 and pid not in seen
            )
            if immovable + len(distinct) > self._capacity:
                raise BufferFullError(
                    f"batch of {len(distinct)} pages cannot be pinned "
                    f"alongside {immovable} already-pinned frames "
                    f"(capacity {self._capacity})"
                )
        # Pin the already-resident request pages first so the evictions
        # for the absent ones cannot victimize them.
        missing: List[int] = []
        pages: Dict[int, Page] = {}
        for page_id in distinct:
            if page_id in self._frames:
                pages[page_id] = self.fix(page_id)
            else:
                missing.append(page_id)
        if missing:
            if self._capacity is not None:
                while len(self._frames) + len(missing) > self._capacity:
                    self._evict_one()
            try:
                batch = self._disk.read_batch(missing)
            except Exception:
                # The batch read failed (e.g. an injected fault): give
                # back the pins taken on the resident pages above so a
                # rejected batch still leaves the pool balanced.
                for page_id in pages:
                    self.unfix(page_id)
                raise
            stats = self.stats
            frames = self._frames
            ever_resident = self._ever_resident
            for page in batch:
                page_id = page.page_id
                stats.fixes += 1
                stats.faults += 1
                if page_id in ever_resident:
                    stats.re_reads += 1
                frame = _Frame(page)
                frame.pin_count = 1
                self.pinned_pages += 1
                frames[page_id] = frame
                ever_resident.add(page_id)
                pages[page_id] = page
        # Remaining occurrences beyond the first are plain hits (the
        # Counter pass is skipped entirely when every id was distinct,
        # which is the common case on the sweep path).
        if len(seen) != len(page_ids):
            counts = Counter(page_ids)
            for page_id, occurrences in counts.items():
                for _ in range(occurrences - 1):
                    self.fix(page_id)
        return pages

    def unfix(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on ``page_id``; mark dirty if it was modified."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count == 0:
            raise PinError(f"page {page_id} is not fixed")
        frame.pin_count -= 1
        if frame.pin_count == 0:
            self.pinned_pages -= 1
        if dirty:
            frame.dirty = True

    @contextmanager
    def fixed(self, page_id: int, dirty: bool = False) -> Iterator[Page]:
        """Context manager pairing :meth:`fix` and :meth:`unfix`."""
        page = self.fix(page_id)
        try:
            yield page
        finally:
            self.unfix(page_id, dirty=dirty)

    # -- write-back -----------------------------------------------------------------

    def flush_all(self) -> None:
        """Write every dirty frame back to disk (frames stay resident)."""
        for frame in self._frames.values():
            if frame.dirty:
                self._disk.write(frame.page)
                frame.dirty = False

    def drop_clean(self) -> None:
        """Flush, then drop every unpinned frame.

        Benchmarks call this between the load and measure phases so
        measurement starts from a cold buffer, as the paper's runs do.
        """
        self.flush_all()
        for page_id in [
            pid for pid, f in self._frames.items() if f.pin_count == 0
        ]:
            del self._frames[page_id]

    def reset_stats(self) -> None:
        """Zero the counters (resident pages are untouched)."""
        self.stats = BufferStats()
        self._ever_resident = set(self._frames)

    def __repr__(self) -> str:
        cap = "unbounded" if self._capacity is None else str(self._capacity)
        return (
            f"BufferManager(capacity={cap}, resident={len(self._frames)}, "
            f"pinned={self.pinned_pages})"
        )
