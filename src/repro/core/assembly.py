"""The assembly operator (paper, Sections 4–5).

``Assembly`` is a Volcano iterator whose input yields root OIDs (or
partially assembled objects) and whose output is pointer-swizzled
:class:`~repro.core.assembled.AssembledComplexObject` rows.  It is a
physical operator "that does not correspond to any complex object
algebra operator … It enforces the physical constraint: 'The portion of
the complex object needed to carry out the query is entirely in
memory.'"

Mechanics, all from the paper:

* **Sliding window** — up to ``window_size`` complex objects are under
  assembly at once; as soon as one completes and is passed up, another
  is admitted (Section 4, "delayed or sliding assembly operator").
* **Reference pool + scheduler** — unresolved references from every
  in-window object compete; the scheduler (depth-first, breadth-first,
  or elevator) picks which to resolve next (Section 6.2).
* **Pointer swizzling** — each fetched object is linked to its parent
  by memory pointer (Section 4).
* **Shared components** — with sharing statistics enabled, a
  shared-component table guarantees a shared sub-object is "not loaded
  twice … into two different memory locations", and its page stays
  pinned (reference-counted) while any in-window object references it
  (Section 5).
* **Selective assembly** — template predicates abort an object as
  early as possible; references that cannot influence a predicate are
  deferred until every predicate has passed, so rejected objects cost
  the minimum number of fetches (Sections 4, 6.5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Union

from repro.core.assembled import AssembledComplexObject, AssembledObject
from repro.core import trace
from repro.core.component_iterator import ComponentIterator
from repro.core.predicates import Predicate
from repro.core.schedulers import (
    ReferenceScheduler,
    UnresolvedReference,
    make_scheduler,
)
from repro.core.template import Template
from repro.core.window import ComplexObjectState, Window
from repro.errors import (
    AssemblyError,
    BufferFullError,
    FaultError,
    PlanError,
    RetriesExhaustedError,
)
from repro.iterator import Row, VolcanoIterator
from repro.obs.spans import Span, SpanRecorder
from repro.storage.faults import DeviceHealthTracker, RetryPolicy
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.storage.store import ObjectStore, StoredRecord

#: Graceful-degradation modes for faulted fetches.
FAIL_FAST = "fail_fast"
SKIP_OBJECT = "skip_object"
PARTIAL = "partial"
ON_FAULT_MODES = (FAIL_FAST, SKIP_OBJECT, PARTIAL)


def check_on_fault(on_fault: str) -> None:
    """Raise :class:`~repro.errors.AssemblyError` unless ``on_fault`` is
    one of :data:`ON_FAULT_MODES`."""
    if on_fault not in ON_FAULT_MODES:
        raise AssemblyError(
            f"on_fault must be one of {ON_FAULT_MODES}, got {on_fault!r}"
        )


@dataclass
class AssemblyStats:
    """Counters for one execution of the assembly operator."""

    emitted: int = 0
    aborted: int = 0
    fetches: int = 0
    shared_links: int = 0
    refs_resolved: int = 0
    deferred_scheduled: int = 0
    peak_pinned_pages: int = 0
    scheduler_ops: int = 0
    #: multi-page prefetches issued for coalesced batches.
    prefetch_batches: int = 0
    #: pages covered by those prefetches.
    prefetch_pages: int = 0
    #: injected faults observed on this operator's fetch path.
    fault_events: int = 0
    #: faulted fetches retried under the retry policy.
    fault_retries: int = 0
    #: simulated milliseconds of retry backoff charged.
    fault_backoff_ms: float = 0.0
    #: complex objects dropped whole under ``skip_object`` degradation
    #: (each also counts in ``aborted``).
    fault_skipped: int = 0
    #: template subtrees dropped under ``partial`` degradation.
    missing_components: int = 0
    #: degraded complex objects emitted (``partial`` mode).
    degraded_emitted: int = 0


class _SharedEntry:
    """A shared component held in the shared-component table, created
    for its first referrer with that referrer's fetch pin."""

    __slots__ = ("assembled", "refcount", "page_id", "pinned")

    def __init__(self, assembled: AssembledObject, page_id: int) -> None:
        self.assembled = assembled
        self.refcount = 1
        self.page_id = page_id
        self.pinned = True


class Assembly(VolcanoIterator):
    """Set-oriented retrieval and assembly of complex objects.

    Parameters
    ----------
    source:
        Volcano iterator yielding root :class:`Oid` values (or
        pre-built :class:`AssembledObject` / complex objects, for
        stacked assembly inputs).
    store:
        The object store to fetch components from.
    template:
        The structural/statistical map of the complex objects.
    window_size:
        W, the number of complex objects assembled simultaneously.
        ``window_size=1`` with the depth-first scheduler is the paper's
        naive, object-at-a-time baseline.
    scheduler:
        Scheduler name (``"depth-first"``, ``"breadth-first"``,
        ``"elevator"``) or a ready :class:`ReferenceScheduler`.
    use_sharing_statistics:
        Honour the template's ``shared`` borders with the
        shared-component table and reference-counted pinning
        (Section 6.4).  Off = every reference is fetched independently.
    selective:
        Defer references that cannot decide a predicate until all
        predicates passed (Section 6.5).  Default: on exactly when the
        template has predicates.
    preassembled:
        OID → :class:`AssembledObject` map of sub-objects assembled by
        a lower assembly operator (Figure 17's stacking).
    batch_pages:
        Maximum distinct pages per scheduler batch.  1 (default)
        reproduces the paper's one-reference-at-a-time loop exactly;
        ≥ 2 pops sweep batches and prefetches their pages with one
        coalesced disk operation, so every same-page reference and
        every contiguous run costs a single physical read (§4's
        "single disk access per page", generalized to runs).
    retry_policy:
        How to retry fetches that raise a
        :class:`~repro.errors.FaultError` (a
        :class:`~repro.storage.faults.FaultInjector` is attached to
        the disk).  ``None`` (default) means no retries: the first
        fault goes straight to the ``on_fault`` mode.  Backoff is
        simulated time, charged through the injector.
    on_fault:
        What to do once retries (if any) are exhausted.
        ``"fail_fast"`` (default) re-raises; ``"skip_object"`` aborts
        the owning complex object (counted in ``fault_skipped`` and
        ``aborted``); ``"partial"`` drops just the faulted subtree and
        emits the object marked ``degraded`` — except for root
        references and predicate-bearing subtrees, which cannot decide
        membership and degrade to ``skip_object``.
    health:
        Optional :class:`~repro.storage.faults.DeviceHealthTracker`
        fed with per-device success/failure outcomes (a device server
        shares one tracker across its queries' operators).
    spans:
        Optional :class:`~repro.obs.spans.SpanRecorder`.  When given,
        the operator records an ``assembly`` span over its open/close
        lifetime, a (sampled) ``window-slot`` span per admitted complex
        object, ``fetch`` spans around disk fetches, ``batch`` spans
        around coalesced prefetches, ``retry-backoff`` events, and one
        instant ``decision`` span per decision under its object's slot:
        ``admitted``, ``fetched``, ``linked-shared``,
        ``linked-preassembled``, ``deferred``, ``activated``,
        ``predicate-passed`` / ``predicate-failed``, ``fault``,
        ``degraded``, ``aborted`` and ``emitted``
        (:mod:`repro.core.trace` reads them back as the Figure 5
        trace) — strictly observationally: results, fetch order, disk
        stats and every counter are bit-identical with or without a
        recorder.
    parent_span:
        Span to parent the operator's ``assembly`` span under (the
        service parents it under the owning request's span).
    """

    def __init__(
        self,
        source: VolcanoIterator,
        store: ObjectStore,
        template: Template,
        window_size: int = 1,
        scheduler: Union[str, ReferenceScheduler] = "elevator",
        use_sharing_statistics: bool = True,
        selective: Optional[bool] = None,
        preassembled: Optional[Dict[Oid, AssembledObject]] = None,
        batch_pages: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        on_fault: str = FAIL_FAST,
        health: Optional[DeviceHealthTracker] = None,
        spans: Optional[SpanRecorder] = None,
        parent_span: Optional[Span] = None,
    ) -> None:
        super().__init__()
        self._source = source
        self._store = store
        #: the store's disk, read per fetch for its fault injector.
        self._disk = store.disk
        # The template lives on the component iterator (its interpreter):
        # one attribute, and push_predicate swaps both at once.
        self._component_iter = ComponentIterator(template.finalize())
        if window_size <= 0:
            raise AssemblyError("window_size must be positive")
        self._window_size = window_size
        self._scheduler_spec = scheduler
        self._use_sharing = use_sharing_statistics
        #: the caller's choice; None = on exactly when the (possibly
        #: rewritten) template has predicates.
        self._selective_choice = selective
        self._selective = (
            template.has_predicates() if selective is None else selective
        )
        self._preassembled = dict(preassembled or {})
        if batch_pages <= 0:
            raise AssemblyError("batch_pages must be positive")
        self._batch_pages = batch_pages
        check_on_fault(on_fault)
        self._retry_policy = retry_policy
        self._on_fault = on_fault
        self._health = health
        self._spans = spans
        self._parent_span = parent_span
        self._assembly_span: Optional[Span] = None
        self._slot_spans: Dict[int, Span] = {}

        self._scheduler: Optional[ReferenceScheduler] = None
        self._window: Optional[Window] = None
        self._shared: Dict[Oid, _SharedEntry] = {}
        self._emit: Deque[AssembledComplexObject] = deque()
        self._seq = 0
        self._source_done = False
        self.stats = AssemblyStats()

    # -- plan-facing surface -------------------------------------------------

    @property
    def template(self) -> Template:
        """The (possibly rewritten) template the next ``open`` will use."""
        return self._component_iter.template

    @property
    def source(self) -> VolcanoIterator:
        """The input operator: what plan introspection walks into, in
        place of scanning ``vars()`` (:func:`repro.volcano.plan.child_operators`)."""
        return self._source

    def replace_source(self, old: VolcanoIterator, new: VolcanoIterator) -> bool:
        """Swap the input in place (plan rewrites); True if ``old`` was it."""
        if self._source is not old:
            return False
        self._source = new
        return True

    def push_predicate(self, label: str, predicate: Predicate) -> None:
        """Fold ``predicate`` onto the template node ``label``.

        :meth:`Template.with_predicate` on a clone, so the caller's
        template is never mutated; the ``selective=None`` default is
        re-derived from the rewritten template.  Only legal while the
        operator is not open.
        """
        if self.is_open:
            raise PlanError("cannot push a predicate into an open operator")
        template = self.template.with_predicate(label, predicate)
        self._component_iter = ComponentIterator(template)
        if self._selective_choice is None:
            self._selective = template.has_predicates()

    def _scheduler_name(self) -> str:
        spec = self._scheduler_spec
        return spec if isinstance(spec, str) else type(spec).__name__

    def describe(self) -> str:
        """One-line ``explain`` rendering: window, scheduler, predicates."""
        template = self.template
        return (
            f"Assembly(window={self._window_size}, "
            f"scheduler={self._scheduler_name()}, "
            f"predicates={template.predicate_count}, "
            f"pushed={template.pushed_predicates})"
        )

    # -- protocol ------------------------------------------------------------

    def _open(self) -> None:
        if isinstance(self._scheduler_spec, ReferenceScheduler):
            self._scheduler = self._scheduler_spec
        else:
            # Over the disk's heads, not ``self``: a probe closing over
            # the operator is a cycle, freed only by the cycle collector.
            self._scheduler = make_scheduler(
                self._scheduler_spec,
                head_fn=self._disk.head_probe(0),
                resident_fn=self._store.buffer.is_resident,
            )
        self._window = Window(self._window_size)
        self._shared = {}
        self._emit = deque()
        self._seq = 0
        self._source_done = False
        self.stats = AssemblyStats()
        if self._spans is not None:
            self._assembly_span = self._spans.begin(
                "assembly",
                parent=self._parent_span,
                kind="assembly",
                window=self._window_size,
                scheduler=self._scheduler_name(),
            )
            self._slot_spans = {}
        self._source.open()
        try:
            self._fill_window()
        except BaseException:
            # A root that cannot be admitted (unknown OID, wrong row
            # type) must not strand the ones before it: retract them
            # from the (possibly shared) pool, unpin, close the source.
            self._close()
            raise

    def _next(self) -> Optional[AssembledComplexObject]:
        assert self._scheduler is not None and self._window is not None
        while True:
            if self._emit:
                return self._emit.popleft()
            if len(self._scheduler) == 0:
                if self._window.is_empty:
                    self._fill_window()
                    if self._window.is_empty and not self._emit:
                        if self._source_done:
                            return None
                        continue
                    continue
                # Window occupied but nothing scheduled: only legal if
                # some state holds deferred refs that must now run
                # (e.g. a predicate subtree turned out to be absent).
                self.release_stuck_deferred()
            elif self._batch_pages > 1:
                self._resolve_batch(
                    self._scheduler.pop_batch(self._batch_pages)
                )
            else:
                self._resolve((self._scheduler.pop(),))

    def _close(self) -> None:
        assert self._window is not None
        # Retract anything this operator still has queued: under an
        # externally owned (shared) scheduler the pool outlives the
        # operator, and stale references must not leak into it.
        if self._scheduler is not None:
            for state in self._window.states():
                self._scheduler.remove_owner(state.serial)
        # Release every pin still held (incomplete objects, shared pages).
        for state in self._window.states():
            self._release_pins(state)
        for oid, entry in self._shared.items():
            if entry.pinned:
                self._store.buffer.unfix(entry.page_id)
                entry.pinned = False
        self._shared = {}
        self.stats.scheduler_ops = (
            self._scheduler.ops if self._scheduler is not None else 0
        )
        if self._spans is not None:
            for span in self._slot_spans.values():
                self._spans.end(span, outcome="unfinished")
            self._slot_spans = {}
            if self._assembly_span is not None:
                self._spans.end(
                    self._assembly_span,
                    emitted=self.stats.emitted,
                    aborted=self.stats.aborted,
                    fetches=self.stats.fetches,
                )
                self._assembly_span = None
        self._source.close()

    # -- external draining (device-server hooks) -----------------------------

    @property
    def scheduler(self) -> ReferenceScheduler:
        """The live reference pool (external drivers only).

        Completion-driven drivers (:class:`repro.core.multidevice.
        PipelinedAssembly`) pop per-device batches from this pool and
        hand them back through :meth:`resolve_external_batch` (or, if
        they could not be resolved, :meth:`requeue`).  Only available
        while open.
        """
        if self._scheduler is None:
            raise AssemblyError("scheduler is only bound while open")
        return self._scheduler

    @property
    def store(self) -> ObjectStore:
        """The object store this operator fetches from."""
        return self._store

    def resolve_external(self, ref: UnresolvedReference) -> None:
        """Resolve one reference popped by an external driver.

        The assembly service's device server owns the scheduler pool
        for every registered query; it pops the globally best reference
        and hands it back to the owning operator through this hook.
        """
        if not self.is_open:
            raise AssemblyError("resolve_external() on a non-open operator")
        self._resolve((ref,))

    def resolve_external_batch(
        self, refs: List[UnresolvedReference]
    ) -> None:
        """Resolve one completed I/O batch popped by an external driver.

        The event-driven drivers pop a per-device sweep batch, issue
        its pages asynchronously, and call this on completion.  The
        caller owns any prefetch pins (each reference then resolves as
        a buffer hit).
        """
        if not self.is_open:
            raise AssemblyError(
                "resolve_external_batch() on a non-open operator"
            )
        self._resolve(refs)

    def requeue(self, refs: Iterable[UnresolvedReference]) -> None:
        """Take back references an external driver popped, unresolved.

        A driver that cannot resolve a popped batch — its device went
        down, or a fault ended the drive with requests in flight —
        returns it here.  References whose owner left the window in
        the meantime are dropped: nothing would resolve them, and a
        pool that outlives this operator must not keep them.
        """
        assert self._window is not None and self._scheduler is not None
        window = self._window
        self._scheduler.add_siblings(
            [ref for ref in refs if ref.owner in window]
        )

    def drain_emitted(self) -> List[AssembledComplexObject]:
        """Hand over every completed complex object buffered so far.

        External drivers use this instead of :meth:`next`: resolution
        via :meth:`resolve_external` appends completions to the emit
        buffer, and the driver collects them between steps.
        """
        emit = self._emit
        if not emit:
            return []
        drained = list(emit)
        emit.clear()
        return drained

    def is_drained(self) -> bool:
        """Nothing left to do or hand out?

        True once the source is exhausted, the window is empty, and no
        completed object is waiting in the emit buffer — the external
        driver's termination test.
        """
        assert self._window is not None
        return self._source_done and self._window.is_empty and not self._emit

    def release_stuck_deferred(self) -> None:
        """Safety valve: reschedule deferred references of stalled objects.

        Every driver calls this when the pool ran dry with the window
        still occupied (:meth:`is_drained` false).  With correct
        accounting it never fires; it exists so a template/data
        mismatch degrades to eager assembly instead of an infinite
        loop, and it raises :class:`AssemblyError` if the operator is
        truly stalled (window occupied, nothing deferred).
        """
        if not self.is_open:
            raise AssemblyError("release_stuck_deferred() on a non-open operator")
        assert self._scheduler is not None and self._window is not None
        released_any = False
        for state in self._window.states():
            if state.deferred:
                refs = state.deferred
                state.deferred = []
                self._scheduler.add_siblings(refs)
                released_any = True
        if not released_any:
            raise AssemblyError(
                "assembly stalled: window occupied but no references "
                "pending (template does not match the data?)"
            )

    # -- window management ---------------------------------------------------------

    def _fill_window(self) -> None:
        assert self._window is not None
        while not self._window.is_full and not self._source_done:
            row = self._source.next()
            if row is None:
                self._source_done = True
                return
            self._admit(row)

    def _admit(self, row: Row) -> None:
        assert self._window is not None
        if isinstance(row, Oid):
            self._admit_root_oid(row)
        elif isinstance(row, AssembledComplexObject):
            self._admit_partial(row.root)
        elif isinstance(row, AssembledObject):
            self._admit_partial(row)
        else:
            raise AssemblyError(
                f"assembly input must be Oid or assembled objects, "
                f"got {type(row).__name__}"
            )

    def _admit_root_oid(self, oid: Oid) -> None:
        assert self._window is not None and self._scheduler is not None
        template = self._component_iter.template
        state = self._window.admit(
            oid,
            total_nodes=template.node_count,
            total_predicates=template.predicate_count,
        )
        ref = self._component_iter.root_reference(oid)
        ref.page_id = self._store.directory.page_of(oid)
        ref.owner = state.serial
        ref.seq = self._next_seq()
        self._begin_slot_span(state.serial, oid, ref.node.label, ref.page_id)
        self._scheduler.add(ref)

    def _admit_partial(self, root: AssembledObject) -> None:
        """Admit a partially assembled complex object (Section 4).

        The component iterator finds every unresolved reference within
        the partial structure; outstanding counters start from what is
        still missing.  Predicates on already-materialized nodes are
        (re-)evaluated immediately.
        """
        assert self._window is not None and self._scheduler is not None
        refs = self._component_iter.expand_partial(root)
        missing_nodes = sum(ref.node.subtree_nodes for ref in refs)
        missing_predicates = sum(ref.node.subtree_predicates for ref in refs)
        state = self._window.admit(
            root.oid,
            total_nodes=missing_nodes,
            total_predicates=missing_predicates,
        )
        state.root = root
        self._begin_slot_span(state.serial, root.oid, root.node.label)
        # Predicates on nodes the partial input already materialized.
        if not self._evaluate_materialized_predicates(state, root):
            return
        self._schedule_children(state, refs)
        if state.outstanding_nodes == 0:  # root given, predicates passed
            self._complete(state)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- span bookkeeping ----------------------------------------------------

    def _begin_slot_span(
        self, serial: int, oid: Oid, label: str, page: int = -1
    ) -> None:
        """Open a (sampled) ``window-slot`` span for one admitted object,
        and record its admission under it."""
        if self._spans is None:
            return
        self._slot_spans[serial] = self._spans.begin(
            "window-slot",
            parent=self._assembly_span,
            kind="window-slot",
            sample=True,
            serial=serial,
            oid=str(oid),
        )
        self._decide(trace.ADMITTED, serial, oid, label, page)

    def _end_slot_span(
        self, outcome: str, serial: int, oid: Oid, **attrs: object
    ) -> None:
        """Record one object's ``outcome`` decision (emitted or aborted)
        and close its ``window-slot`` span with it."""
        if self._spans is None:
            return
        self._decide(outcome, serial, oid)
        span = self._slot_spans.pop(serial, None)
        if span is not None:
            self._spans.end(span, outcome=outcome, **attrs)

    def _decide(
        self, decision: str, owner: int, oid: Oid, label: str = "",
        page: int = -1,
    ) -> None:
        """Record one decision (a :mod:`repro.core.trace` kind) as an
        instant ``decision`` span under its owner's window slot.

        Callers hold the one ``self._spans`` guard of their site, so a
        run without a recorder makes no call here.
        """
        self._spans.event(
            decision,
            parent=self._slot_spans.get(owner),
            kind=trace.DECISION,
            owner=owner,
            oid=[oid.type_id, oid.serial],
            label=label,
            page=page,
        )

    # -- resolution --------------------------------------------------------------------

    def _resolve(self, refs: Iterable[UnresolvedReference]) -> None:
        """The step: resolve popped references, in the order given.

        Every driver ends here — :meth:`next` (one reference or one
        prefetched batch), :meth:`resolve_external` and
        :meth:`resolve_external_batch` — owning only its popping and its
        prefetch pins.  Liveness is decided per reference, at its turn:
        a predicate abort earlier in the batch retracts the siblings
        that were popped with it.

        Routing — stale (the owner left the window), linked from memory
        (the shared-component table, filled only with sharing statistics
        on, or a pre-assembled input) or fetched — runs in this frame.
        """
        states, shared = self._window.by_serial, self._shared
        preassembled, stats = self._preassembled, self.stats
        for ref in refs:
            state = states.get(ref.owner)
            if state is None:
                continue
            stats.refs_resolved += 1
            oid = ref.oid
            if oid in shared:
                self._link_shared(state, ref)
            elif oid in preassembled:
                self._link_preassembled(state, ref)
            else:
                self._fetch_and_expand(state, ref)
            # An abort may leave nothing outstanding; ``_complete``
            # raises if the root is still unset.
            if state.outstanding_nodes == 0 and not state.aborted:
                self._complete(state)

    def fetch_pages(self, refs: Iterable[UnresolvedReference]) -> List[int]:
        """The distinct pages resolving ``refs`` right now would read.

        In batch order (the order a coalesced read should sweep them).
        References whose owner already aborted, and those the
        shared-component table or a preassembled input satisfies
        without I/O, contribute nothing (routed as :meth:`_resolve`
        routes them).  Every batch driver decides what to prefetch here.
        """
        states, shared = self._window.by_serial, self._shared
        preassembled = self._preassembled
        pages: List[int] = []
        for ref in refs:
            if (
                ref.owner not in states
                or ref.oid in shared
                or ref.oid in preassembled
            ):
                continue
            page_id = ref.page_id  # stamped when it was scheduled
            if page_id not in pages:
                pages.append(page_id)
        return pages

    def _resolve_batch(self, refs: List[UnresolvedReference]) -> None:
        """Resolve one scheduler batch behind a coalesced prefetch.

        The distinct pages the batch will fetch are pinned with one
        :meth:`BufferManager.fix_many` (one physical read per
        contiguous run) before the step runs, so every coalesced
        reference is a buffer hit.  If the batch does not fit the pin
        bound the prefetch is skipped and the batch degrades to
        per-reference fetching.
        """
        prefetched: List[int] = []
        batch_span = None
        # Only a prefetch (two or more pages) or the batch span reads
        # the page list.  A batch lists each page once, in sweep order,
        # so one whose first and last reference share a page spans one
        # page: it never prefetches, and skips the routing pass.
        spans = self._spans
        if spans is None and refs[0].page_id == refs[-1].page_id:
            fetch_pages: List[int] = []
        else:
            fetch_pages = self.fetch_pages(refs)
        if spans is not None and fetch_pages:
            batch_span = spans.begin(
                "batch",
                parent=self._assembly_span,
                kind="batch",
                refs=len(refs),
                pages=len(fetch_pages),
            )
        if len(fetch_pages) > 1:
            try:
                self._store.buffer.fix_many(fetch_pages)
                prefetched = fetch_pages
                self.stats.prefetch_batches += 1
                self.stats.prefetch_pages += len(fetch_pages)
            except BufferFullError:
                prefetched = []
            except FaultError:
                # An injected fault hit the coalesced prefetch: fall
                # back to per-reference fetching, where the retry
                # policy and degradation modes apply per object.
                self.stats.fault_events += 1
                prefetched = []
        try:
            self._resolve(refs)
        finally:
            for page_id in prefetched:
                self._store.buffer.unfix(page_id)
            if batch_span is not None:
                self._spans.end(batch_span, prefetched=len(prefetched))

    def _link_shared(
        self, state: ComplexObjectState, ref: UnresolvedReference
    ) -> None:
        """Satisfy a reference from the shared-component table: no fetch."""
        entry = self._shared[ref.oid]
        entry.refcount += 1
        state.shared_oids.append(ref.oid)
        if ref.parent is None:
            state.root = entry.assembled
        else:
            ref.parent.swizzle(ref.parent_slot, entry.assembled)
        state.shared_links += 1
        self.stats.shared_links += 1
        if self._spans is not None:
            self._decide(
                trace.LINKED_SHARED, state.serial, ref.oid, ref.node.label,
                entry.page_id,
            )
        # The whole shared subtree is materialized; its predicates
        # passed when it was first assembled (else its first owner
        # would have aborted and the entry never created).
        state.outstanding_nodes -= ref.node.subtree_nodes
        self._note_predicates_resolved(state, ref.node.subtree_predicates)

    def _link_preassembled(
        self, state: ComplexObjectState, ref: UnresolvedReference
    ) -> None:
        """Attach a sub-object assembled by a lower operator (Figure 17)."""
        sub = self._preassembled[ref.oid]
        if ref.parent is None:
            state.root = sub
        else:
            ref.parent.swizzle(ref.parent_slot, sub)
        if self._spans is not None:
            self._decide(
                trace.LINKED_PREASSEMBLED, state.serial, ref.oid,
                ref.node.label,
            )
        remaining = self._component_iter.expand_partial(sub)
        # Of ref.node's template subtree, everything except what the
        # remaining references will bring in is already materialized.
        still_missing_nodes = sum(r.node.subtree_nodes for r in remaining)
        still_missing_preds = sum(r.node.subtree_predicates for r in remaining)
        state.outstanding_nodes -= ref.node.subtree_nodes - still_missing_nodes
        if not self._evaluate_materialized_predicates(state, sub):
            return
        self._schedule_children(state, remaining)
        self._note_predicates_resolved(
            state, ref.node.subtree_predicates - still_missing_preds
        )

    def _fetch_record(self, ref: UnresolvedReference) -> StoredRecord:
        """Fetch one object under a fault injector, retrying faults
        under the retry policy.

        :meth:`_fetch_and_expand` calls this only while the disk has an
        injector; the fault-free path is a plain ``fetch_pinned`` there
        — zero bookkeeping, bit-identical behavior.  Every
        :class:`~repro.errors.FaultError` is recorded (stats, trace,
        health tracker) and retried while the policy allows, charging
        simulated backoff through the injector; exhaustion raises
        :class:`~repro.errors.RetriesExhaustedError` (or the original
        fault when no policy was given).
        """
        fetch = self._store.fetch_pinned
        injector = self._disk.fault_injector
        policy = self._retry_policy
        attempt = 0
        while True:
            try:
                record = fetch(ref.oid)
            except FaultError as exc:
                self.stats.fault_events += 1
                device = getattr(exc, "device", 0)
                if self._health is not None:
                    self._health.record_failure(
                        device,
                        now=self._disk.fault_now(),
                        retry_after=getattr(exc, "retry_after", None),
                    )
                if self._spans is not None:
                    self._decide(
                        trace.FAULT, ref.owner, ref.oid, ref.node.label,
                        ref.page_id,
                    )
                    self._spans.event(
                        "retry-backoff",
                        parent=self._slot_spans.get(ref.owner),
                        kind="retry",
                        device=device,
                        oid=str(ref.oid),
                        attempt=attempt,
                    )
                if policy is None:
                    raise
                if not policy.should_retry(attempt):
                    raise RetriesExhaustedError(
                        f"fetch of {ref.oid} still failing after "
                        f"{attempt} retries",
                        page_id=ref.page_id,
                        device=device,
                        retries=attempt,
                    ) from exc
                backoff = policy.backoff_ms(
                    attempt, getattr(self._disk, "cost_model", None)
                )
                injector.charge_backoff(backoff)
                self.stats.fault_retries += 1
                self.stats.fault_backoff_ms += backoff
                attempt += 1
            else:
                if self._health is not None:
                    self._health.record_success(
                        self._disk.device_of(ref.page_id)
                    )
                return record

    def _degrade(
        self,
        state: ComplexObjectState,
        ref: UnresolvedReference,
        exc: FaultError,
    ) -> None:
        """Apply the ``on_fault`` mode to a fetch that gave up.

        ``partial`` drops just the faulted subtree — but only for
        non-root, predicate-free subtrees; anything that could decide
        the object's membership (the root itself, or a subtree holding
        predicates) falls back to ``skip_object``, because emitting the
        object without evaluating its predicates would be wrong rather
        than merely incomplete.
        """
        if self._on_fault == FAIL_FAST:
            raise exc
        partial_ok = (
            self._on_fault == PARTIAL
            and ref.parent is not None
            and ref.node.subtree_predicates == 0
        )
        if not partial_ok:
            self.stats.fault_skipped += 1
            self._abort(state)
            return
        state.degraded = True
        state.missing_components += 1
        state.outstanding_nodes -= ref.node.subtree_nodes
        self.stats.missing_components += 1
        if self._spans is not None:
            self._decide(
                trace.DEGRADED, state.serial, ref.oid, ref.node.label,
                ref.page_id,
            )

    def _fetch_and_expand(
        self, state: ComplexObjectState, ref: UnresolvedReference
    ) -> None:
        """The disk path: fetch, pin, swizzle, expand, test predicate;
        gated or traced children are placed by :meth:`_schedule_children`."""
        spans = self._spans
        fetch_span = None
        if spans is not None:
            fetch_span = spans.begin(
                "fetch",
                parent=self._slot_spans.get(state.serial),
                kind="fetch",
                device=self._disk.device_of(ref.page_id),
                oid=str(ref.oid),
                page=ref.page_id,
            )
        try:
            if self._disk.fault_injector is None:
                record = self._store.fetch_pinned(ref.oid)
            else:
                record = self._fetch_record(ref)
        except FaultError as exc:
            if fetch_span is not None:
                spans.end(fetch_span, outcome="faulted")
            self._degrade(state, ref, exc)
            return
        # The scheduler's page id is the object's page (no re-lookup).
        # The object owns the pin before anything below can raise (a
        # record the template does not fit, a predicate that cannot
        # evaluate it); a shared entry takes it once the predicate passed.
        page_id = ref.page_id
        pinned_pages = state.pinned_pages
        pinned_pages.append(page_id)
        if fetch_span is not None:
            spans.end(fetch_span, outcome="fetched")
            self._decide(
                trace.FETCHED, state.serial, ref.oid, ref.node.label,
                page_id,
            )
        state.fetches += 1
        stats = self.stats
        stats.fetches += 1
        pinned = self._store.buffer.pinned_pages
        if pinned > stats.peak_pinned_pages:
            stats.peak_pinned_pages = pinned

        node = ref.node
        assembled, children, missing_nodes, missing_predicates = (
            self._component_iter.materialize(ref.oid, node, record)
        )

        # Early abort on this node's predicate (Section 6.5), tested on
        # a mutable copy: the fetched record is the store's own.
        predicate = node.predicate
        if predicate is not None:
            passed = predicate.evaluate(record.to_record(self._store.fmt))
            if spans is not None:
                self._decide(
                    trace.PREDICATE_PASSED if passed else trace.PREDICATE_FAILED,
                    state.serial, ref.oid, node.label,
                )
            if not passed:
                self._abort(state)  # releases the pin with the others
                return
            missing_predicates += 1  # this node's, now decided

        if self._use_sharing and node.shared:
            # The entry owns the pin from here (released when the last
            # in-window referrer lets go — Section 5, reason two).
            pinned_pages.pop()
            assembled.shared_in = True
            self._shared[ref.oid] = _SharedEntry(assembled, page_id)
            state.shared_oids.append(ref.oid)

        # Swizzle.  The slot is free and in range: ``materialize`` made
        # one reference per followed slot of a fresh parent.
        parent = ref.parent
        if parent is None:
            state.root = assembled
        else:
            parent.children[ref.parent_slot] = assembled
        state.outstanding_nodes -= 1 + missing_nodes

        # Both steps are no-ops on a leaf with nothing left to decide.
        if children:
            if spans is None and not (
                self._selective and state.gate_references()
            ):
                # Place in slot order: page, owner, sequence number.
                rids = self._store.directory.rids
                serial = state.serial
                seq = self._seq
                for child in children:
                    seq += 1
                    try:
                        child.page_id = rids[child.oid].page_id
                    except KeyError:
                        # A dangling reference: the directory raises.
                        self._store.directory.page_of(child.oid)
                    child.owner = serial
                    child.seq = seq
                self._seq = seq
                self._scheduler.add_siblings(children)
            else:
                self._schedule_children(state, children)
        if missing_predicates:
            self._note_predicates_resolved(state, missing_predicates)

    def _schedule_children(
        self, state: ComplexObjectState, children: List[UnresolvedReference]
    ) -> None:
        """Place and queue child references, deferring predicate-blind ones.

        The component iterator built the references; their placement —
        physical page, owner, sequence number in slot order — is
        stamped here, at scheduling time.  A fetch whose children
        nothing gates and no span records places them in its own frame
        (:meth:`_fetch_and_expand`); partial inputs, pre-assembled links
        and every gated or traced fetch come here.

        While the owner still has undecided predicates, references
        whose subtree cannot reject the object are withheld — "first
        fetching objects needed to evaluate the predicate"
        (Section 6.5).
        """
        assert self._scheduler is not None
        now: List[UnresolvedReference] = []
        gate = self._selective and state.gate_references()
        page_of = self._store.directory.page_of
        serial = state.serial
        for child in children:
            self._seq += 1
            child.page_id = page_of(child.oid)
            child.owner = serial
            child.seq = self._seq
            if gate and child.node.subtree_predicates == 0:
                state.deferred.append(child)
                if self._spans is not None:
                    self._decide(
                        trace.DEFERRED, serial, child.oid, child.node.label
                    )
            else:
                now.append(child)
        if now:
            self._scheduler.add_siblings(now)

    def _note_predicates_resolved(
        self, state: ComplexObjectState, count: int
    ) -> None:
        """Decrement pending predicates; release deferred refs at zero."""
        if count <= 0:
            return
        state.pending_predicates -= count
        if state.pending_predicates < 0:
            raise AssemblyError(
                f"complex object {state.serial}: predicate accounting "
                f"went negative"
            )
        if state.pending_predicates == 0 and state.deferred:
            assert self._scheduler is not None
            released = state.deferred
            state.deferred = []
            self.stats.deferred_scheduled += len(released)
            if self._spans is not None:
                for ref in released:
                    self._decide(
                        trace.ACTIVATED, state.serial, ref.oid,
                        ref.node.label, ref.page_id,
                    )
            self._scheduler.add_siblings(released)

    def _evaluate_materialized_predicates(
        self, state: ComplexObjectState, root: AssembledObject
    ) -> bool:
        """Run predicates on already-assembled nodes; abort on failure."""
        for obj in root.walk():
            predicate = obj.node.predicate
            if predicate is None:
                continue
            record = ObjectRecord(
                ints=list(obj.ints),
                refs=list(obj.ref_oids),
                fmt=self._store.fmt,
            )
            if not predicate.evaluate(record):
                self._abort(state)
                return False
        return True

    # -- retirement ----------------------------------------------------------------------

    def _release_pins(self, state: ComplexObjectState) -> None:
        for page_id in state.pinned_pages:
            self._store.buffer.unfix(page_id)
        state.pinned_pages = []
        for oid in state.shared_oids:
            entry = self._shared.get(oid)
            if entry is None:
                continue
            entry.refcount -= 1
            if entry.refcount == 0 and entry.pinned:
                # Last in-window referrer gone: page becomes evictable
                # (the assembled object itself stays in the table).
                self._store.buffer.unfix(entry.page_id)
                entry.pinned = False
        state.shared_oids = []

    def _complete(self, state: ComplexObjectState) -> None:
        assert self._window is not None
        if state.root is None:
            raise AssemblyError(
                f"complex object {state.serial} completed without a root"
            )
        self._window.retire(state.serial)
        self._release_pins(state)
        self._emit.append(
            AssembledComplexObject(
                root=state.root,
                serial=state.serial,
                fetches=state.fetches,
                shared_links=state.shared_links,
                degraded=state.degraded,
                missing_components=state.missing_components,
            )
        )
        self.stats.emitted += 1
        if state.degraded:
            self.stats.degraded_emitted += 1
        self._end_slot_span(
            trace.EMITTED, state.serial, state.root.oid,
            fetches=state.fetches, shared_links=state.shared_links,
        )
        self._fill_window()

    def _abort(self, state: ComplexObjectState) -> None:
        """Predicate failure: retract the object with minimal waste."""
        assert self._window is not None and self._scheduler is not None
        state.aborted = True
        self._scheduler.remove_owner(state.serial)
        state.deferred = []
        self._window.retire(state.serial)
        self._release_pins(state)
        self.stats.aborted += 1
        self._end_slot_span(
            trace.ABORTED, state.serial, state.root_oid, fetches=state.fetches
        )
        self._fill_window()
