"""The device server: one global elevator sweep for many live queries.

Section 7 of the paper: "each server would maintain a queue of requests
and would fetch objects on behalf of one or more assembly operators."
Where :class:`DeviceServerAssembly` (below) demonstrates the idea for K
*static* partitions of one root set, :class:`DeviceServer` generalizes
it to a dynamic registry of independent client queries:

* Each registered query is an ordinary :class:`~repro.core.assembly.
  Assembly` operator, with its own window, template and root stream —
  but its scheduler is a :class:`_ProxyScheduler` that names the query
  on every unresolved reference (``ref.client``) and forwards it into
  the server's **global** pool.
* The global pool is one :class:`~repro.core.multidevice.
  MultiDeviceScheduler`, one elevator per device, so all concurrent
  queries share a single sweep per head: the exclusive-control
  assumption restored service-wide.  Each step serves the device
  :func:`~repro.core.multidevice.deepest_device` picks (ties to the
  lowest), or probes — see :meth:`DeviceServer._probe`.
* Fairness: pure SCAN can park on one query's hot region while another
  query's references wait at the far end of the disk.  The server
  stamps each query with the service clock when it was last served
  (or when its pending count last rose from zero); the query with the
  oldest stamp, once starved past ``starvation_bound``, preempts the
  sweep and gets its nearest reference served next.  Completed objects
  are emitted round-robin across queries with output pending.

Every tie in the sweep breaks on a global admission sequence number, so
a given registration order replays the exact same fetch sequence —
tests rely on this determinism.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cluster.reorg import Reorganizer
from repro.core.assembled import AssembledComplexObject
from repro.core.assembly import Assembly
from repro.core.multidevice import MultiDeviceScheduler, deepest_device
from repro.core.schedulers import ReferenceScheduler, UnresolvedReference
from repro.core.template import Template
from repro.errors import AssemblyError, SchedulerError, ServiceStateError
from repro.iterator import ListSource, Row, VolcanoIterator
from repro.storage.faults import DeviceHealthTracker
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore

#: Default starvation bound: a query never waits more than this many
#: global resolutions between services while it has references pending.
DEFAULT_STARVATION_BOUND = 64


class _ProxyScheduler(ReferenceScheduler):
    """Per-query scheduler that forwards into the server's global pool.

    The owning :class:`~repro.core.assembly.Assembly` believes this is
    its private reference pool; every ``add`` writes the query id onto
    the reference (``ref.client``) and lands it in the device server's
    pool, and ``pop`` is forbidden — only the server drains the pool,
    through :meth:`Assembly.resolve_external`.
    """

    name = "device-server-proxy"

    def __init__(self, server: "DeviceServer", query_id: int) -> None:
        super().__init__()
        self._server = server
        self._query_id = query_id

    def add(self, ref: UnresolvedReference) -> None:
        """Forward one reference, named as this query's, into the
        global pool."""
        self.ops += 1
        ref.client = self._query_id
        self._server._enqueue(ref)

    def pop(self) -> UnresolvedReference:
        """Forbidden: the device server owns draining."""
        raise SchedulerError(
            "query references are drained by the device server; "
            "drive the query through DeviceServer.step()"
        )

    def remove_owner(self, owner: int) -> List[UnresolvedReference]:
        """Retract this query's references for an aborted object."""
        removed = self._server._retract(self._query_id, owner)
        self.ops += len(removed)
        return removed

    def __len__(self) -> int:
        return self._server.pending_of(self._query_id)


class ClientQuery:
    """One live client query registered with a device server.

    Wraps the query's :class:`~repro.core.assembly.Assembly` operator
    plus the service-side bookkeeping: output buffer, fairness stamp,
    and completion flag.  Handed back by
    :meth:`DeviceServer.register`; results are taken with
    :meth:`take_results` (or via the server's round-robin
    :meth:`DeviceServer.next_result`).
    """

    def __init__(self, query_id: int, assembly: Assembly, stamp: int) -> None:
        self.query_id = query_id
        self.assembly = assembly
        #: completed complex objects not yet taken by the client.
        self.output: List[AssembledComplexObject] = []
        #: service clock when this query was last served, or when its
        #: pending count last rose from zero (see DeviceServer.waited).
        self.stamp = stamp
        #: resolutions served to this query (fairness diagnostics).
        self.served = 0
        self.finished = False

    @property
    def stats(self):
        """The underlying operator's :class:`AssemblyStats`."""
        return self.assembly.stats

    def take_results(self) -> List[AssembledComplexObject]:
        """Hand over (and clear) the buffered completed objects."""
        out = self.output
        self.output = []
        return out


class DeviceServer:
    """Multiplexes many client queries over shared storage devices.

    Parameters
    ----------
    store:
        The shared object store.  The server pools references in one
        elevator queue per device of its disk (one queue for a
        single-device disk).
    starvation_bound:
        Maximum global resolutions a query with pending references may
        wait between services (per-query fairness).  ``None`` disables
        the bound (pure global SCAN).
    spans:
        Optional :class:`~repro.obs.spans.SpanRecorder` shared with
        every registered query's operator (unless the caller passes its
        own ``spans=`` to :meth:`register`).  Each step records one
        ``scheduler-pop`` span.  Strictly observational.
    reorg_policy:
        Optional :class:`~repro.cluster.reorg.ReorgPolicy` enabling the
        online reorganizer.  The server then feeds every resolved
        reference into the reorganizer's affinity sketch, keyed by the
        in-flight complex object it was fetched for; rounds run only
        when the pool is drained (``pending_total() == 0``) so no
        pooled reference's page-id scheduling key can go stale.  With
        the default ``None``, no reorganizer exists and every code path
        is bit-identical to a server built before this feature.
    """

    def __init__(
        self,
        store: ObjectStore,
        starvation_bound: Optional[int] = DEFAULT_STARVATION_BOUND,
        spans=None,
        reorg_policy=None,
    ) -> None:
        if starvation_bound is not None and starvation_bound <= 0:
            raise ServiceStateError("starvation_bound must be positive")
        self.store = store
        self.starvation_bound = starvation_bound
        self.spans = spans
        #: the global pool, one elevator per device.
        self._pool = MultiDeviceScheduler(store.disk)
        #: its live pending count per device (never written here).
        self._depths = self._pool.queue_depths()
        #: nothing is in flight between two synchronous steps.
        self._idle = [0] * store.disk.n_devices
        self._queries: Dict[int, ClientQuery] = {}
        self._pending: Dict[int, int] = {}
        self._pending_total = 0
        #: ``(stamp, query id)`` min-heap: the oldest live stamp is the
        #: most starved query.  Entries go stale when a query is
        #: restamped or runs dry and are dropped once they surface.
        #: No bound, no heap: nothing would ever read it.
        self._stamps: Optional[List[Tuple[int, int]]] = (
            None if starvation_bound is None else []
        )
        #: ids of the queries collected during the current step (reset
        #: by :meth:`step`): only they can have output or be finished.
        self.touched: List[int] = []
        self._next_query_id = 0
        self._seq = 0
        self._emit_turn = 0
        #: total references resolved across all queries (the service clock).
        self.resolutions = 0
        #: per-device circuit breaker, shared with every registered
        #: query's operator (failures recorded on their fetch paths
        #: quarantine the device for the whole sweep).
        self.health = DeviceHealthTracker(store.disk.n_devices)
        if reorg_policy is not None:
            depths = self._depths  # not ``self``: that would be a cycle
            self.reorg: Optional[Reorganizer] = Reorganizer(
                store,
                reorg_policy,
                idle_check=lambda: not any(depths),
            )
        else:
            self.reorg = None

    # -- registration ---------------------------------------------------------

    def register(
        self,
        roots: Union[VolcanoIterator, Iterable[Oid]],
        template: Template,
        window_size: int = 8,
        **assembly_kwargs,
    ) -> ClientQuery:
        """Admit a new live query; its root references enter the pool.

        ``roots`` may be any Volcano iterator yielding root OIDs (or a
        plain iterable, wrapped in a :class:`ListSource`).  Remaining
        keyword arguments go to :class:`~repro.core.assembly.Assembly`
        unchanged (sharing statistics, selective assembly, …).
        """
        if "scheduler" in assembly_kwargs:
            raise ServiceStateError(
                "device-server queries cannot choose a private scheduler; "
                "the server owns the reference pool"
            )
        query_id = self._next_query_id
        self._next_query_id += 1
        source = (
            roots
            if isinstance(roots, VolcanoIterator)
            else ListSource(list(roots))
        )
        proxy = _ProxyScheduler(self, query_id)
        assembly_kwargs.setdefault("health", self.health)
        if self.spans is not None:
            assembly_kwargs.setdefault("spans", self.spans)
        assembly = Assembly(
            source,
            self.store,
            template,
            window_size=window_size,
            scheduler=proxy,
            **assembly_kwargs,
        )
        query = ClientQuery(query_id, assembly, self.resolutions)
        self._queries[query_id] = query
        self._pending[query_id] = 0
        try:
            assembly.open()  # fills the window; roots flow into the pool
        except BaseException:
            self.deregister(query_id)  # it retracted what it had admitted
            raise
        self._collect(query)
        return query

    def deregister(self, query_id: int) -> None:
        """Drop a query (finished or cancelled); retracts its references."""
        query = self._queries.pop(query_id, None)
        if query is None:
            return
        if query.assembly.is_open:
            query.assembly.close()  # retracts in-window owners' refs
        self._pending.pop(query_id, None)

    # -- pool maintenance (called by the proxy schedulers) --------------------

    def _enqueue(self, ref: UnresolvedReference) -> None:
        # Per-assembly sequence numbers are not unique across queries:
        # the pool's tie-break is the global admission sequence.
        self._seq += 1
        ref.seq = self._seq
        self._pool.add(ref)
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
        removed = self._pool.remove_owner(owner, query_id)
        if removed:
            self._pending[query_id] -= len(removed)
            self._pending_total -= len(removed)
        return removed

    def pending_of(self, query_id: int) -> int:
        """Pending pool references of one query."""
        return self._pending.get(query_id, 0)

    def pending_total(self) -> int:
        """Pending pool references across all queries."""
        return self._pending_total

    def queue_depths(self) -> List[int]:
        """Pending references per device: the pool's live list."""
        return self._depths

    # -- scheduling ---------------------------------------------------------

    def waited(self, query_id: int) -> int:
        """Global resolutions since ``query_id`` was last served, counted
        while it had references pending (0 when it has none)."""
        if not self._pending[query_id]:
            return 0
        return self.resolutions - self._queries[query_id].stamp

    def _starved_query(self) -> Optional[int]:
        # The oldest live stamp waited longest; equal stamps go to the
        # lowest query id.  A query's pending count only reaches zero
        # when it is served, so its stamp is exact while it has any.
        stamps = self._stamps
        if stamps is None:
            return None
        queries = self._queries
        pending = self._pending
        while stamps:
            stamp, query_id = stamps[0]
            query = queries.get(query_id)
            if query is None or query.stamp != stamp or not pending[query_id]:
                heappop(stamps)
                continue
            if self.resolutions - stamp >= self.starvation_bound:
                return query_id
            return None
        return None

    def _probe(self) -> int:
        """The pending device that reopens first (lowest on ties), served
        when every pending device is quarantined: on the synchronous op
        clock only an attempt ends an outage, where the overlapped
        driver can wait on its engine clock."""
        return min(
            (device for device, depth in enumerate(self._depths) if depth),
            key=self.health.quarantined_until,
        )

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Resolve one reference globally; ``False`` when idle.

        Pops the sweep-next (or starvation-overridden) reference, hands
        it to its owning query's operator, and collects any complex
        objects that completed as a result.  When the pool is empty but
        some query is unfinished, stuck deferred references are
        released (the selective-assembly corner the core operator
        handles the same way).

        If the query's operator raises (a ``fail_fast`` fault), the
        error propagates with every *other* query whole: further steps
        keep serving them once the failed query is deregistered.
        """
        self.touched = []
        if not self._pending_total and not self._release_stuck():
            return False
        starved = self._starved_query()
        if starved is None:
            depths = self._depths
            if len(depths) == 1:
                device = 0  # the deepest queue or the only probe
            else:
                # No clock is read before some breaker has opened.
                health = self.health
                now = self.store.disk.fault_now() if health.reopened_by else 0.0
                device = deepest_device(
                    depths, 0, self._idle, 1, health, now
                )
                if device < 0:
                    device = self._probe()
            ref = self._pool.pop_on(device)
        else:
            # A starved query has a reference pending somewhere.
            device, ref = self._pool.pop_nearest(starved)
        # Popped, a reference is this step's, no longer pending.
        self._pending[ref.client] -= 1
        self._pending_total -= 1
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

    def _serve(self, ref: UnresolvedReference) -> None:
        """Hand a popped reference to its owning query's operator:
        service clock, fairness stamp, affinity observation, resolution,
        collection."""
        query_id = ref.client
        query = self._queries[query_id]
        self.resolutions = now = self.resolutions + 1
        query.stamp = now
        if self._stamps is not None and self._pending[query_id]:
            heappush(self._stamps, (now, query_id))
        query.served += 1
        if self.reorg is not None:
            # One affinity observation per resolved reference, grouped
            # by the client request it was fetched for — the co-access
            # context recurring queries share.
            self.reorg.observe(query_id, ref.oid)
        query.assembly.resolve_external(ref)
        self._collect(query)

    def _release_stuck(self) -> bool:
        released = False
        for query in self._queries.values():
            if query.finished or self._pending[query.query_id] > 0:
                continue
            if not query.assembly.is_drained():
                query.assembly.release_stuck_deferred()
                released = self._pending[query.query_id] > 0 or released
                self._collect(query)
        return released and self._pending_total > 0

    def _collect(self, query: ClientQuery) -> None:
        self.touched.append(query.query_id)
        emitted = query.assembly.drain_emitted()
        if emitted:
            query.output.extend(emitted)
        if (
            not query.finished
            and self._pending[query.query_id] == 0
            and query.assembly.is_drained()
        ):
            query.finished = True
            if query.assembly.is_open:
                query.assembly.close()

    # -- results ------------------------------------------------------------

    def active_queries(self) -> List[ClientQuery]:
        """Registered queries, registration order."""
        return list(self._queries.values())

    def next_result(self) -> Optional[Tuple[int, AssembledComplexObject]]:
        """Round-robin one completed object across queries with output.

        Returns ``(query_id, complex object)`` or ``None`` when no
        query has buffered output.  Rotation is by query id so no
        client's completions monopolize the emission stream.
        """
        ids = sorted(self._queries)
        if not ids:
            return None
        n = len(ids)
        for offset in range(n):
            query_id = ids[(self._emit_turn + offset) % n]
            query = self._queries[query_id]
            if query.output:
                self._emit_turn = (self._emit_turn + offset + 1) % n
                return query_id, query.output.pop(0)
        return None


class DeviceServerAssembly(VolcanoIterator):
    """The server-per-device fix as one operator: K partitions, one queue.

    "The effectiveness of elevator scheduling depends on exclusive
    control of the physical device.  When multiple assembly operators
    (or parallel invocations of a single assembly operator) are
    executing, each assumes sole control of the device and
    independently issues object fetch requests. … A possible solution
    could involve a server-per-device architecture.  Each server would
    maintain a queue of requests and would fetch objects on behalf of
    one or more assembly operators." (Section 7)

    :class:`~repro.volcano.assembly.InterleavedAssemblies` is the
    problem half of that argument; this is the fix, as a thin wrapper
    over :class:`DeviceServer` for the static K-partition case.  Each
    of the K round-robin partitions of the roots registers as one
    client query (window ``window_size // K``); all their references
    merge into the server's single global elevator sweep,
    re-establishing the exclusive-control assumption exactly as the
    paper predicts.  ``next`` emits completed objects round-robin
    across partitions.  Both are ordinary Volcano iterators, so the
    ablation benchmark (Figure A-5) compares them like-for-like; code
    that wants live queries, admission control or caching should use
    :class:`repro.service.server.AssemblyService` directly.
    """

    def __init__(
        self,
        roots: List[Oid],
        store: ObjectStore,
        template: Template,
        n_partitions: int,
        window_size: int = 50,
        **assembly_kwargs,
    ) -> None:
        super().__init__()
        if n_partitions <= 0:
            raise AssemblyError("need at least one partition")
        roots = list(roots)
        self._partitions = [
            roots[index::n_partitions] for index in range(n_partitions)
        ]
        self._store = store
        self._template = template
        self._per_window = max(1, window_size // n_partitions)
        self._assembly_kwargs = assembly_kwargs
        self._server: Optional[DeviceServer] = None

    def _open(self) -> None:
        self._server = DeviceServer(self._store, starvation_bound=None)
        try:
            for part in self._partitions:
                self._server.register(
                    part,
                    self._template,
                    window_size=self._per_window,
                    **self._assembly_kwargs,
                )
        except BaseException:
            self._close()  # the partitions already registered stay open otherwise
            raise

    def _next(self) -> Optional[Row]:
        assert self._server is not None
        while True:
            emitted = self._server.next_result()
            if emitted is not None:
                return emitted[1]
            if not self._server.step():
                return None

    def _close(self) -> None:
        # Release any pins still held by unfinished queries; the server
        # (and its per-query stats) stay readable until the next open.
        if self._server is not None:
            for query in self._server.active_queries():
                if query.assembly.is_open:
                    query.assembly.close()
