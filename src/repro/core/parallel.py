"""Parallel assembly and the exclusive-device problem (Section 7).

"The effectiveness of elevator scheduling depends on exclusive control
of the physical device.  When multiple assembly operators (or parallel
invocations of a single assembly operator) are executing, each assumes
sole control of the device and independently issues object fetch
requests.  Therefore, there are two or more independent queues of
requests for the device and the exclusive control assumption no longer
holds. … A possible solution could involve a server-per-device
architecture.  Each server would maintain a queue of requests and
would fetch objects on behalf of one or more assembly operators."

This module makes both sides of that argument executable:

* :class:`InterleavedAssemblies` — K assembly operators over disjoint
  root partitions, each with its **own** scheduler queue, stepped
  round-robin against one shared disk (exchange's deal and merge,
  :class:`~repro.volcano.exchange.PartitionedExecute`, with an
  assembly fragment).  Each operator believes it owns the device;
  their elevator sweeps fight, and seek distance degrades as K grows.
* :class:`DeviceServerAssembly` — the server-per-device fix: the same
  K partitions, each registered as a client query of the real device
  server (:class:`repro.service.device_server.DeviceServer`), so every
  operator's references flow into **one** global elevator sweep.

Both are ordinary Volcano iterators, so the ablation benchmark can
compare them like-for-like.  ``DeviceServerAssembly`` is kept as a
thin wrapper for the static K-partition use case; the service layer in
:mod:`repro.service` is the full multi-client generalization — dynamic
query registry, admission control, result caching.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # import cycle: the service builds on core
    from repro.service.device_server import DeviceServer

from repro.core.assembly import Assembly
from repro.core.template import Template
from repro.errors import AssemblyError
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.volcano.exchange import PartitionedExecute
from repro.volcano.iterator import Row, VolcanoIterator


class InterleavedAssemblies(PartitionedExecute):
    """K independent assembly operators contending for one device.

    Exchange (:class:`~repro.volcano.exchange.PartitionedExecute`)
    with an :class:`Assembly` fragment: each round-robin partition of
    the roots gets its own operator (own window, own scheduler queue),
    and ``next`` serves the partitions round-robin, one emitted
    complex object per turn — the demand pattern a parallel query plan
    would generate.  Because each operator's elevator plans sweeps
    without seeing the others' fetches, the disk head is yanked
    between K uncoordinated sweep positions.
    """

    def __init__(
        self,
        roots: List[Oid],
        store: ObjectStore,
        template: Template,
        n_partitions: int,
        window_size: int = 50,
        scheduler: str = "elevator",
        **assembly_kwargs,
    ) -> None:
        if n_partitions <= 0:
            raise AssemblyError("need at least one partition")
        per_window = max(1, window_size // n_partitions)
        super().__init__(
            roots,
            n_partitions,
            lambda source: Assembly(
                source,
                store,
                template,
                window_size=per_window,
                scheduler=scheduler,
                **assembly_kwargs,
            ),
        )

    def total_fetches(self) -> int:
        """Object fetches across all partitions (readable after close)."""
        return sum(op.stats.fetches for op in self._plans)


class DeviceServerAssembly(VolcanoIterator):
    """The server-per-device fix: one request queue for all partitions.

    Since the assembly service landed, this class is a thin wrapper
    over :class:`repro.service.device_server.DeviceServer` — the full
    dynamic multi-client realization of Section 7's sketch.  Each of
    the K partitions registers as one client query (window
    ``window_size // K``); all their references merge into the server's
    single global elevator sweep, re-establishing the exclusive-control
    assumption exactly as the paper predicts.  ``next`` emits completed
    objects round-robin across partitions.

    The original static K-partition class survives under this name so
    existing imports keep working; new code that wants live queries,
    admission control, or caching should use
    :class:`repro.service.server.AssemblyService` directly.
    """

    def __init__(
        self,
        roots: List[Oid],
        store: ObjectStore,
        template: Template,
        n_partitions: int,
        window_size: int = 50,
        scheduler: str = "elevator",
        batch_pages: int = 1,
        **assembly_kwargs,
    ) -> None:
        super().__init__()
        if scheduler != "elevator":
            raise AssemblyError(
                "the device server schedules with its global elevator; "
                f"per-partition scheduler {scheduler!r} is not supported"
            )
        if n_partitions <= 0:
            raise AssemblyError("need at least one partition")
        roots = list(roots)
        self._partitions = [
            roots[index::n_partitions] for index in range(n_partitions)
        ]
        self._store = store
        self._template = template
        self._per_window = max(1, window_size // n_partitions)
        # batch_pages drives the server's global sweep, not the client
        # operators (their proxy schedulers never pop).
        self._batch_pages = batch_pages
        self._assembly_kwargs = assembly_kwargs
        self._server: Optional["DeviceServer"] = None

    def _open(self) -> None:
        from repro.service.device_server import DeviceServer

        self._server = DeviceServer(
            self._store,
            starvation_bound=None,
            batch_pages=self._batch_pages,
        )
        for part in self._partitions:
            self._server.register(
                part,
                self._template,
                window_size=self._per_window,
                **self._assembly_kwargs,
            )

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

    def total_fetches(self) -> int:
        """Object fetches through the device server."""
        if self._server is None:
            return 0
        return sum(
            query.stats.fetches
            for query in self._server.active_queries()
        )
