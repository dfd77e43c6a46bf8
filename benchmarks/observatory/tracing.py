"""Spans around the public entry points of every layer.

The traced pass of the run protocol installs timing wrappers — from
this file, not from inside the program — around the calls *into* each
layer, records one span per call (name, start, end, parent), and
removes the wrappers again.  Spans stay in memory until the pass ends;
self time (a span's duration minus the part its child spans cover) is
aggregated per layer afterwards, and the spans can be written as Chrome
``trace_event`` JSON for ``chrome://tracing`` / Perfetto.

A wrapper is installed on the class that *defines* the method, for the
listed class and every subclass of it inside ``repro`` (so a
``CostedDisk.read`` that calls ``SimulatedDisk.read`` is two nested
spans of one layer, and every concrete scheduler is covered).  Timed
passes never run with wrappers installed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster import Reorganizer
from repro.core import (
    Assembly,
    ComponentIterator,
    PipelinedAssembly,
    ReferenceScheduler,
)
from repro.fabric import ConsistentHashRouter, ServiceFabric, ShardReplica
from repro.service import (
    AdmissionController,
    AssembledObjectCache,
    AssemblyService,
    DeviceServer,
)
from repro.storage import (
    AsyncIOEngine,
    BufferManager,
    ObjectStore,
    SimulatedDisk,
)
from repro.volcano import VolcanoIterator

#: Self time of the pass's root span: the benchmark's own driver code
#: plus anything the wrappers below do not cover.
DRIVER = "host.driver_self_s"
ENGINE = "core.assembly.self_s"
VOLCANO = "volcano.operators_self_s"
SCHEDULERS = "core.schedulers.self_s"

#: (class, methods, per-layer metric the spans' self time adds up in).
#: This table is the wrapped surface; README.md lists it for refactors.
POINTS: Tuple[Tuple[type, Tuple[str, ...], str], ...] = (
    (SimulatedDisk, ("read", "read_run", "read_batch", "write"),
     "storage.disk.self_s"),
    (BufferManager, ("fix", "fix_many", "unfix"), "storage.buffer.self_s"),
    (ObjectStore, ("fetch", "fetch_pinned", "unpin"), "storage.store.self_s"),
    (ObjectStore, ("migrate", "overwrite"), "storage.store.write_self_s"),
    (AsyncIOEngine, ("issue", "wait_next", "spend_cpu"),
     "storage.events.self_s"),
    (ReferenceScheduler, ("add", "pop", "pop_batch", "remove_owner"),
     SCHEDULERS),
    (ComponentIterator, ("materialize",), "core.component_iterator.self_s"),
    # The external drivers (pipelined, device server) enter the engine
    # here instead of through next(); without these two the engine's
    # work would be billed to whichever driver called it.
    (Assembly, ("resolve_external", "resolve_external_batch"), ENGINE),
    (PipelinedAssembly, ("run",), "core.multidevice.self_s"),
    (DeviceServer, ("step",), "service.device_server.self_s"),
    (AssemblyService, ("submit",), "service.server.submit_self_s"),
    (AssemblyService, ("step",), "service.server.step_self_s"),
    (AssemblyService, ("poll", "result"), "service.server.poll_self_s"),
    (AdmissionController, ("submit", "release"), "service.admission.self_s"),
    (AssembledObjectCache, ("get", "put", "invalidate"),
     "service.cache.self_s"),
    (Reorganizer, ("observe", "plan_round", "run_round"),
     "cluster.reorg.self_s"),
    (ServiceFabric, ("run",), "fabric.loop.self_s"),
    (ShardReplica, ("submit", "step"), "fabric.replica.self_s"),
    (ConsistentHashRouter, ("shard_of",), "fabric.router.self_s"),
)

#: ``VolcanoIterator`` defines the protocol methods once for every
#: operator, so their spans are named and billed by the instance's
#: class: the engine (``Assembly``) to ``core.assembly``, every other
#: operator to ``volcano``.
VOLCANO_METHODS = ("open", "next", "close")

#: Methods whose span carries a request id (return value / first arg).
REQUEST_FROM_RESULT = {("AssemblyService", "submit")}
REQUEST_FROM_ARG = {("AssemblyService", "poll"), ("AssemblyService", "result")}


def with_subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass of it defined inside ``repro``."""
    found = [cls]
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            found.extend(with_subclasses(sub))
    return found


class Tracer:
    """Installs the wrappers, holds the spans of one pass, aggregates."""

    def __init__(self) -> None:
        #: span name / per-layer metric, indexed by name id.
        self.names: List[str] = []
        self.metrics: List[str] = []
        #: one entry per span, in start order.
        self.name_ids: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: span index -> service request id (request-scoped spans only).
        self.requests: Dict[int, int] = {}
        self._current = [-1]  # index of the open span, shared by wrappers
        self._installed: List[Tuple[type, str, Callable]] = []

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str, metric: str) -> int:
        self.names.append(name)
        self.metrics.append(metric)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, name_id: int) -> Callable:
        """``fn`` recording one span per call (the hot path of tracing)."""
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, current = self.parents, self._current
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                current[0] = parents[index]

        wrapper.__wrapped__ = fn
        return wrapper

    def _tag_request(self, wrapped: Callable, from_result: bool) -> Callable:
        """``wrapped`` (a span wrapper) also noting the service request id
        its span belongs to: the return value or the first argument."""
        starts, requests = self.starts, self.requests

        def tagged(*args, **kwargs):
            index = len(starts)  # the span ``wrapped`` is about to open
            result = wrapped(*args, **kwargs)
            requests[index] = result if from_result else args[1]
            return result

        tagged.__wrapped__ = wrapped.__wrapped__
        return tagged

    def _wrap_by_instance(self, fn: Callable, method: str) -> Callable:
        """``fn`` with its spans named and billed by ``type(self)``."""
        by_class: Dict[type, Callable] = {}

        def dispatch(self_, *args, **kwargs):
            wrapped = by_class.get(type(self_))
            if wrapped is None:
                cls = type(self_)
                metric = ENGINE if issubclass(cls, Assembly) else VOLCANO
                name_id = self._name_id(f"{cls.__name__}.{method}", metric)
                wrapped = by_class[cls] = self._wrap(fn, name_id)
            return wrapped(self_, *args, **kwargs)

        dispatch.__wrapped__ = fn
        return dispatch

    def install(self) -> None:
        """Patch every point; objects built afterwards see the wrappers
        even where they keep bound methods (the cache's write hook)."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for base, methods, metric in POINTS:
            for cls in with_subclasses(base):
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    name_id = self._name_id(f"{cls.__name__}.{method}", metric)
                    wrapper = self._wrap(fn, name_id)
                    key = (cls.__name__, method)
                    if key in REQUEST_FROM_RESULT or key in REQUEST_FROM_ARG:
                        wrapper = self._tag_request(
                            wrapper, from_result=key in REQUEST_FROM_RESULT
                        )
                    self._patch(cls, method, wrapper)
        for method in VOLCANO_METHODS:
            fn = VolcanoIterator.__dict__[method]
            self._patch(
                VolcanoIterator, method, self._wrap_by_instance(fn, method)
            )

    def _patch(self, cls: type, method: str, wrapper: Callable) -> None:
        self._installed.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def remove(self) -> None:
        """Put every original method back."""
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    # -- one pass ------------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans (in place: wrappers hold the lists)."""
        for column in (self.name_ids, self.starts, self.ends, self.parents):
            del column[:]
        self.requests.clear()
        self._current[0] = -1

    def run_root(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` as the pass's root span; spans recorded before it
        (while the stack was being built) are dropped."""
        self.reset()
        return self._wrap(call, self._name_id(name, DRIVER))()

    # -- aggregation ---------------------------------------------------------

    def functions(self) -> Dict[str, Dict[str, Any]]:
        """Per wrapped function: its layer metric, calls, self seconds.

        A span's self time is its duration minus the part its child
        spans cover.  ``outermost`` counts the calls whose parent span
        belongs to another layer metric, so a scheduler that delegates
        to per-device schedulers counts one operation, not two.
        """
        count = len(self.starts)
        covered = [0.0] * count
        metrics, name_ids, parents = self.metrics, self.name_ids, self.parents
        table: Dict[int, Dict[str, Any]] = {}
        # Children start after their parent, so a reverse sweep sees
        # every child before the span that caused it.
        for index in range(count - 1, -1, -1):
            duration = self.ends[index] - self.starts[index]
            name_id = name_ids[index]
            entry = table.get(name_id)
            if entry is None:
                entry = table[name_id] = {
                    "metric": metrics[name_id],
                    "calls": 0, "outermost": 0, "self_s": 0.0,
                }
            entry["calls"] += 1
            entry["self_s"] += duration - covered[index]
            parent = parents[index]
            if parent >= 0:
                covered[parent] += duration
            if parent < 0 or metrics[name_ids[parent]] != metrics[name_id]:
                entry["outermost"] += 1
        return {self.names[name_id]: entry for name_id, entry in table.items()}

    def wall_s(self) -> float:
        """Duration of the root span."""
        return self.ends[0] - self.starts[0] if self.starts else 0.0

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path: Path, pass_id: str) -> Path:
        """Write the spans as Chrome ``trace_event`` complete events.

        Every event carries the pass id; request-scoped spans also
        carry their service request id.  Nesting is recoverable from
        the timestamps on the single thread, as the viewers do it.
        """
        origin = self.starts[0] if self.starts else 0.0
        events = []
        for index, name_id in enumerate(self.name_ids):
            args = {"id": pass_id, "parent": self.parents[index]}
            if index in self.requests:
                args["request"] = self.requests[index]
            events.append(
                {
                    "name": self.names[name_id],
                    "cat": self.metrics[name_id].rsplit(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((self.starts[index] - origin) * 1e6, 3),
                    "dur": round(
                        (self.ends[index] - self.starts[index]) * 1e6, 3
                    ),
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return path
