"""The seven observatory workloads.

Each workload is one fixed shape of work over the assembly stack,
chosen to load a different set of layers (see ``README.md`` for the
table of which layer each one isolates).  A workload is four steps the
run protocol in :mod:`protocol` calls in order:

* ``setup(seed)`` — generate the database from the seed, lay it out,
  snapshot it.  Timed as ``setup_s``.
* ``fresh(prepared)`` — restore a fresh disk/buffer/store (and service
  or fabric on top) from the snapshot.  Never timed.
* ``drive(stack)`` — the one timed call.  It receives only generated
  inputs (OID lists, request specs), never the seed.
* ``check`` / ``counters`` — the output oracle and the public stats of
  the pass, read after the clock stopped.

Only public names of ``repro.storage``, ``repro.core``,
``repro.cluster``, ``repro.service``, ``repro.fabric``,
``repro.volcano`` and ``repro.workloads`` are used; nothing from
``repro.bench`` and no underscore attribute.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster import (
    InterObjectClustering,
    IntraObjectClustering,
    ReorgPolicy,
    Unclustered,
    layout_database,
    restore_layout,
    snapshot_layout,
)
from repro.core import Assembly, MultiDeviceScheduler, PipelinedAssembly
from repro.fabric import (
    HedgePolicy,
    PoissonArrivals,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.service import AssemblyService, RequestStatus, ServiceMetrics
from repro.storage import (
    AsyncIOEngine,
    BufferManager,
    MultiDeviceDisk,
    ObjectStore,
)
from repro.storage.costmodel import CostedDisk, CostModel
from repro.volcano import (
    AssemblyOperator,
    ComponentFilter,
    HashAggregate,
    HashJoin,
    ListSource,
    push_down_component_filters,
)
from repro.workloads import (
    PAYLOAD_RANGE,
    generate_acob,
    make_template,
    payload_predicate,
)
from repro.workloads.acob import PAYLOAD_SLOT

#: Integer slot of the ACOB ``id`` field (the complex object's index).
ID_SLOT = 0

#: Content key of one complex object: ``(oid, ints, ref_oids)`` of every
#: component in pre-order (slot order), the order ``root.walk()`` yields.
ContentKey = Tuple[Tuple[Any, Tuple[int, ...], Tuple[Any, ...]], ...]


# -- oracle -----------------------------------------------------------------


def definition_keys(db) -> Dict[Any, ContentKey]:
    """Content key of every complex object, from the definitions alone.

    This is the oracle side: it never touches a disk, a store or the
    assembly engine, only the generator's in-memory ``ObjectDef``s.
    """
    records: Dict[Any, Tuple[Any, Tuple[int, ...], Tuple[Any, ...]]] = {}
    definitions = [obj for cobj in db.complex_objects for obj in cobj]
    definitions.extend(db.shared_pool.values())
    for obj in definitions:
        record = obj.to_record()
        records[obj.oid] = (obj.oid, tuple(record.ints), tuple(record.refs))

    def walk(oid, level: int, out: List) -> None:
        entry = records[oid]
        out.append(entry)
        if level + 1 < db.levels:
            for slot in (0, 1):  # the template follows left, then right
                child = entry[2][slot]
                if not child.is_null():
                    walk(child, level + 1, out)

    keys: Dict[Any, ContentKey] = {}
    for cobj in db.complex_objects:
        out: List = []
        walk(cobj.root, 0, out)
        keys[cobj.root] = tuple(out)
    return keys


def assembled_key(cobj) -> ContentKey:
    """Content key of one assembled complex object (physical placement
    is deliberately absent: migrations move bytes, never change them)."""
    return tuple((o.oid, o.ints, o.ref_oids) for o in cobj.root.walk())


def count_wrong(assembled: Iterable, expected_roots: Sequence, keys) -> int:
    """Roots of ``expected_roots`` not answered by a correct object.

    ``assembled`` must hold exactly one correct complex object per
    requested root (as a multiset); anything missing, extra, or with a
    content key differing from the definitions counts as a failure.
    """
    wanted: Dict[Any, int] = {}
    for root in expected_roots:
        wanted[root] = wanted.get(root, 0) + 1
    wrong = 0
    for cobj in assembled:
        root = cobj.root.oid
        if wanted.get(root, 0) > 0 and assembled_key(cobj) == keys[root]:
            wanted[root] -= 1
        else:
            wrong += 1
    return wrong + sum(wanted.values())


# -- shared plumbing --------------------------------------------------------


@dataclass
class Prepared:
    """What ``setup`` leaves behind: inputs, snapshot, oracle source."""

    db: Any
    snapshot: Any = None
    roots: List = field(default_factory=list)
    template: Any = None
    #: seconds inside ``layout_database`` (``cluster.layout.build_s``).
    build_s: float = 0.0
    pages_spanned: int = 0
    #: workload-specific generated inputs (schedules, request specs).
    inputs: Any = None
    #: root complex objects one pass asks for (the oracle's denominator).
    offered: int = 0
    #: lazily built by :func:`oracle_keys`; not part of set-up time.
    keys: Optional[Dict[Any, ContentKey]] = None


def oracle_keys(prepared: Prepared) -> Dict[Any, ContentKey]:
    """The definitions' content keys, built once per prepared database."""
    if prepared.keys is None:
        prepared.keys = definition_keys(prepared.db)
    return prepared.keys


@dataclass
class Stack:
    """A fresh disk/buffer/store (and whatever runs on top) for a pass."""

    disks: List
    buffers: List
    store: Any = None
    #: what ``drive`` drives: operator, pipeline, service or fabric.
    top: Any = None
    #: the generated inputs ``drive`` receives.
    inputs: Any = None
    #: the core engine under a driver, and its event engine (piped_4dev).
    operator: Any = None
    engine: Any = None
    #: every AssemblyService of the stack (service / fabric workloads).
    services: List = field(default_factory=list)


@dataclass
class Outcome:
    """What one ``drive`` call produced."""

    #: root complex objects brought to a terminal state.
    objects: int
    #: assembled complex objects (or plan rows) handed to the oracle.
    rows: Any = None
    sim_elapsed_ms: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)


def lay_out(db, disk, policy, seed: int) -> Prepared:
    """Lay ``db`` out on ``disk`` under ``policy`` and snapshot it.

    The load phase writes straight to the disk, so the buffer's size
    only matters to the passes (:func:`restore` sets it).
    """
    store = ObjectStore(disk, BufferManager(disk))
    started = time.perf_counter()
    layout = layout_database(
        db.complex_objects,
        store,
        policy,
        shared=db.shared_pool,
        seed=seed,
        validate=False,  # generate_acob validated the database already
    )
    build_s = time.perf_counter() - started
    return Prepared(
        db=db,
        snapshot=snapshot_layout(layout),
        roots=list(layout.root_order),
        offered=len(layout.root_order),
        build_s=build_s,
        pages_spanned=layout.pages_spanned(),
    )


def restore(prepared: Prepared, disk, buffer_capacity=None) -> Stack:
    """A fresh buffer and store over ``disk``, restored from the snapshot."""
    buffer = BufferManager(disk, capacity=buffer_capacity)
    store = ObjectStore(disk, buffer)
    restore_layout(prepared.snapshot, store)
    return Stack(disks=[disk], buffers=[buffer], store=store)


def disk_counters(disks: Sequence) -> Dict[str, float]:
    """``storage.disk.*`` summed over every disk of the workload."""
    stats = [disk.stats for disk in disks]
    return {
        "storage.disk.reads": sum(s.reads for s in stats),
        "storage.disk.pages_read": sum(s.pages_read for s in stats),
        "storage.disk.run_reads": sum(s.run_reads for s in stats),
        "storage.disk.seek_total": sum(s.read_seek_total for s in stats),
        "storage.disk.writes": sum(s.writes for s in stats),
    }


def buffer_counters(buffers: Sequence) -> Dict[str, float]:
    """``storage.buffer.*`` summed over every buffer pool."""
    stats = [buffer.stats for buffer in buffers]
    fixes = sum(s.fixes for s in stats)
    hits = sum(s.hits for s in stats)
    return {
        "storage.buffer.fixes": fixes,
        "storage.buffer.hits": hits,
        "storage.buffer.faults": sum(s.faults for s in stats),
        "storage.buffer.evictions": sum(s.evictions for s in stats),
        "storage.buffer.re_reads": sum(s.re_reads for s in stats),
        "storage.buffer.hit_rate": hits / fixes if fixes else 0.0,
    }


def engine_counters(stats, objects: int) -> Dict[str, float]:
    """``core.assembly.*`` from one operator's :class:`AssemblyStats`."""
    return {
        "core.assembly.fetches": stats.fetches,
        "core.assembly.refs_resolved": stats.refs_resolved,
        "core.assembly.shared_links": stats.shared_links,
        "core.assembly.emitted": stats.emitted,
        "core.assembly.aborted": stats.aborted,
        "core.assembly.peak_pinned_pages": stats.peak_pinned_pages,
        "core.assembly.prefetch_batches": stats.prefetch_batches,
        "core.assembly.prefetch_pages": stats.prefetch_pages,
        "core.assembly.fetches_per_object": stats.fetches / objects,
    }


def service_counters(services: Sequence, objects: int) -> Dict[str, float]:
    """``service.*`` and the engine counts a service exposes.

    Every request runs its own engine; :class:`ServiceMetrics` keeps
    their emitted/aborted totals and the per-request fetch and
    shared-link counts, which is all of ``core.assembly.*`` a service
    makes public (the other engine counters read 0 here).
    """
    total = ServiceMetrics.merged(service.metrics for service in services)
    requests = list(total.per_request.values())
    caches = [s.cache.stats for s in services if s.cache is not None]
    hits = sum(c.hits for c in caches)
    lookups = hits + sum(c.misses for c in caches)
    fetches = sum(r.fetches for r in requests)
    return {
        "core.assembly.fetches": fetches,
        "core.assembly.shared_links": sum(r.shared_links for r in requests),
        "core.assembly.emitted": total.objects_emitted,
        "core.assembly.aborted": total.objects_aborted,
        "core.assembly.fetches_per_object": fetches / objects,
        "service.server.requests_completed": total.requests_completed,
        "service.server.queued": total.requests_queued,
        "service.server.shrunk": total.requests_shrunk,
        "service.server.rejected": total.requests_rejected,
        "service.server.latency_ticks_p50": total.percentile_latency(0.50) or 0,
        "service.server.latency_ticks_p95": total.percentile_latency(0.95) or 0,
        "service.server.queue_wait_ticks": total.queue_wait_ticks,
        "service.cache.hits": hits,
        "service.cache.misses": lookups - hits,
        "service.cache.evictions": sum(c.evictions for c in caches),
        "service.cache.invalidations": sum(c.invalidations for c in caches),
        "service.cache.hit_rate": hits / lookups if lookups else 0.0,
        "cluster.reorg.rounds": total.reorg_rounds,
        "cluster.reorg.migrations": total.reorg_migrations,
        "cluster.reorg.pages_written": total.reorg_pages_written,
        "cluster.reorg.cache_invalidations": total.reorg_cache_invalidations,
        "cluster.reorg.io_ms": total.reorg_io_ms,
    }


class Workload:
    """Base: the protocol steps of one workload."""

    #: the name BENCHMARK.json lists the workload (and its reason) under.
    name = ""
    #: how the load is offered, printed with the results.
    loop = "one synchronous run over the whole root set"

    def setup(self, seed: int) -> Prepared:
        """Generate from ``seed``, lay out, snapshot (timed as setup)."""
        raise NotImplementedError

    def fresh(self, prepared: Prepared) -> Stack:
        """Restore a fresh stack from the snapshot (never timed)."""
        raise NotImplementedError

    def drive(self, stack: Stack) -> Outcome:
        """The timed call."""
        raise NotImplementedError

    def check(self, prepared: Prepared, outcome: Outcome) -> int:
        """Operations whose output failed the oracle."""
        return count_wrong(outcome.rows, prepared.roots, oracle_keys(prepared))

    def counters(self, stack: Stack, outcome: Outcome) -> Dict[str, float]:
        """Exact counts from the program's public stats objects."""
        counts = disk_counters(stack.disks)
        counts.update(buffer_counters(stack.buffers))
        return counts


# -- 1 / 2: the paper's hot loop, inside and far outside the buffer ---------


class AsmClustered(Workload):
    """Synchronous elevator assembly with the database inside the buffer."""

    name = "asm_clustered"
    n_objects = 4000
    window = 50
    buffer_capacity: Optional[int] = None

    def policy(self, db):
        """Inter-object clustering in the depth-first cluster order."""
        return InterObjectClustering(
            cluster_pages=512, disk_order=db.type_ids_depth_first()
        )

    def setup(self, seed: int) -> Prepared:
        db = generate_acob(self.n_objects, seed=seed)
        prepared = lay_out(db, CostedDisk(), self.policy(db), seed)
        prepared.template = make_template(db)
        return prepared

    def fresh(self, prepared: Prepared) -> Stack:
        stack = restore(prepared, CostedDisk(), self.buffer_capacity)
        stack.top = Assembly(
            ListSource(prepared.roots),
            stack.store,
            prepared.template,
            window_size=self.window,
            scheduler="elevator",
            batch_pages=1,
        )
        return stack

    def drive(self, stack: Stack) -> Outcome:
        rows = stack.top.execute()
        return Outcome(
            objects=stack.top.stats.emitted + stack.top.stats.aborted,
            rows=rows,
            sim_elapsed_ms=stack.disks[0].service_time_total,
            extra={"rows_out": len(rows)},
        )

    def counters(self, stack: Stack, outcome: Outcome) -> Dict[str, float]:
        counts = super().counters(stack, outcome)
        counts.update(engine_counters(stack.top.stats, outcome.objects))
        counts["volcano.rows_out"] = outcome.extra["rows_out"]
        return counts


class AsmScattered(AsmClustered):
    """The same database unclustered, ten times the size of the buffer."""

    name = "asm_scattered"
    #: the pin bound of a 50-object window is 6*49+7 = 301 frames.
    buffer_capacity = 320

    def policy(self, db):
        """Random placement over one extent."""
        return Unclustered()


# -- 3: the event-driven pipelined driver -----------------------------------


class Piped4Dev(Workload):
    """Pipelined assembly over four declustered devices."""

    name = "piped_4dev"
    loop = "one pipelined run, issue depth 2 per device, 4 devices"
    n_objects = 2000
    n_devices = 4
    cluster_pages = 256
    window = 100

    def disk(self) -> MultiDeviceDisk:
        """Four devices, each big enough for its share of the clusters."""
        return MultiDeviceDisk(
            n_devices=self.n_devices,
            pages_per_device=(7 * self.cluster_pages) // self.n_devices
            + self.cluster_pages
            + 88,
        )

    def setup(self, seed: int) -> Prepared:
        db = generate_acob(self.n_objects, seed=seed)
        policy = InterObjectClustering(
            cluster_pages=self.cluster_pages,
            disk_order=db.type_ids_depth_first(),
        )
        prepared = lay_out(db, self.disk(), policy, seed)
        prepared.template = make_template(db)
        return prepared

    def fresh(self, prepared: Prepared) -> Stack:
        disk = self.disk()
        stack = restore(prepared, disk)
        stack.operator = Assembly(
            ListSource(prepared.roots),
            stack.store,
            prepared.template,
            window_size=self.window,
            scheduler=MultiDeviceScheduler(disk),
        )
        stack.engine = AsyncIOEngine(disk, CostModel())
        stack.top = PipelinedAssembly(
            stack.operator, stack.engine, issue_depth=2, batch_pages=4
        )
        return stack

    def drive(self, stack: Stack) -> Outcome:
        rows = stack.top.run()
        stats = stack.operator.stats
        return Outcome(
            objects=stats.emitted + stats.aborted,
            rows=rows,
            sim_elapsed_ms=stack.engine.elapsed,
        )

    def counters(self, stack: Stack, outcome: Outcome) -> Dict[str, float]:
        counts = super().counters(stack, outcome)
        counts.update(engine_counters(stack.operator.stats, outcome.objects))
        pipeline = stack.top.stats
        utilizations = stack.engine.utilizations()
        counts.update(
            {
                "storage.events.issues": stack.engine.issues,
                "storage.events.zero_read_issues": stack.engine.zero_read_issues,
                "storage.events.util_min": min(utilizations),
                "storage.events.util_max": max(utilizations),
                "core.multidevice.issued": pipeline.issued,
                "core.multidevice.physical_issues": pipeline.physical_issues,
                "core.multidevice.zero_read_issues": pipeline.zero_read_issues,
                "core.multidevice.sync_fallbacks": pipeline.sync_fallbacks,
                "core.multidevice.max_in_flight": pipeline.max_in_flight,
            }
        )
        return counts


# -- 4: a Volcano plan with a pushed-down component predicate ---------------


class PlanPushdown(Workload):
    """Aggregate over a join over selective, batched, shared assembly."""

    name = "plan_pushdown"
    loop = "one plan execution (open / next* / close)"
    n_objects = 3000
    sharing = 0.25
    selectivity = 0.3
    n_buckets = 16
    window = 50

    def setup(self, seed: int) -> Prepared:
        db = generate_acob(self.n_objects, sharing=self.sharing, seed=seed)
        policy = InterObjectClustering(
            cluster_pages=512, disk_order=db.type_ids_depth_first()
        )
        prepared = lay_out(db, CostedDisk(), policy, seed)
        prepared.template = make_template(db, sharing=self.sharing)
        prepared.inputs = [
            (bucket, f"bucket-{bucket}") for bucket in range(self.n_buckets)
        ]
        return prepared

    def fresh(self, prepared: Prepared) -> Stack:
        stack = restore(prepared, CostedDisk())
        stack.inputs = (prepared.roots, prepared.template, prepared.inputs)
        return stack

    def drive(self, stack: Stack) -> Outcome:
        roots, template, table = stack.inputs
        n_buckets = len(table)
        assembly = AssemblyOperator(
            ListSource(roots),
            stack.store,
            template,
            window_size=self.window,
            batch_pages=4,
        )
        plan = HashAggregate(
            HashJoin(
                ListSource(table),
                ComponentFilter(
                    assembly, "n1", payload_predicate(self.selectivity)
                ),
                build_key=lambda row: row[0],
                probe_key=lambda cobj: cobj.root.ints[ID_SLOT] % n_buckets,
                combine=lambda cobj, row: (row[1], cobj),
            ),
            group_key=lambda joined: joined[0],
            init=lambda: (0, 0),
            # The fold walks every swizzled component, so a wrong pointer
            # or payload anywhere in a survivor changes its group's row.
            step=lambda acc, joined: (
                acc[0] + 1,
                acc[1]
                + sum(o.ints[PAYLOAD_SLOT] for o in joined[1].root.walk()),
            ),
        )
        started = time.perf_counter()
        plan, decisions = push_down_component_filters(plan)
        rewrite_s = time.perf_counter() - started
        rows = plan.execute()
        stats = assembly.stats
        return Outcome(
            objects=stats.emitted + stats.aborted,
            rows=rows,
            sim_elapsed_ms=stack.disks[0].service_time_total,
            extra={
                "rewrite_s": rewrite_s,
                "pushed": len(decisions),
                "rows_out": len(rows),
                "stats": stats,
            },
        )

    def check(self, prepared: Prepared, outcome: Outcome) -> int:
        """``(count, payload sum)`` per bucket of the objects whose n1
        component passes the predicate, from the definitions alone."""
        bound = int(self.selectivity * PAYLOAD_RANGE)
        expected: Dict[str, Tuple[int, int]] = {}
        keys = oracle_keys(prepared)
        for index, cobj in enumerate(prepared.db.complex_objects):
            components = keys[cobj.root]
            # pre-order: the root, then its left child (template node n1).
            if components[1][1][PAYLOAD_SLOT] >= bound:
                continue
            label = f"bucket-{index % self.n_buckets}"
            count, total = expected.get(label, (0, 0))
            expected[label] = (
                count + 1,
                total + sum(entry[1][PAYLOAD_SLOT] for entry in components),
            )
        if outcome.extra["pushed"] != 1 or outcome.objects != prepared.offered:
            return prepared.offered
        got = dict(outcome.rows)
        # A wrong row fails every object that was, or should have been,
        # folded into it.
        return sum(
            max(expected.get(label, (0, 0))[0], got.get(label, (0, 0))[0])
            for label in set(expected) | set(got)
            if expected.get(label) != got.get(label)
        )

    def counters(self, stack: Stack, outcome: Outcome) -> Dict[str, float]:
        counts = super().counters(stack, outcome)
        counts.update(engine_counters(outcome.extra["stats"], outcome.objects))
        counts["volcano.rows_out"] = outcome.extra["rows_out"]
        return counts


# -- 5: a long-lived service under closed-loop load -------------------------


class RequestWorkload(Workload):
    """Workloads that offer requests to one or more services."""

    def check(self, prepared: Prepared, outcome: Outcome) -> int:
        """``outcome.rows`` pairs the roots a request asked for with the
        objects it got; requests that were shed, rejected or never
        completed fail every root they asked for."""
        keys = oracle_keys(prepared)
        wrong = sum(
            count_wrong(got, roots, keys) for roots, got in outcome.rows
        )
        return wrong + prepared.offered - outcome.objects

    def counters(self, stack: Stack, outcome: Outcome) -> Dict[str, float]:
        counts = super().counters(stack, outcome)
        counts.update(service_counters(stack.services, outcome.objects))
        return counts


class ServiceClosed(RequestWorkload):
    """Eight closed-loop clients against one long-lived service."""

    name = "service_closed"
    loop = "closed loop, 8 clients, one request in flight each"
    n_objects = 1000
    n_clients = 8
    requests_per_client = 100
    roots_per_request = 5
    hot_roots = 100
    hot_fraction = 0.3
    window = 8

    def setup(self, seed: int) -> Prepared:
        db = generate_acob(self.n_objects, seed=seed)
        policy = InterObjectClustering(
            cluster_pages=512, disk_order=db.type_ids_depth_first()
        )
        prepared = lay_out(db, CostedDisk(), policy, seed)
        prepared.template = make_template(db)
        prepared.inputs = self.schedule(prepared.roots, seed)
        prepared.offered = (
            self.n_clients * self.requests_per_client * self.roots_per_request
        )
        return prepared

    def schedule(self, roots: Sequence, seed: int) -> List[List[List]]:
        """``schedule[client][request]``: distinct roots, 30 % of them
        from a fixed hot set so the result cache sees repeats."""
        rng = random.Random(seed)
        hot = rng.sample(list(roots), self.hot_roots)
        schedule: List[List[List]] = []
        for _client in range(self.n_clients):
            requests: List[List] = []
            for _request in range(self.requests_per_client):
                picked: List = []
                while len(picked) < self.roots_per_request:
                    pool = hot if rng.random() < self.hot_fraction else roots
                    root = rng.choice(pool)
                    if root not in picked:
                        picked.append(root)
                requests.append(picked)
            schedule.append(requests)
        return schedule

    def fresh(self, prepared: Prepared) -> Stack:
        stack = restore(prepared, CostedDisk())
        stack.top = AssemblyService(stack.store, cache_capacity=256)
        stack.services = [stack.top]
        stack.inputs = (prepared.template, prepared.inputs)
        return stack

    def drive(self, stack: Stack) -> Outcome:
        service = stack.top
        template, schedule = stack.inputs
        cursors = [0] * len(schedule)
        in_flight: Dict[int, Tuple[int, List]] = {}  # client -> (id, roots)
        answers: List[Tuple[List, List]] = []  # (roots asked, objects got)

        def submit_next(client: int) -> None:
            while cursors[client] < len(schedule[client]):
                roots = schedule[client][cursors[client]]
                cursors[client] += 1
                request_id = service.submit(
                    roots, template, window_size=self.window
                )
                if service.poll(request_id) is not RequestStatus.DONE:
                    in_flight[client] = (request_id, roots)
                    return
                # Served whole from the result cache: next one right away.
                answers.append((roots, service.result(request_id)))
            in_flight.pop(client, None)

        for client in range(len(schedule)):
            submit_next(client)
        # An idle service with requests in flight would never finish
        # them; stop and let the oracle count them as failed.
        while in_flight and service.step():
            for client, (request_id, roots) in list(in_flight.items()):
                if service.poll(request_id) is RequestStatus.DONE:
                    answers.append((roots, service.result(request_id)))
                    submit_next(client)
        return Outcome(
            objects=sum(len(roots) for roots, _got in answers),
            rows=answers,
            sim_elapsed_ms=stack.disks[0].service_time_total,
        )


# -- 6: the sharded fabric under open-loop arrivals -------------------------


class FabricOpen(RequestWorkload):
    """Poisson arrivals into 2 shards x 2 replicas with hedging."""

    name = "fabric_open"
    loop = (
        "open loop, Poisson arrivals at 12 req/s on the simulated clock "
        "(arrivals are simulated timestamps, so generator lateness is 0 "
        "by construction)"
    )
    n_objects = 400
    #: 10 samples beyond the p99.  Twice as many made a 4 s pass: three
    #: passes per run, too few for a steady median on a shared box.
    n_requests = 1000
    rate_per_s = 12.0

    def build(self, db, seed: int):
        """A fresh fabric; every build of one seed is bit-identical."""
        return build_sharded_fabric(
            db,
            n_shards=2,
            replicas_per_shard=2,
            cluster_pages=64,
            buffer_capacity=64,
            cache_capacity=0,
            # A deep wait queue: load this light must queue, never be
            # rejected, so any shed request is a failure of the run.
            max_waiting=10_000,
            layout_seed=seed,
            hedging=HedgePolicy(),
        )

    def setup(self, seed: int) -> Prepared:
        db = generate_acob(self.n_objects, seed=seed)
        started = time.perf_counter()
        fabric = self.build(db, seed)
        build_s = time.perf_counter() - started
        specs = open_loop_workload(
            fabric,
            PoissonArrivals(self.rate_per_s, seed=seed),
            self.n_requests,
            roots_per_request=(1, 4),
            seed=seed,
        )
        return Prepared(
            db=db,
            build_s=build_s,
            pages_spanned=sum(
                replica.store.disk.allocated_pages
                for shard in fabric.shards
                for replica in shard.replicas
            ),
            inputs=(specs, seed),
            offered=sum(len(spec.roots) for spec in specs),
        )

    def fresh(self, prepared: Prepared) -> Stack:
        # The fabric builder lays each replica out itself, so a fresh
        # stack is a rebuild (bit-identical per seed), not a restore.
        specs, seed = prepared.inputs
        fabric = self.build(prepared.db, seed)
        replicas = [r for shard in fabric.shards for r in shard.replicas]
        return Stack(
            disks=[replica.store.disk for replica in replicas],
            buffers=[replica.store.buffer for replica in replicas],
            top=fabric,
            inputs=specs,
            services=[replica.service for replica in replicas],
        )

    def drive(self, stack: Stack) -> Outcome:
        report = stack.top.run(stack.inputs)
        served = report.served
        return Outcome(
            objects=sum(len(request.spec.roots) for request in served),
            rows=[(request.spec.roots, request.results) for request in served],
            sim_elapsed_ms=report.elapsed_ms,
            extra={
                "report": report,
                "latency_p50_ms": report.percentile_latency_ms(0.50),
                "latency_p99_ms": report.percentile_latency_ms(0.99),
            },
        )

    def counters(self, stack: Stack, outcome: Outcome) -> Dict[str, float]:
        counts = super().counters(stack, outcome)
        report = outcome.extra["report"]
        counts.update(
            {
                "fabric.served": len(report.served),
                "fabric.shed": len(report.shed),
                "fabric.hedge_fired": report.fleet.hedge_fired,
                "fabric.hedge_won": report.fleet.hedge_won,
                "fabric.sim_latency_p50_ms": outcome.extra["latency_p50_ms"],
                "fabric.sim_latency_p99_ms": outcome.extra["latency_p99_ms"],
                # No growing backlog: the fabric drains soon after the
                # last arrival (compare with the p99 latency).
                "fabric.sim_drain_ms": report.elapsed_ms
                - stack.inputs[-1].arrival_ms,
            }
        )
        return counts


# -- 7: serving reads interleaved with reorganisation writes ----------------


class ReorgShift(RequestWorkload):
    """Recurring queries over a hot set that shifts; online migration."""

    name = "reorg_shift"
    loop = "one client, one request at a time, service drained after each"
    n_objects = 400
    phases = 8
    shift_phase = 4
    queries_per_phase = 48
    #: 16 recurring queries per half: the active set (160 roots) is 2.5x
    #: the result cache, so serving keeps reading while rounds migrate.
    n_groups = 16
    group_size = 10
    window = 2
    buffer_capacity = 16

    def setup(self, seed: int) -> Prepared:
        db = generate_acob(self.n_objects, seed=seed)
        prepared = lay_out(db, CostedDisk(), IntraObjectClustering(), seed)
        prepared.template = make_template(db)
        prepared.inputs = self.schedule(prepared.roots, seed)
        prepared.offered = sum(len(query) for query in prepared.inputs)
        return prepared

    def schedule(self, roots: Sequence, seed: int) -> List[List]:
        """Recurring 10-root queries, Zipf(1.2) over the active half of
        the query set; the active half switches at ``shift_phase``.

        The schedule's *shape* is fixed: each phase asks for the rank-r
        query its Zipf share of the phase (largest remainders first),
        occurrences spread evenly over the phase.  The seed decides the
        database and which roots make up which query.  Drawing the
        frequencies and the order as well made the reads and migrations
        of a pass differ by ~10 % from seed to seed, which would hide a
        regression of that size behind the choice of seed.
        """
        rng = random.Random(seed)
        scattered = list(roots)
        rng.shuffle(scattered)
        groups = [
            scattered[i * self.group_size : (i + 1) * self.group_size]
            for i in range(2 * self.n_groups)
        ]
        weights = [1.0 / (rank + 1) ** 1.2 for rank in range(self.n_groups)]
        shares = [
            self.queries_per_phase * weight / sum(weights) for weight in weights
        ]
        times = [int(share) for share in shares]
        by_remainder = sorted(
            range(self.n_groups), key=lambda rank: times[rank] - shares[rank]
        )
        for rank in by_remainder[: self.queries_per_phase - sum(times)]:
            times[rank] += 1
        queries: List[List] = []
        for phase in range(self.phases):
            offset = 0 if phase < self.shift_phase else self.n_groups
            # Occurrences of one query spread evenly over the phase.
            slots = sorted(
                ((k + 0.5) / times[rank], rank)
                for rank in range(self.n_groups)
                for k in range(times[rank])
            )
            queries.extend(list(groups[offset + rank]) for _at, rank in slots)
        return queries

    def fresh(self, prepared: Prepared) -> Stack:
        stack = restore(prepared, CostedDisk(), self.buffer_capacity)
        stack.top = AssemblyService(
            stack.store,
            cache_capacity=64,
            reorg_policy=ReorgPolicy(
                decay=0.5,
                min_weight=1.0,
                min_observations=64,
                max_migrations_per_round=128,
                affinity_window=80,
            ),
        )
        stack.services = [stack.top]
        stack.inputs = (prepared.template, prepared.inputs)
        return stack

    def drive(self, stack: Stack) -> Outcome:
        service = stack.top
        template, queries = stack.inputs
        answers: List[Tuple[List, List]] = []
        for roots in queries:
            request_id = service.submit(
                roots, template, window_size=self.window
            )
            answers.append((roots, service.result(request_id)))
            service.run()  # drained: the reorganizer's idle window
        return Outcome(
            objects=sum(len(roots) for roots, _got in answers),
            rows=answers,
            # CostedDisk prices every read, serving and migration alike.
            sim_elapsed_ms=stack.disks[0].service_time_total,
        )


#: Every workload, in run order.
WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        AsmClustered,
        AsmScattered,
        Piped4Dev,
        PlanPushdown,
        ServiceClosed,
        FabricOpen,
        ReorgShift,
    )
}

#: ``--scale smoke``: the same seven shapes at sizes the self-test can
#: run in seconds.  Never used for a reported number.
SMOKE: Dict[str, Dict[str, int]] = {
    "asm_clustered": {"n_objects": 300, "window": 8},
    "asm_scattered": {"n_objects": 300, "window": 8, "buffer_capacity": 64},
    "piped_4dev": {"n_objects": 200, "window": 16},
    "plan_pushdown": {"n_objects": 300, "window": 8},
    "service_closed": {
        "n_objects": 200, "requests_per_client": 8, "hot_roots": 20,
    },
    "fabric_open": {"n_objects": 80, "n_requests": 80},
    "reorg_shift": {"queries_per_phase": 6},
}


def make_workload(name: str, scale: str = "full") -> Workload:
    """The named workload at ``scale`` (``"full"`` or ``"smoke"``)."""
    workload = WORKLOADS[name]()
    if scale == "smoke":
        for attribute, value in SMOKE[name].items():
            setattr(workload, attribute, value)
    return workload
