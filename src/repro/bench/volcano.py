"""Volcano-composition figures V-1..V-3: assembly inside the algebra.

The assembly operator is only worth putting *into* the Volcano algebra
if composition is free, pushdown pays, and exchange-style parallelism
scales — the three claims this family measures:

* **V-1** — composition overhead: the same assembly run priced on a
  :class:`~repro.storage.costmodel.CostedDisk`, once as the bare
  driver and once wrapped in a pass-all ``Filter`` plus a ``Project``
  inside a plan.  The operators above assembly touch no pages, so the
  check demands the plan's service time stays within 1% of the bare
  run (it is exactly equal — same engine, same code path).
* **V-2** — predicate pushdown: a ``ComponentFilter`` evaluated above
  the operator versus the same plan after
  :func:`~repro.volcano.plan.push_down_component_filters` folds the
  predicate into the assembly template.  Pushing enables selective
  assembly — failing objects stop fetching the rest of their
  components — so service time must drop at low selectivity while the
  surviving row count stays identical.
* **V-3** — parallel exchange: window partitions fanned across fabric
  shards (:func:`~repro.fabric.parallel.build_shard_partitions`) under
  :class:`~repro.volcano.assembly.ParallelAssembly`, elapsed time
  priced per shard on the event clock.  The checks demand >1.8x
  speedup at 4 partitions and re-pin the E-3 anchor at operator level:
  one partition under the pipelined driver reproduces the synchronous
  costed service time bit-for-bit.

All drivers accept size overrides so the test suite can run them at
reduced scale; defaults keep the family inside the CI bit-identity
gate's time budget.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.harness import get_database
from repro.bench.report import FigureResult
from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering
from repro.core.assembly import Assembly
from repro.fabric.parallel import build_shard_partitions, partition_fn_for
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostedDisk
from repro.storage.store import ObjectStore
from repro.volcano.assembly import ComponentFilter, ParallelAssembly
from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource
from repro.volcano.plan import push_down_component_filters
from repro.workloads.acob import make_template, payload_predicate

#: Window sizes swept by V-1.
WINDOWS = (1, 4, 16)
#: Component-predicate selectivities swept by V-2.
SELECTIVITIES = (0.1, 0.5, 1.0)
#: Partition counts swept by V-3.
PARTITION_COUNTS = (1, 2, 4)
#: V-1's bound on plan-vs-bare service time (fraction).
COMPOSITION_OVERHEAD_BOUND = 0.01


def _costed_layout(db, cluster_pages: int):
    """The ACOB database laid out on a fresh costed disk.

    Deterministic: repeated calls produce bit-identical stores, which
    is what lets V-1/V-2 compare two separately-built plans.
    """
    disk = CostedDisk(n_pages=9 * cluster_pages + 128)
    store = ObjectStore(disk, BufferManager(disk))
    layout = layout_database(
        db.complex_objects,
        store,
        InterObjectClustering(cluster_pages=cluster_pages),
        shared=db.shared_pool,
    )
    return store, layout


def figure_volcano(
    db_size: int = 300,
    cluster_pages: int = 64,
    windows: Sequence[int] = WINDOWS,
    selectivities: Sequence[float] = SELECTIVITIES,
    partition_counts: Sequence[int] = PARTITION_COUNTS,
) -> List[FigureResult]:
    """Figures V-1..V-3: the assembly operator inside the algebra."""
    db = get_database(db_size, seed=4)

    # -- V-1: composition overhead -----------------------------------------
    v1 = FigureResult(
        figure_id="Volcano V-1",
        title="service time: bare driver vs plan-wrapped operator",
        x_label="window size",
        y_label="service milliseconds (cost model)",
    )
    overhead_ok = True
    rows_ok = True
    for window in windows:
        bare_store, bare_layout = _costed_layout(db, cluster_pages)
        bare_rows = Assembly(
            ListSource(bare_layout.root_order),
            bare_store,
            make_template(db),
            window_size=window,
        ).execute()
        bare_ms = bare_store.disk.service_time_total

        plan_store, plan_layout = _costed_layout(db, cluster_pages)
        plan = Project(
            Filter(
                Assembly(
                    ListSource(plan_layout.root_order),
                    plan_store,
                    make_template(db),
                    window_size=window,
                ),
                lambda _row: True,
            ),
            lambda row: row.root_oid,
        )
        plan_rows = plan.execute()
        plan_ms = plan_store.disk.service_time_total

        v1.add_point("bare driver (ms)", window, bare_ms)
        v1.add_point("filter+project plan (ms)", window, plan_ms)
        rows_ok = rows_ok and len(bare_rows) == len(plan_rows) == db_size
        overhead_ok = overhead_ok and plan_ms <= bare_ms * (
            1.0 + COMPOSITION_OVERHEAD_BOUND
        )
    v1.check("both sides assemble the full database", rows_ok)
    v1.check(
        f"plan service time within {COMPOSITION_OVERHEAD_BOUND:.0%} of bare",
        overhead_ok,
    )

    # -- V-2: predicate pushdown -------------------------------------------
    v2 = FigureResult(
        figure_id="Volcano V-2",
        title="component filter above vs pushed into the template",
        x_label="predicate selectivity",
        y_label="service milliseconds (cost model)",
    )
    label = make_template(db).nodes()[1].label
    window = max(windows)
    pushdown_wins = True
    multisets_ok = True
    for selectivity in selectivities:
        above_store, above_layout = _costed_layout(db, cluster_pages)
        above_rows = ComponentFilter(
            Assembly(
                ListSource(above_layout.root_order),
                above_store,
                make_template(db),
                window_size=window,
            ),
            label,
            payload_predicate(selectivity),
        ).execute()
        above_ms = above_store.disk.service_time_total

        pushed_store, pushed_layout = _costed_layout(db, cluster_pages)
        pushed_plan, decisions = push_down_component_filters(
            ComponentFilter(
                Assembly(
                    ListSource(pushed_layout.root_order),
                    pushed_store,
                    make_template(db),
                    window_size=window,
                ),
                label,
                payload_predicate(selectivity),
            )
        )
        pushed_rows = pushed_plan.execute()
        pushed_ms = pushed_store.disk.service_time_total

        v2.add_point("filter above (ms)", selectivity, above_ms)
        v2.add_point("pushed into template (ms)", selectivity, pushed_ms)
        multisets_ok = multisets_ok and len(decisions) == 1 and sorted(
            row.root_oid for row in above_rows
        ) == sorted(row.root_oid for row in pushed_rows)
        if selectivity < 1.0:
            pushdown_wins = pushdown_wins and pushed_ms < above_ms
    v2.check("rewrite preserves the surviving rows", multisets_ok)
    v2.check(
        "pushdown cuts service time at selective predicates", pushdown_wins
    )

    # -- V-3: parallel exchange across fabric shards -----------------------
    v3 = FigureResult(
        figure_id="Volcano V-3",
        title="parallel assembly across fabric shards",
        x_label="partitions (shards)",
        y_label="elapsed milliseconds (event clock)",
    )

    def shard_run(n_partitions: int, driver: str):
        # Each shard holds ~1/k of the objects, so its type extents are
        # 1/k the size — otherwise every shard sweeps the full-database
        # page span and seek costs never shrink with partitioning.
        partitions, router = build_shard_partitions(
            db,
            n_partitions,
            clustering="inter-object",
            cluster_pages=max(8, cluster_pages // n_partitions),
            costed=True,
        )
        roots = [root for part in partitions for root in part.roots]
        parallel = ParallelAssembly(
            ListSource(roots),
            [part.store for part in partitions],
            make_template(db),
            partition_fn=partition_fn_for(router),
            driver=driver,
            window_size=window,
        )
        rows = parallel.execute()
        return len(rows), parallel.elapsed_ms()

    elapsed_by_partitions: List[float] = []
    emitted_ok = True
    for n_partitions in partition_counts:
        emitted, elapsed = shard_run(n_partitions, driver="sync")
        v3.add_point("max shard service (ms)", n_partitions, elapsed)
        elapsed_by_partitions.append(elapsed)
        emitted_ok = emitted_ok and emitted == db_size
    v3.check("every partitioning assembles the full database", emitted_ok)
    speedup = (
        elapsed_by_partitions[0] / elapsed_by_partitions[-1]
        if elapsed_by_partitions[-1] > 0
        else float("inf")
    )
    v3.check(
        f"{max(partition_counts)} partitions beat one by >1.8x "
        f"(measured {speedup:.2f}x)",
        speedup > 1.8,
    )
    piped_emitted, piped_elapsed = shard_run(1, driver="pipelined")
    v3.check(
        "one pipelined partition reproduces the synchronous service "
        "time bit-for-bit (E-3 anchor at operator level)",
        piped_elapsed == elapsed_by_partitions[0]
        and piped_emitted == db_size,
    )
    v3.notes.append(
        f"synchronous 1-partition {elapsed_by_partitions[0]:.3f} ms; "
        f"pipelined {piped_elapsed:.3f} ms (exact match required)"
    )
    return [v1, v2, v3]
