"""Fabric figures F-1..F-3: open-loop load, hedging, load shedding.

The S-figures drive one device server closed-loop; the F-family drives
the sharded fabric (:mod:`repro.fabric`) open-loop, which is where the
classic service curves live:

* **F-1** — served p99 latency vs offered load, one series per shard
  count.  Offered load is expressed as a multiple ``rho`` of a single
  shard's measured service capacity, so the knee of the 1-shard curve
  sits near ``rho = 1`` by construction; with K shards the same
  aggregate arrival rate spreads over K independent servers and the
  knee moves right.  The checks pin exactly that: the knee shifts
  right as the fleet grows 1 -> 2 -> 4, and the tail at the highest
  offered load falls with shard count.
* **F-2** — the hedging tail win on a heterogeneous shard (one replica
  6x slower, round-robin placement so half the primaries land on it):
  latency percentiles with and without a :class:`HedgePolicy`.  The
  p99 must drop; the median must not blow up (hedges fire only for
  conspicuously late requests).
* **F-3** — shed fraction vs offered load under a declared latency
  SLO: near zero while the shard keeps up, climbing under overload —
  and at the top load, the *served* p99 with shedding stays below the
  no-shedding p99 (the point of turning work away at the door).

Every run is seeded and on the simulated clock, so all three figures
are deterministic and sit in the CI regression baseline next to the
other families.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.bench.report import FigureResult
from repro.fabric import (
    HedgePolicy,
    PoissonArrivals,
    ServiceFabric,
    SheddingPolicy,
    build_sharded_fabric,
    open_loop_workload,
)
from repro.workloads.acob import generate_acob

#: Shard counts swept by F-1.
SHARD_COUNTS = (1, 2, 4)
#: Offered load as multiples of one shard's service capacity.
LOAD_MULTIPLES = (0.35, 0.7, 1.05, 1.4, 2.1, 2.8, 4.2, 5.6)
#: F-3's load grid (same units).
SHED_LOADS = (0.5, 1.0, 2.0, 3.0)
#: p99 blowup factor over the lightest-load p99 that marks the knee.
KNEE_FACTOR = 5.0


def _build(db, **kwargs) -> ServiceFabric:
    """One fabric, benchmark configuration: bounded buffers so each
    shard's admission serializes its backlog (queueing is the signal),
    a deep wait queue so nothing is rejected unless F-3 asks for it,
    and no result cache (the workload wraps the root population, and
    zero-latency cache hits would flatter every curve)."""
    kwargs.setdefault("buffer_capacity", 64)
    kwargs.setdefault("max_waiting", 10_000)
    kwargs.setdefault("cache_capacity", 0)
    kwargs.setdefault("cluster_pages", 64)
    return build_sharded_fabric(db, **kwargs)


def _calibrate_service_ms(db, requests: int) -> float:
    """Mean per-request service time of one shard draining a backlog."""
    fabric = _build(db, n_shards=1)
    specs = open_loop_workload(fabric, [0.0] * requests, seed=11)
    report = fabric.run(specs)
    return report.elapsed_ms / len(report.served)


def _offered_rate(rho: float, service_ms: float) -> float:
    """Aggregate arrival rate (req/s) at ``rho`` times one shard's
    capacity."""
    return rho * 1000.0 / service_ms


def _knee(rhos: Sequence[float], p99s: Sequence[float]) -> float:
    """First load multiple whose p99 blows past KNEE_FACTOR times the
    lightest-load p99 (inf when the curve never leaves the floor)."""
    floor = p99s[0]
    for rho, p99 in zip(rhos, p99s):
        if p99 > KNEE_FACTOR * floor:
            return rho
    return math.inf


def figure_f1(
    db_size: int = 64,
    requests_per_point: int = 40,
    calibration_requests: int = 20,
) -> FigureResult:
    """F-1: latency vs offered load, knee per shard count."""
    db = generate_acob(db_size, seed=2)
    service_ms = _calibrate_service_ms(db, calibration_requests)
    figure = FigureResult(
        figure_id="Fabric F-1",
        title="open-loop p99 latency vs offered load, by shard count",
        x_label="offered load (multiples of one shard's capacity)",
        y_label="served p99 latency (ms)",
    )
    figure.notes.append(
        f"calibrated service time: {service_ms:.1f} ms/request"
    )
    knees = {}
    for n_shards in SHARD_COUNTS:
        for rho in LOAD_MULTIPLES:
            fabric = _build(db, n_shards=n_shards)
            specs = open_loop_workload(
                fabric,
                PoissonArrivals(_offered_rate(rho, service_ms), seed=17),
                requests_per_point,
                seed=17,
            )
            report = fabric.run(specs)
            figure.add_point(
                f"{n_shards} shard(s)",
                rho,
                report.percentile_latency_ms(0.99),
            )
        knees[n_shards] = _knee(
            LOAD_MULTIPLES, figure.ys(f"{n_shards} shard(s)")
        )
        figure.notes.append(
            f"{n_shards} shard(s): knee at rho={knees[n_shards]}"
        )
    figure.check(
        "knee shifts right from 1 to 2 shards",
        knees[1] < knees[2],
    )
    figure.check(
        "and keeps moving (or vanishes) at 4 shards",
        knees[2] <= knees[4],
    )
    top = [
        figure.ys(f"{k} shard(s)")[-1] for k in SHARD_COUNTS
    ]
    figure.check(
        "tail at the top load falls with shard count",
        top[0] > top[1] > top[2],
    )
    return figure


def figure_f2(
    db_size: int = 64,
    requests_per_point: int = 40,
    calibration_requests: int = 20,
) -> FigureResult:
    """F-2: the hedging tail win on a heterogeneous shard."""
    db = generate_acob(db_size, seed=2)
    service_ms = _calibrate_service_ms(db, calibration_requests)

    def run(hedging: Optional[HedgePolicy]):
        fabric = _build(
            db,
            n_shards=1,
            replicas_per_shard=2,
            placement="round-robin",
            speed_factors={(0, 0): 6.0},
            hedging=hedging,
        )
        specs = open_loop_workload(
            fabric,
            PoissonArrivals(
                0.3 * _offered_rate(1.0, service_ms), seed=5
            ),
            requests_per_point,
            seed=5,
        )
        return fabric.run(specs)

    hedged = run(HedgePolicy(multiplier=1.0))
    plain = run(None)
    figure = FigureResult(
        figure_id="Fabric F-2",
        title="hedged vs unhedged latency percentiles, slow replica 6x",
        x_label="percentile",
        y_label="served latency (ms)",
    )
    for fraction in (0.50, 0.90, 0.99):
        figure.add_point(
            "hedged", fraction * 100,
            hedged.percentile_latency_ms(fraction),
        )
        figure.add_point(
            "unhedged", fraction * 100,
            plain.percentile_latency_ms(fraction),
        )
    figure.notes.append(
        f"hedges fired: {hedged.fleet.hedge_fired}, "
        f"won: {hedged.fleet.hedge_won}, "
        f"losers cancelled: {hedged.replicas.requests_cancelled}"
    )
    figure.check(
        "hedging serves every request the plain run serves",
        len(hedged.served) == len(plain.served),
    )
    figure.check("hedges actually fired", hedged.fleet.hedge_fired > 0)
    figure.check("some hedges won", hedged.fleet.hedge_won > 0)
    figure.check(
        "hedging cuts the p99 tail",
        figure.ys("hedged")[-1] < figure.ys("unhedged")[-1],
    )
    figure.check(
        "without blowing up the median",
        figure.ys("hedged")[0] <= 2.0 * figure.ys("unhedged")[0],
    )
    return figure


def figure_f3(
    db_size: int = 64,
    requests_per_point: int = 60,
    calibration_requests: int = 20,
) -> FigureResult:
    """F-3: shed rate under overload, and what shedding buys the tail."""
    db = generate_acob(db_size, seed=2)
    service_ms = _calibrate_service_ms(db, calibration_requests)
    slo = SheddingPolicy(
        target_ms=8.0 * service_ms, window=16, min_samples=8
    )

    def run(rho: float, shedding: Optional[SheddingPolicy]):
        fabric = _build(db, n_shards=1, shedding=shedding)
        specs = open_loop_workload(
            fabric,
            PoissonArrivals(_offered_rate(rho, service_ms), seed=7),
            requests_per_point,
            seed=7,
        )
        return fabric.run(specs)

    figure = FigureResult(
        figure_id="Fabric F-3",
        title=f"shed fraction vs offered load (SLO: p99 <= "
        f"{slo.target_ms:.0f} ms)",
        x_label="offered load (multiples of one shard's capacity)",
        y_label="fraction of requests shed",
    )
    fractions = []
    for rho in SHED_LOADS:
        report = run(rho, slo)
        fractions.append(report.shed_fraction)
        figure.add_point("shed fraction", rho, report.shed_fraction)
    figure.check("no shedding while the shard keeps up", fractions[0] < 0.05)
    figure.check(
        "heavy overload sheds a substantial fraction", fractions[-1] > 0.2
    )
    figure.check(
        "shed fraction grows from light to heavy load",
        fractions[-1] > fractions[0],
    )
    top = SHED_LOADS[-1]
    shed_run = run(top, slo)
    plain_run = run(top, None)
    figure.notes.append(
        f"top load served p99: {shed_run.percentile_latency_ms(0.99):.0f} ms "
        f"with shedding vs {plain_run.percentile_latency_ms(0.99):.0f} ms "
        f"without"
    )
    figure.check(
        "shedding bounds the served tail at the top load",
        shed_run.percentile_latency_ms(0.99)
        < plain_run.percentile_latency_ms(0.99),
    )
    return figure


def figure_fabric(
    db_size: int = 64,
    requests_per_point: int = 40,
    calibration_requests: int = 20,
) -> List[FigureResult]:
    """Figures F-1..F-3: sharded fabric under load, hedging and shedding."""
    return [
        figure_f1(db_size, requests_per_point, calibration_requests),
        figure_f2(db_size, requests_per_point, calibration_requests),
        figure_f3(
            db_size,
            max(requests_per_point, 60),
            calibration_requests,
        ),
    ]
