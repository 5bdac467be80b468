"""Traffic benchmark: QoS backpressure under a bursty three-tenant mix.

Generates seeded multi-tenant storms — an interactive tenant (priority
0, Poisson arrivals, small fixed-size kmeans requests, a deadline
budget), a bursty batch tenant (MMPP arrivals, heavy-tailed Pareto
sizes over histogram/cutcp/spmv-csr classes that all pay real
micro-profiles when cold), and a background tenant (low-rate Poisson,
lognormal sizes over cheap jds/stencil classes) — and serves each storm
twice through an overloaded single-slot fleet (4 closed-loop clients
against ``max_inflight=1``):

1. **Backpressure off** — admission control runs (priorities, fair
   share, EDF) but the defer watermark sits above any reachable
   pressure, so every cold class pays its micro-profile mid-storm and
   the interactive tenant's tail inflates behind profile slices.
2. **Backpressure on** — the zero defer watermark pins the controller
   in deferring mode (the documented "always on" arm), so cold classes
   run their pool default and the store converges after the storm, when
   a pressure-free serial drain re-serves one request per class.

The profiling regime is deliberately heavy (``safe_point_multiplier``
of 16, paper §3.4: profile slices scaled to fully utilize the device),
which is exactly when deferral matters.  For the same reason every arm
profiles the full pool (``AnalyzeSettings(dominance_margin=inf)``):
dominance pruning would make the mid-storm profiles cheaper than the
regime this storm was sized for.  The mix omits the two catalog
workloads that cannot show the effect: particle-filter (a fixed ~23M
cycle launch that dwarfs every other service time in both arms) and
sgemm (its replay case sits under the small-workload threshold, so it
never profiles and only adds identical productive weight to both arms).

Acceptance (mirrored in EXPERIMENTS.md): the interactive tenant's p99
latency with backpressure must be <= 0.7x the no-backpressure arm, it
must miss zero deadlines in the backpressure arm, and the drained store
must be *identical* to a warm oracle built by a pressure-free serial
replay — deferral may postpone selections but never change them.

Run ``python benchmarks/bench_traffic.py --quick`` for one storm (CI);
the full run aggregates five independently-seeded storms.  Writes
``BENCH_traffic.json`` plus a Chrome trace of the first storm's
backpressure arm (``TRACE_traffic.json``); exits non-zero on any
acceptance miss.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.config import AnalyzeSettings, ReproConfig  # noqa: E402
from repro.device import make_cpu  # noqa: E402
from repro.obs.export import reconcile, write_chrome_trace  # noqa: E402
from repro.serve import (  # noqa: E402
    LaunchScheduler,
    QoSConfig,
    SelectionStore,
    ServeRequest,
    TenantSpec,
)
from repro.traffic import (  # noqa: E402
    BurstyArrivals,
    FixedSizes,
    LognormalSizes,
    ParetoSizes,
    PoissonArrivals,
    TenantProfile,
    TrafficGenerator,
    TrafficReplayer,
    TrafficSchedule,
)

#: Acceptance threshold (mirrored in EXPERIMENTS.md).
MAX_P99_RATIO = 0.70

SEED = 1716
QUICK_STORMS = 1
FULL_STORMS = 5
HORIZON = 3.0

FLEET_DEVICES = 1
STREAMS_PER_DEVICE = 1
CLIENTS = 4

#: Heavy profiling regime: slices scaled 16x past first device fill.
SAFE_POINT_MULTIPLIER = 16

#: Interactive latency budget, in fleet cycles.  The backpressure arm's
#: worst observed sojourn (waiting out one cold histogram launch) is
#: ~6.8M cycles; the no-backpressure arm's tail — the same launch plus
#: its mid-storm profile slices — lands past 14M and misses.
DEADLINE_CYCLES = 1.0e7


def tenant_mix() -> Tuple[TenantProfile, ...]:
    """The three-tenant mix (see module docstring for workload choices)."""
    return (
        TenantProfile(
            "interactive",
            PoissonArrivals(rate=10.0),
            FixedSizes(256),
            workloads=("kmeans",),
            priority=0,
            deadline_cycles=DEADLINE_CYCLES,
        ),
        TenantProfile(
            "batch",
            BurstyArrivals(burst_rate=16.0, mean_burst=1.0, mean_gap=1.5),
            ParetoSizes(1.1, min_units=512, max_units=2048),
            workloads=(
                "histogram",
                "cutcp",
                "spmv-csr/random",
                "spmv-csr/diagonal",
            ),
            weights=(0.3, 0.3, 0.2, 0.2),
            priority=1,
        ),
        TenantProfile(
            "background",
            PoissonArrivals(rate=3.0),
            LognormalSizes(
                median=1024, sigma=1.0, min_units=512, max_units=2048
            ),
            workloads=("spmv-jds", "spmv-jds/schedule", "stencil"),
            priority=2,
        ),
    )


def qos_for(tenants, backpressure: bool) -> QoSConfig:
    """One arm's QoS config; only the defer watermark differs.

    A single admission slot serializes service, so a request's sojourn
    is bounded by the launch ahead of it — the arms then differ exactly
    by mid-storm profile slices.  The queue bound exceeds the client
    count, so neither arm sheds load: the comparison isolates profiling
    backpressure, not admission rejections.
    """
    return QoSConfig(
        tenants=tuple(
            TenantSpec(
                t.name,
                priority=t.priority,
                weight=t.weight,
                deadline_cycles=t.deadline_cycles,
            )
            for t in tenants
        ),
        max_queue_depth=16,
        max_inflight=1,
        defer_watermark=0.0 if backpressure else 16.0,
        resume_watermark=0.0,
    )


def serve_arm(
    schedule: TrafficSchedule,
    config: ReproConfig,
    qos: QoSConfig,
) -> Tuple[LaunchScheduler, TrafficReplayer]:
    """Replay the schedule through a fresh fleet under one QoS arm."""
    replayer = TrafficReplayer(config)
    requests = replayer.serve_requests(schedule)
    scheduler = LaunchScheduler(
        tuple(make_cpu(config) for _ in range(FLEET_DEVICES)),
        config=config,
        streams_per_device=STREAMS_PER_DEVICE,
        qos=qos,
    )
    for pool in replayer.pools(schedule).values():
        scheduler.register_pool(pool)
    scheduler.serve_all(requests, clients=CLIENTS)
    return scheduler, replayer


def drain_selections(
    schedule: TrafficSchedule,
    replayer: TrafficReplayer,
    config: ReproConfig,
    store: SelectionStore,
) -> Dict[str, str]:
    """Serially serve one request per workload class, then dump the store.

    Run against the backpressure arm's store this is the "pressure
    cleared" phase that converges deferred classes; run against a fresh
    store it builds the warm oracle the drained store must match.
    """
    scheduler = LaunchScheduler(
        (make_cpu(config),), config=config, store=store
    )
    for pool in replayer.pools(schedule).values():
        scheduler.register_pool(pool)
    for workload, units in dict.fromkeys(
        (r.workload, r.units) for r in schedule.requests
    ):
        case = replayer.case_for(workload, units)
        scheduler.launch(
            ServeRequest(
                kernel=case.pool.name,
                args=case.fresh_args(),
                workload_units=case.workload_units,
            )
        )
    return {key: store.lookup(key).selected for key in store.keys()}


def percentile(latencies: List[float], q: float) -> float:
    """Linear-interpolated percentile over raw samples."""
    if not latencies:
        return 0.0
    data = sorted(latencies)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def tenant_report(latencies, misses, deferred) -> Dict[str, float]:
    """One tenant-arm's aggregate latency and QoS figures."""
    return {
        "requests": len(latencies),
        "p50_cycles": percentile(latencies, 50.0),
        "p99_cycles": percentile(latencies, 99.0),
        "p999_cycles": percentile(latencies, 99.9),
        "max_cycles": max(latencies, default=0.0),
        "deadline_misses": misses,
        "profiles_deferred": deferred,
    }


def run_benchmark(quick: bool, trace_path: str) -> Dict[str, object]:
    """Run every storm through both arms; return the BENCH document."""
    config = ReproConfig(
        safe_point_multiplier=SAFE_POINT_MULTIPLIER,
        analyze=AnalyzeSettings(dominance_margin=float("inf")),
    )
    tenants = tenant_mix()
    storms = QUICK_STORMS if quick else FULL_STORMS

    latencies: Dict[Tuple[str, str], List[float]] = {}
    misses: Dict[Tuple[str, str], int] = {}
    deferred: Dict[Tuple[str, str], int] = {}
    storm_rows = []
    selections_match = True
    trace_defects: List[object] = []
    trace_events = 0

    for storm in range(storms):
        seed = SEED + storm
        schedule = TrafficGenerator(
            tenants, seed=seed, horizon=HORIZON
        ).generate()

        off, _ = serve_arm(
            schedule, config, qos_for(tenants, backpressure=False)
        )
        on_config = (
            replace(config, trace=True) if storm == 0 else config
        )
        on, on_replayer = serve_arm(
            schedule, on_config, qos_for(tenants, backpressure=True)
        )
        if storm == 0:
            events = on.tracer.events
            write_chrome_trace(events, trace_path)
            trace_defects = reconcile(events)
            trace_events = len(events)

        drained = drain_selections(
            schedule, on_replayer, config, on.store
        )
        oracle = drain_selections(
            schedule, TrafficReplayer(config), config, SelectionStore()
        )
        selections_match = selections_match and drained == oracle

        for arm, scheduler in (("off", off), ("on", on)):
            for name, stats in scheduler.stats.tenants.items():
                key = (arm, name)
                latencies.setdefault(key, []).extend(stats.latencies)
                misses[key] = misses.get(key, 0) + stats.deadline_misses
                deferred[key] = (
                    deferred.get(key, 0) + stats.profiles_deferred
                )
        storm_rows.append(
            {
                "seed": seed,
                "requests": schedule.count(),
                "per_tenant": {
                    t: schedule.count(t) for t in schedule.tenants()
                },
                "workload_classes": len(oracle),
                "profiled_launches_off": off.stats.profiled_launches,
                "profiled_launches_on": on.stats.profiled_launches,
                "profiles_deferred_on": on.stats.profiles_deferred,
                "profiling_cycles_off": (
                    off.stats.profiling_latency_cycles
                ),
                "selections_match_oracle": drained == oracle,
            }
        )

    arms = {}
    for arm in ("off", "on"):
        arms[arm] = {
            name: tenant_report(
                latencies.get((arm, name), []),
                misses.get((arm, name), 0),
                deferred.get((arm, name), 0),
            )
            for name in ("interactive", "batch", "background")
        }

    p99_off = arms["off"]["interactive"]["p99_cycles"]
    p99_on = arms["on"]["interactive"]["p99_cycles"]
    p99_ratio = p99_on / p99_off if p99_off > 0 else float("inf")
    interactive_misses = arms["on"]["interactive"]["deadline_misses"]

    return {
        "benchmark": "traffic",
        "quick": quick,
        "config": {
            "safe_point_multiplier": SAFE_POINT_MULTIPLIER,
            "deadline_cycles": DEADLINE_CYCLES,
            "horizon": HORIZON,
            "storms": storms,
            "fleet_devices": FLEET_DEVICES,
            "streams_per_device": STREAMS_PER_DEVICE,
            "clients": CLIENTS,
        },
        "storms": storm_rows,
        "backpressure_off": arms["off"],
        "backpressure_on": arms["on"],
        "trace": {
            "events": trace_events,
            "defects": len(trace_defects),
        },
        "acceptance": {
            "p99_ratio_max": MAX_P99_RATIO,
            "p99_ratio": p99_ratio,
            "p99_ratio_ok": p99_ratio <= MAX_P99_RATIO,
            "interactive_deadline_misses": interactive_misses,
            "interactive_misses_ok": interactive_misses == 0,
            "selections_match_oracle": selections_match,
            "trace_reconciles": not trace_defects,
        },
    }


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one storm instead of five (seconds instead of minutes)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_traffic.json",
        help="where to write the results document",
    )
    parser.add_argument(
        "--trace",
        default="TRACE_traffic.json",
        help="where to write the backpressure arm's Chrome trace",
    )
    args = parser.parse_args(argv)

    doc = run_benchmark(quick=args.quick, trace_path=args.trace)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    on = doc["backpressure_on"]["interactive"]
    off = doc["backpressure_off"]["interactive"]
    acceptance = doc["acceptance"]
    total = sum(row["requests"] for row in doc["storms"])
    deferred = sum(row["profiles_deferred_on"] for row in doc["storms"])
    profiled = sum(row["profiled_launches_off"] for row in doc["storms"])
    print(f"traffic benchmark ({'quick' if args.quick else 'full'} inputs)")
    print(
        f"  storms     : {len(doc['storms'])} x horizon "
        f"{doc['config']['horizon']}, {total} requests total"
    )
    print(
        f"  interactive: p99 {off['p99_cycles']:.0f} -> "
        f"{on['p99_cycles']:.0f} cycles (ratio "
        f"{acceptance['p99_ratio']:.2f}, bound "
        f"{acceptance['p99_ratio_max']:.2f}); deadline misses "
        f"{off['deadline_misses']} -> {on['deadline_misses']}"
    )
    print(
        f"  deferral   : {deferred} micro-profiles deferred under "
        f"pressure (off arm profiled {profiled} cold classes mid-storm)"
    )
    print(
        f"  converge   : drained store == oracle: "
        f"{acceptance['selections_match_oracle']}; trace reconciles: "
        f"{acceptance['trace_reconciles']}"
    )
    print(f"  written    : {args.output} (+ {args.trace})")

    ok = (
        acceptance["p99_ratio_ok"]
        and acceptance["interactive_misses_ok"]
        and acceptance["selections_match_oracle"]
        and acceptance["trace_reconciles"]
    )
    if not ok:
        print("  ACCEPTANCE FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
