"""Static-analysis benchmark: profiling cycles eliminated by dominance.

A synthetic K=16 pool of one streaming kernel whose variants differ only
in statically visible redundant compute (loop trip counts scale the
per-unit flops).  A handful of contenders are within the dominance
safety margin of each other; the rest are provably slower in their *best*
case than the leaders' *worst* case, so the static cost-bound analysis
(:mod:`repro.analyze.costbound`) can prune them from the micro-profiling
candidate set before a single cycle is spent.

Two noise-free runs over the same launch measure what pruning buys
(written to ``BENCH_analyze.json``):

1. **baseline**  — ``AnalyzeSettings(dominance_margin=inf)``: pruning
   finds nothing, so all 16 candidates profile.
2. **dominance** — the default settings: only non-dominated survivors
   profile.

Plus a traced serve phase (scheduler + store) with pruning on, whose
per-device launch traces must pass :func:`repro.obs.export.reconcile`.

Acceptance: the dominance run eliminates at least 40% of the baseline's
profiling latency cycles, both runs select the same variant as the
noise-free cost-model oracle (zero selection regressions), no pruned
variant is the oracle, and the serve traces reconcile with at least one
``DOMINANCE_PRUNE`` event recorded.

Run with ``--quick`` for CI-sized inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, List

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.analyze.dominance import pool_cost_bounds  # noqa: E402
from repro.compiler.variants import VariantPool  # noqa: E402
from repro.config import AnalyzeSettings, ReproConfig  # noqa: E402
from repro.core.runtime import DySelRuntime  # noqa: E402
from repro.device import make_cpu  # noqa: E402
from repro.device.cost import CostModel  # noqa: E402
from repro.kernel import (  # noqa: E402
    AccessPattern,
    ArgSpec,
    Buffer,
    KernelIR,
    KernelSignature,
    KernelSpec,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from repro.obs.events import EventKind  # noqa: E402
from repro.obs.export import reconcile, write_chrome_trace  # noqa: E402
from repro.serve import LaunchScheduler, SelectionStore, ServeRequest  # noqa: E402

#: Acceptance thresholds (mirrored in EXPERIMENTS.md).
MIN_CYCLE_REDUCTION = 0.40

#: Pool size (the K the tentpole targets).
POOL_K = 16

#: Elements one workload unit covers.
UNIT = 64

#: Redundant-work scale per variant: four contenders inside the default
#: 1.25 dominance margin of the best, twelve statically hopeless.
SCALES = (1.0, 1.05, 1.1, 1.2) + tuple(float(s) for s in range(2, 14))


def make_variant(name: str, scale: float) -> KernelVariant:
    """One compute-bound streaming variant doing ``scale``× the flops.

    The redundancy is a *static* loop bound, so the cost interval's
    compute term evaluates exactly and dominance can see it without
    running anything.
    """
    trips = 16

    def executor(args, unit_start: int, unit_end: int) -> None:
        x = args["x"].data
        y = args["y"].data
        y[unit_start * UNIT : unit_end * UNIT] = (
            2.0 * x[unit_start * UNIT : unit_end * UNIT]
        )

    ir = KernelIR(
        loops=(Loop("k", LoopBound(static_trips=trips)),),
        accesses=(
            MemoryAccess(
                "x",
                False,
                AccessPattern.UNIT_STRIDE,
                4.0 * UNIT / trips,
                loop="k",
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0 * UNIT / trips,
                loop="k",
            ),
        ),
        flops_per_trip=4096.0 * scale,
        work_group_threads=UNIT,
    )
    return KernelVariant(
        name=name, ir=ir, executor=executor, wa_factor=1, work_group_size=UNIT
    )


def build_pool() -> VariantPool:
    """The synthetic K=16 pool with large static cost spread."""
    spec = KernelSpec(
        signature=KernelSignature(
            "redundant", (ArgSpec("x"), ArgSpec("y", is_output=True))
        )
    )
    variants = tuple(
        make_variant(f"v{i:02d}_x{scale:g}", scale)
        for i, scale in enumerate(SCALES)
    )
    return VariantPool(spec=spec, variants=variants)


def fresh_args(units: int) -> Dict[str, object]:
    """One launch's argument mapping (fresh output buffer)."""
    n = units * UNIT
    return {
        "x": Buffer("x", np.arange(n, dtype=np.float32)),
        "y": Buffer("y", np.zeros(n, dtype=np.float32), writable=True),
    }


def profiled_launch(config: ReproConfig, units: int):
    """One profiling launch of a fresh pool on a fresh runtime."""
    runtime = DySelRuntime(make_cpu(config), config)
    pool = build_pool()
    runtime.register_pool(pool)
    result = runtime.launch_kernel(
        "redundant", fresh_args(units), units, profiling=True
    )
    return runtime, pool, result


def oracle_selection(config: ReproConfig, units: int) -> str:
    """The noise-free cost-model winner (ground truth selection)."""
    device = make_cpu(config)
    model = CostModel(device)
    pool = build_pool()
    args = fresh_args(units)
    costs = {
        v.name: model.launch_cycles(v, args, WorkRange(0, units))
        for v in pool.variants
    }
    return min(costs, key=costs.get)


def serve_phase(config: ReproConfig, units: int, requests: int):
    """Concurrent-serve smoke: traced scheduler with pruning enabled."""
    scheduler = LaunchScheduler(
        (make_cpu(config),), config=config, store=SelectionStore()
    )
    scheduler.register_pool(build_pool())
    batch = [
        ServeRequest(
            kernel="redundant", args=fresh_args(units), workload_units=units
        )
        for _ in range(requests)
    ]
    outcomes = scheduler.serve_all(batch, clients=4)
    return scheduler, outcomes


def run_benchmark(quick: bool, trace_path: str) -> Dict[str, object]:
    """Run both scenarios and return the BENCH_analyze.json document."""
    units = 256 if quick else 1024
    serve_requests = 6 if quick else 12

    dom_settings = AnalyzeSettings()
    dom_config = dataclasses.replace(
        ReproConfig().without_noise(), analyze=dom_settings, trace=True
    )
    base_config = dataclasses.replace(
        dom_config,
        analyze=AnalyzeSettings(dominance_margin=float("inf")),
        trace=False,
    )

    verdict = pool_cost_bounds(
        build_pool(),
        "cpu",
        margin=dom_settings.dominance_margin,
        workload_units=units,
    )

    _, _, base_result = profiled_launch(base_config, units)
    dom_runtime, _, dom_result = profiled_launch(dom_config, units)
    oracle = oracle_selection(base_config, units)

    base_latency = base_result.profiling_latency_cycles
    dom_latency = dom_result.profiling_latency_cycles
    reduction = (
        1.0 - dom_latency / base_latency if base_latency > 0 else 0.0
    )
    prune_events = sum(
        1
        for e in dom_runtime.tracer.events
        if e.kind is EventKind.DOMINANCE_PRUNE
    )

    serve_run, serve_outcomes = serve_phase(dom_config, units, serve_requests)
    trace_problems: List[str] = []
    for device, events in serve_run.device_traces().items():
        for problem in reconcile(events):
            trace_problems.append(f"{device}: {problem}")
    serve_prunes = sum(
        1
        for events in serve_run.device_traces().values()
        for e in events
        if e.kind is EventKind.DOMINANCE_PRUNE
    )
    write_chrome_trace(dom_runtime.tracer.events, trace_path)

    return {
        "benchmark": "analyze",
        "quick": quick,
        "workload": {
            "kernel": "redundant",
            "pool_size": POOL_K,
            "workload_units": units,
            "dominance_margin": dom_settings.dominance_margin,
            "scales": list(SCALES),
        },
        "static_verdict": {
            "pruned": list(verdict.pruned),
            "survivors": list(verdict.survivors),
            "best_upper_bound": verdict.best_name,
        },
        "profiling_latency_cycles": {
            "baseline": base_latency,
            "dominance": dom_latency,
            "reduction": reduction,
        },
        "selections": {
            "baseline": base_result.selected,
            "dominance": dom_result.selected,
            "oracle": oracle,
        },
        "serve_run": {
            "requests": serve_requests,
            "profiled_launches": serve_run.stats.profiled_launches,
            "store_hits": serve_run.stats.store_hits,
            "dominance_prune_events": serve_prunes,
            "trace_problems": trace_problems,
        },
        "acceptance": {
            "cycle_reduction": reduction,
            "cycle_reduction_min": MIN_CYCLE_REDUCTION,
            "cycle_reduction_ok": reduction >= MIN_CYCLE_REDUCTION,
            "selection_match_ok": (
                base_result.selected == oracle
                and dom_result.selected == oracle
            ),
            "oracle_not_pruned_ok": oracle not in verdict.pruned,
            "prune_event_recorded_ok": prune_events >= 1,
            "trace_reconciles_ok": not trace_problems,
        },
    }


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized inputs (seconds instead of minutes)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_analyze.json",
        help="where to write the results document",
    )
    parser.add_argument(
        "--trace",
        default="TRACE_analyze.json",
        help="where to write the dominance run's Chrome trace",
    )
    args = parser.parse_args(argv)

    doc = run_benchmark(quick=args.quick, trace_path=args.trace)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    latency = doc["profiling_latency_cycles"]
    acceptance = doc["acceptance"]
    verdict = doc["static_verdict"]
    print(f"analyze benchmark ({'quick' if doc['quick'] else 'full'} inputs)")
    print(
        f"  pruned     : {len(verdict['pruned'])}/{POOL_K} variant(s) "
        f"statically dominated (best bound: {verdict['best_upper_bound']})"
    )
    print(
        f"  profiling  : baseline {latency['baseline']:.0f} cycles -> "
        f"dominance {latency['dominance']:.0f} cycles "
        f"({100 * latency['reduction']:.1f}% eliminated)"
    )
    print(
        f"  selection  : baseline {doc['selections']['baseline']} / "
        f"dominance {doc['selections']['dominance']} / oracle "
        f"{doc['selections']['oracle']}"
    )
    print(f"  trace      : {args.trace}")
    print(f"  written    : {args.output}")

    ok = all(
        acceptance[key]
        for key in (
            "cycle_reduction_ok",
            "selection_match_ok",
            "oracle_not_pruned_ok",
            "prune_event_recorded_ok",
            "trace_reconciles_ok",
        )
    )
    if not ok:
        print("  ACCEPTANCE FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
