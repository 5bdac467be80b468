"""Engine benchmark: event vs analytic-drain scheduling paths.

Times the same workloads through the engine's two scheduling paths —
the per-work-group event loop and the analytic fast-batch drain — and
measures the cost-kernel memo's warm hit rate.  Both paths are
bit-identical by construction (the equivalence suite proves it); this
benchmark shows what that equivalence buys and gates against
regressions (written to ``BENCH_engine.json``):

1. **uncontended** — one 64k-work-group noise-free batch per path,
   work-groups/sec.  The drain must clear ``MIN_SPEEDUP``× the event
   path (5× on full inputs, 2× on ``--quick``).
2. **contended** — a mixed-priority three-task stream with interleaved
   host polls.  The drain must clear 2× the event path.
3. **memo** — repeated launches of one workload class; the warm hit
   rate must be at least 95%.

The benchmark also re-asserts exact equality of the two paths'
observables on the workloads it times (a cheap in-situ slice of the
equivalence harness) and reconciles a traced runtime launch executed
on the default (drain) path: a two-variant asynchronous profiled
launch, so the trace carries the host polls of the profiling rounds,
fast-forwarded idle rounds included.

Run with ``--quick`` for CI-sized inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

import numpy as np  # noqa: E402

from repro.config import AnalyzeSettings, ReproConfig  # noqa: E402
from repro.core.runtime import DySelRuntime  # noqa: E402
from repro.device import (  # noqa: E402
    clear_cost_memo,
    cost_memo_stats,
    make_cpu,
)
from repro.device import engine as engine_mod  # noqa: E402
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.kernel import (  # noqa: E402
    AccessPattern,
    ArgSpec,
    KernelIR,
    KernelSignature,
    KernelSpec,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from repro.kernel.buffers import Buffer  # noqa: E402
from repro.modes import OrchestrationFlow  # noqa: E402
from repro.obs.events import EventKind  # noqa: E402
from repro.obs.export import reconcile, write_chrome_trace  # noqa: E402

#: Acceptance floors (mirrored in EXPERIMENTS.md).  The uncontended
#: floor relaxes to the contended floor on ``--quick`` inputs: small
#: batches amortize less python overhead per array op.
MIN_SPEEDUP_UNCONTENDED = 5.0
MIN_SPEEDUP_CONTENDED = 2.0
MIN_MEMO_HIT_RATE = 0.95

#: Work-group sizes per scenario.
FULL_GROUPS = 65536
QUICK_GROUPS = 8192

#: The two paths as FAST_BATCH_THRESHOLD forcings.
PATHS = (
    ("event", 10**9),
    ("fast", 1),
)

ELEMS_PER_UNIT = 8


def scale_executor(args, unit_start: int, unit_end: int) -> None:
    """y = 2x over the covered slice — cheap enough that functional
    execution does not drown the scheduling cost being measured."""
    lo = unit_start * ELEMS_PER_UNIT
    hi = unit_end * ELEMS_PER_UNIT
    args["y"].data[lo:hi] = 2.0 * args["x"].data[lo:hi]


def make_variant(name: str = "scale", trips: int = 8) -> KernelVariant:
    """One statically priced synthetic variant (memoizable costs)."""
    ir = KernelIR(
        loops=(Loop("k", LoopBound(static_trips=trips)),),
        accesses=(
            MemoryAccess(
                "x",
                False,
                AccessPattern.UNIT_STRIDE,
                4.0 * ELEMS_PER_UNIT / trips,
                loop="k",
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0 * ELEMS_PER_UNIT / trips,
                loop="k",
            ),
        ),
        flops_per_trip=float(ELEMS_PER_UNIT),
        work_group_threads=ELEMS_PER_UNIT,
    )
    return KernelVariant(
        name=name,
        ir=ir,
        executor=scale_executor,
        work_group_size=ELEMS_PER_UNIT,
    )


def make_args(units: int, config: ReproConfig) -> Dict[str, object]:
    rng = config.rng("bench-engine-args", units)
    x = rng.standard_normal(units * ELEMS_PER_UNIT).astype(np.float32)
    return {
        "x": Buffer("x", x, writable=False),
        "y": Buffer("y", np.zeros(units * ELEMS_PER_UNIT, dtype=np.float32)),
    }


class forced_path:
    """Pin the engine's fast-batch threshold for one measurement."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def __enter__(self):
        self.saved = engine_mod.FAST_BATCH_THRESHOLD
        engine_mod.FAST_BATCH_THRESHOLD = self.threshold
        return self

    def __exit__(self, *exc):
        engine_mod.FAST_BATCH_THRESHOLD = self.saved
        return False


def snapshot(engine, tasks) -> Tuple:
    """Path-invariant observables for the in-situ equality check."""
    return (
        tuple(
            (
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                None
                if task.measured is None
                else task.measured.measured_cycles,
            )
            for task in tasks
        ),
        engine.now,
        engine.utilization(),
        tuple(sorted(engine._unit_heap)),
    )


def run_uncontended(groups: int, config: ReproConfig, forcing) -> Tuple:
    """One single-task batch; returns (snapshot, elapsed seconds)."""
    with forced_path(forcing):
        variant = make_variant()
        args = make_args(groups, config)
        engine = ExecutionEngine(make_cpu(config), config)
        begin = time.perf_counter()
        task = engine.submit(
            variant, args, WorkRange(0, groups), measure=True
        )
        engine.wait(task)
        elapsed = time.perf_counter() - begin
        return snapshot(engine, [task]), elapsed


def run_contended(groups: int, config: ReproConfig, forcing) -> Tuple:
    """Mixed-priority three-task stream with interleaved host polls."""
    per_task = groups // 3
    with forced_path(forcing):
        variant = make_variant()
        engine = ExecutionEngine(make_cpu(config), config)
        begin = time.perf_counter()
        tasks: List = []
        for priority in (Priority.BATCH, Priority.PROFILING, Priority.EAGER):
            args = make_args(per_task, config)
            tasks.append(
                engine.submit(
                    variant,
                    args,
                    WorkRange(0, per_task),
                    priority=priority,
                    measure=True,
                )
            )
            engine.poll(tasks[0])
        engine.wait_all(tasks)
        engine.barrier()
        elapsed = time.perf_counter() - begin
        return snapshot(engine, tasks), elapsed


def measure_paths(scenario, groups: int, config: ReproConfig, repeats: int):
    """Best-of-``repeats`` seconds per path, with equality checking."""
    timings: Dict[str, float] = {}
    snapshots: Dict[str, Tuple] = {}
    for label, forcing in PATHS:
        best = float("inf")
        for _ in range(repeats):
            snap, elapsed = scenario(groups, config, forcing)
            best = min(best, elapsed)
        timings[label] = best
        snapshots[label] = snap
    if snapshots["fast"] != snapshots["event"]:
        raise SystemExit(
            "equivalence violated: the drain disagrees with the event "
            "path on the benchmark workload"
        )
    return timings


def measure_memo(groups: int, config: ReproConfig, launches: int) -> Dict:
    """Warm hit rate over repeated launches of one workload class."""
    clear_cost_memo()
    variant = make_variant()
    engine = ExecutionEngine(make_cpu(config), config)
    for _ in range(launches):
        args = make_args(groups, config)
        task = engine.submit(variant, args, WorkRange(0, groups))
        engine.wait(task)
    stats = cost_memo_stats()
    total = stats["hits"] + stats["misses"]
    stats["hit_rate"] = stats["hits"] / total if total else 0.0
    stats["launches"] = launches
    clear_cost_memo()
    return stats


def traced_reconcile(trace_path: str) -> Tuple[int, int, List[str]]:
    """A traced two-variant asynchronous profiled launch, reconciled.

    Returns (events, host polls, reconcile problems).  ``scale_fine`` is
    statically dominated, so the launch asks for the full pool
    (``dominance_margin=inf``) to keep two profiling candidates polling.
    """
    config = ReproConfig(
        trace=True, analyze=AnalyzeSettings(dominance_margin=float("inf"))
    )
    runtime = DySelRuntime(make_cpu(config), config)
    spec = KernelSpec(
        signature=KernelSignature(
            "scale", (ArgSpec("x"), ArgSpec("y", is_output=True))
        )
    )
    from repro.compiler.variants import VariantPool

    runtime.register_pool(
        VariantPool(
            spec=spec,
            variants=(make_variant(), make_variant("scale_fine", trips=64)),
        )
    )
    units = 512
    args = make_args(units, config)
    result = runtime.launch_kernel(
        "scale", args, units, flow=OrchestrationFlow.ASYNC
    )
    events = runtime.tracer.events
    write_chrome_trace(events, trace_path)
    problems = reconcile(
        events,
        elapsed_cycles=result.elapsed_cycles,
        workload_units=units,
    )
    polls = sum(1 for event in events if event.kind is EventKind.HOST_POLL)
    if not polls:
        problems.append("the traced launch issued no host polls")
    return len(events), polls, problems


def run_benchmark(quick: bool, trace_path: str) -> Dict[str, object]:
    """Run all scenarios and return the BENCH_engine.json document."""
    groups = QUICK_GROUPS if quick else FULL_GROUPS
    repeats = 2 if quick else 3
    min_uncontended = (
        MIN_SPEEDUP_CONTENDED if quick else MIN_SPEEDUP_UNCONTENDED
    )
    quiet = ReproConfig().without_noise()
    noisy = ReproConfig()

    clear_cost_memo()
    uncontended = measure_paths(run_uncontended, groups, quiet, repeats)
    contended = measure_paths(run_contended, groups, noisy, repeats)
    memo = measure_memo(groups, quiet, launches=40)
    trace_events, trace_polls, trace_problems = traced_reconcile(trace_path)
    clear_cost_memo()

    def speedup(timings):
        return timings["event"] / timings["fast"]

    uncontended_speedup = speedup(uncontended)
    contended_speedup = speedup(contended)
    return {
        "benchmark": "engine",
        "quick": quick,
        "workload": {
            "work_groups": groups,
            "repeats": repeats,
            "contended_tasks": 3,
            "memo_launches": memo["launches"],
        },
        "work_groups_per_sec": {
            "uncontended": {
                label: groups / seconds
                for label, seconds in uncontended.items()
            },
            "contended": {
                label: (3 * (groups // 3)) / seconds
                for label, seconds in contended.items()
            },
        },
        "seconds": {"uncontended": uncontended, "contended": contended},
        "memo": memo,
        "trace": {
            "events": trace_events,
            "host_polls": trace_polls,
            "problems": trace_problems,
        },
        "acceptance": {
            "uncontended_speedup": uncontended_speedup,
            "uncontended_speedup_min": min_uncontended,
            "uncontended_speedup_ok": uncontended_speedup >= min_uncontended,
            "contended_speedup": contended_speedup,
            "contended_speedup_min": MIN_SPEEDUP_CONTENDED,
            "contended_speedup_ok": (
                contended_speedup >= MIN_SPEEDUP_CONTENDED
            ),
            "memo_hit_rate": memo["hit_rate"],
            "memo_hit_rate_min": MIN_MEMO_HIT_RATE,
            "memo_hit_rate_ok": memo["hit_rate"] >= MIN_MEMO_HIT_RATE,
            "paths_bit_identical_ok": True,  # measure_paths aborts otherwise
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
        default="BENCH_engine.json",
        help="where to write the results document",
    )
    parser.add_argument(
        "--trace",
        default="TRACE_engine.json",
        help="where to write the traced launch's Chrome trace",
    )
    args = parser.parse_args(argv)

    doc = run_benchmark(quick=args.quick, trace_path=args.trace)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rates = doc["work_groups_per_sec"]
    acceptance = doc["acceptance"]
    print(f"engine benchmark ({'quick' if doc['quick'] else 'full'} inputs)")
    for scenario in ("uncontended", "contended"):
        row = rates[scenario]
        print(
            f"  {scenario:<11}: "
            + " / ".join(
                f"{label} {row[label]:,.0f} wg/s"
                for label, _ in PATHS
            )
            + f"  ({acceptance[scenario + '_speedup']:.1f}x, "
            f"floor {acceptance[scenario + '_speedup_min']:.1f}x)"
        )
    print(
        f"  memo       : {100 * acceptance['memo_hit_rate']:.1f}% warm hits "
        f"over {doc['workload']['memo_launches']} launches "
        f"(floor {100 * acceptance['memo_hit_rate_min']:.0f}%)"
    )
    print(
        f"  trace      : {args.trace} ({doc['trace']['events']} events, "
        f"{doc['trace']['host_polls']} host polls, "
        f"{len(doc['trace']['problems'])} problem(s))"
    )
    print(f"  written    : {args.output}")

    ok = (
        acceptance["uncontended_speedup_ok"]
        and acceptance["contended_speedup_ok"]
        and acceptance["memo_hit_rate_ok"]
        and acceptance["trace_reconciles_ok"]
    )
    if not ok:
        print("  ACCEPTANCE FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
