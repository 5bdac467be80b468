"""Host-time serving benchmark on the 10-workload replay catalog.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog-warm --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every
        # workload, untraced and traced, as a table

Serves catalog traffic through ``LaunchScheduler.launch`` from a single
process and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
a run whose first half is untraced and whose second half records a span
around every layer call (``perfbench/spans.py``).  Human-readable notes
go to standard error.  See ``perfbench/README.md`` for the metrics and
why each workload exists.

Exits 1 when an output check, an engagement check or the trace
accounting fails, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.device.cost import cost_memo_stats  # noqa: E402
from repro.errors import AdmissionRejected  # noqa: E402
from repro.traffic import DEFAULT_WORKLOADS  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Oracle, Result, Workload  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15

#: Timed requests a run serves at least, so the p99 has ten samples
#: beyond it even on a slow host.
MIN_REQUESTS = 1000

#: Warm per-request host ms at the 1024 bucket on 2 CPUs, from the
#: ROADMAP baseline (commit 03fba30, single runs, stated as +-20%).
ROADMAP_WARM_MS = {
    "sgemm": 1.1,
    "spmv-csr/random": 1.2,
    "stencil": 1.4,
    "cutcp": 2.6,
    "spmv-jds": 3.1,
    "kmeans": 8.3,
    "particle-filter": 8.2,
    "histogram": 20.5,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "success_frac": "frac",
    "sim_makespan_vs_oracle": "x",
    "sim_latency_tail_mcycles": "Mcycles",
    "profiling_mcycles": "Mcycles",
    "oracle_match_frac": "frac",
    "peak_rss_mb": "MB",
}


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_mean(values: List[float]) -> float:
    """Mean of the slowest 1% of ``values`` (at least one value).

    The storm's latency cycles cluster: the slowest ~1.1% of requests sit
    at one value and the next ones well below it, so the p99 itself
    jumps between clusters from seed to seed.  The tail mean does not.
    """
    data = sorted(values)
    if not data:
        return 0.0
    return statistics.mean(data[-max(1, len(data) // 100):])


def metric_key(workload: str) -> str:
    return "catalog." + workload.replace("/", ".") + ".ms_p50"


class Phase:
    """Everything one timed phase served, folded as it goes."""

    def __init__(self) -> None:
        self.results: List[Result] = []
        self.wall_ns = 0
        self.chunks = 0
        self.memo_hits = 0
        self.memo_lookups = 0
        self.max_depth = 0
        self.schedulers = []

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def req_per_s(self) -> float:
        return self.attempted / (self.wall_ns / 1e9)

    def per_workload_ms(self, bucket: Optional[int] = None):
        grouped: Dict[str, List[float]] = {}
        for r in self.results:
            if bucket is None or r.bucket == bucket:
                grouped.setdefault(r.workload, []).append(
                    r.latency_ns / 1e6
                )
        return {w: statistics.median(v) for w, v in grouped.items()}


def run_phase(
    workload: Workload,
    chunks,
    seconds: float,
    min_requests: int,
    min_chunks: int,
    sim: Optional[dict] = None,
) -> Phase:
    """Serve chunks until ``seconds`` of timed serving and both minimums.

    ``sim`` collects the simulated figures of the first
    ``workload.sim_chunks`` chunks.
    """
    phase = Phase()
    while (
        phase.wall_ns < seconds * 1e9
        or phase.attempted < min_requests
        or phase.chunks < min_chunks
    ):
        chunk = next(chunks)
        scheduler = chunk.scheduler
        before = dict(
            makespan=scheduler.makespan_cycles(),
            memo=cost_memo_stats(),
        )
        results, wall = workload.serve(chunk)
        phase.results.extend(results)
        phase.wall_ns += wall
        memo = cost_memo_stats()
        phase.memo_hits += memo["hits"] - before["memo"]["hits"]
        phase.memo_lookups += (
            memo["hits"]
            + memo["misses"]
            - before["memo"]["hits"]
            - before["memo"]["misses"]
        )
        if scheduler.admission is not None:
            phase.max_depth = max(
                phase.max_depth, scheduler.admission.max_depth_seen
            )
        if scheduler not in phase.schedulers:
            phase.schedulers.append(scheduler)
        if sim is not None and phase.chunks < workload.sim_chunks:
            sim["makespan"] += scheduler.makespan_cycles() - before["makespan"]
            sim["latencies"].extend(
                r.latency_cycles for r in results if r.error is None
            )
            sim["results"].extend(results)
            if scheduler not in sim["schedulers"]:
                sim["schedulers"].append(scheduler)
        phase.chunks += 1
    return phase


def stats_of(schedulers) -> Dict[str, float]:
    """Sum the ServeStats counters the checks read over schedulers."""
    total = {"requests": 0, "profiled": 0, "hits": 0, "profiling": 0.0}
    kinds: Dict[str, int] = {}
    for s in schedulers:
        total["requests"] += s.stats.requests
        total["profiled"] += s.stats.profiled_launches
        total["hits"] += s.stats.store_hits
        total["profiling"] += s.stats.profiling_latency_cycles
        for kind, count in s.stats.placements.items():
            kinds[kind] = kinds.get(kind, 0) + count
    total["kinds"] = kinds
    return total


def engagement(
    workload: Workload, phase: Phase, before: Dict[str, float]
) -> List[str]:
    """Reasons the phase stopped exercising what the workload is for."""
    after = stats_of(phase.schedulers)
    requests = after["requests"] - before["requests"]
    hits = after["hits"] - before["hits"]
    profiled = after["profiled"] - before["profiled"]
    problems = []
    if workload.name == "catalog-warm":
        if hits != requests:
            problems.append(f"warm: {hits} store hits of {requests} requests")
        if profiled:
            problems.append(f"warm: {profiled} profiled launches")
    elif workload.name == "catalog-cold":
        if hits:
            problems.append(f"cold: {hits} store hits")
    else:
        if phase.max_depth < 1:
            problems.append("storm: no request waited for admission")
        for kind in ("cpu", "gpu"):
            if after["kinds"].get(kind, 0) < 1:
                problems.append(f"storm: nothing placed on {kind}")
        if profiled < 1 or hits < 1:
            problems.append(
                f"storm: {profiled} profiled launches, {hits} store hits"
            )
    return problems


def simulated(workload: Workload, sim: dict) -> Dict[str, float]:
    """The paper-fidelity metrics over the run's fixed sim prefix.

    The makespan is reported against the oracle makespan: every request
    of the prefix priced at its class's best pure variant, spread evenly
    over the fleet.  Raw makespan swings with how much heavy work a
    seeded storm happens to draw; the ratio does not.
    """
    oracle = Oracle(workload.config, workload.pools)
    case_of = {}
    oracle_cycles = 0.0
    for r in sim["results"]:
        if r.error is None:
            case_of.setdefault(r.workload_class, r.case)
            oracle_cycles += oracle.best_cycles(r.workload_class, r.case)
    matched = total = 0
    for scheduler in sim["schedulers"]:
        for key in list(scheduler.store.keys()):
            entry = scheduler.store.peek(key)
            if entry is None or key not in case_of:
                continue
            total += 1
            matched += oracle.is_best(key, case_of[key], entry.selected)
    devices = len(sim["schedulers"][0].devices)
    note(
        f"{workload.name}: sim prefix {len(sim['results'])} requests, "
        f"makespan {sim['makespan'] / 1e6:.3f} Mcycles, oracle "
        f"{oracle_cycles / devices / 1e6:.3f} Mcycles per device, latency "
        f"p99 {percentile(sim['latencies'], 99.0) / 1e6:.3f} Mcycles"
    )
    return {
        "sim_makespan_vs_oracle": sim["makespan"] * devices / oracle_cycles,
        "sim_latency_tail_mcycles": tail_mean(sim["latencies"]) / 1e6,
        "profiling_mcycles": stats_of(sim["schedulers"])["profiling"] / 1e6,
        "oracle_match_frac": matched / total if total else 0.0,
    }


def run_setups(workload: Workload, repeats: int) -> Dict[str, float]:
    """Set up ``repeats`` times; medians of each phase and of the total."""
    rows = [workload.setup() for _ in range(repeats)]
    out = {
        key: statistics.median(row[key] for row in rows) for key in rows[0]
    }
    out["total_s"] = statistics.median(sum(row.values()) for row in rows)
    return out


def failures(phase: Phase) -> List[str]:
    lines = []
    for r in phase.results:
        if r.ok:
            continue
        what = repr(r.error) if r.error else "output check failed"
        lines.append(f"{r.workload}@{r.bucket}: {what}")
    return lines


def end_to_end(
    workload: Workload,
    seconds: float,
    min_requests: int = MIN_REQUESTS,
    setups: int = SETUP_REPEATS,
) -> Tuple[dict, Phase, List[str]]:
    setup = run_setups(workload, setups)
    sim = {"makespan": 0.0, "latencies": [], "results": [], "schedulers": []}
    chunks = workload.chunks()
    before = stats_of([workload.scheduler])
    phase = run_phase(
        workload, chunks, seconds, min_requests, workload.sim_chunks, sim
    )
    # Read before the oracle runs, which is not part of serving.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = engagement(workload, phase, before)
    latencies = [r.latency_ns / 1e6 for r in phase.results]
    metrics = {
        "setup_s": setup["total_s"],
        "req_per_s": phase.req_per_s(),
        "latency_ms_p50": percentile(latencies, 50.0),
        "latency_ms_p99": percentile(latencies, 99.0),
        "success_frac": 1.0 - phase.failed / phase.attempted,
        **simulated(workload, sim),
        "peak_rss_mb": peak_rss_mb,
    }
    note(
        f"{workload.name}: {phase.attempted} requests in "
        f"{phase.wall_ns / 1e9:.2f} s timed, {phase.chunks} chunks"
    )
    if workload.name == "catalog-warm":
        compare_roadmap(phase)
    return metrics, phase, problems


def compare_roadmap(phase: Phase) -> None:
    """Print warm p50 at the 1024 bucket next to the ROADMAP baseline."""
    measured = phase.per_workload_ms(bucket=1024)
    note("warm p50 ms at bucket 1024 vs ROADMAP baseline (+-20%):")
    for workload, base in ROADMAP_WARM_MS.items():
        value = measured.get(workload)
        if value is None:
            continue
        verdict = "agrees" if abs(value - base) <= 0.2 * base else "DIFFERS"
        note(f"  {workload:18s} {value:7.2f}  baseline {base:5.1f}  {verdict}")


def per_layer(
    workload: Workload, seconds: float, setups: int = SETUP_REPEATS
) -> Tuple[dict, Phase, List[str]]:
    setup = run_setups(workload, setups)
    chunks = workload.chunks()
    before = stats_of([workload.scheduler])
    half = seconds / 2.0
    untraced = run_phase(workload, chunks, half, 0, 1)
    tracer = spans.LayerTracer()
    with tracer.installed():
        traced = run_phase(workload, chunks, half, 0, 1)
    totals, problems = spans.layer_report(tracer.spans)
    both = Phase()
    both.results = untraced.results + traced.results
    both.schedulers = untraced.schedulers + [
        s for s in traced.schedulers if s not in untraced.schedulers
    ]
    both.max_depth = max(untraced.max_depth, traced.max_depth)
    problems += engagement(workload, both, before)
    if totals["requests"] != traced.attempted:
        problems.append(
            f"trace: {totals['requests']} root spans for "
            f"{traced.attempted} traced requests"
        )

    requests = max(1, totals["requests"])

    def us(prefix: str) -> float:
        ns = sum(
            v
            for k, v in totals.items()
            if k.startswith(prefix) and k.endswith(".self_ns")
        )
        return ns / requests / 1e3

    def per_request(layer: str) -> float:
        return totals.get(f"{layer}.calls", 0) / requests

    root_us = totals["root_ns"] / requests / 1e3
    rejects = sum(
        isinstance(r.error, AdmissionRejected) for r in both.results
    )
    # Decision overhead: host time outside engine, cost model and kernel
    # execution, over request time not spent waiting for admission.
    waited = us("serve.qos.admit")
    work = us("device.engine.") + us("device.cost") + us("kernel.execute")
    metrics = {
        "failed_frac": both.failed / both.attempted,
        "untraced.req_per_s": untraced.req_per_s(),
        "traced.req_per_s": traced.req_per_s(),
        "trace.request_us": root_us,
        "serve.qos.admit_us": waited,
        "serve.qos.rejects": rejects,
        "serve.qos.max_depth": both.max_depth,
        "serve.signature.calls": per_request("serve.signature"),
        "serve.signature.us": us("serve.signature"),
        "serve.store.us": us("serve.store."),
        "serve.store.hit_frac": (
            totals["store.hits"] / totals["store.lookups"]
            if totals["store.lookups"]
            else 0.0
        ),
        "serve.store.publishes": per_request("serve.store.publish"),
        "serve.scheduler.self_us": us(spans.ROOT),
        "core.policy.decide_us": us("core.policy.decide"),
        "core.policy.placement_us": us("core.policy.placement"),
        "analyze.gate.us": us("analyze.gate"),
        "core.runtime.self_us": us("core.runtime"),
        "core.orchestrator.self_us": us("core.orchestrator"),
        "core.orchestrator.profiled_frac": per_request("core.orchestrator"),
        "device.engine.submits": per_request("device.engine.submit"),
        "device.engine.self_us": us("device.engine."),
        "device.cost.calls": per_request("device.cost"),
        "device.cost.self_us": us("device.cost"),
        "device.cost.memo_hit_frac": (
            traced.memo_hits / traced.memo_lookups
            if traced.memo_lookups
            else 0.0
        ),
        "kernel.execute.calls": per_request("kernel.execute"),
        "kernel.execute.us": us("kernel.execute"),
        "setup.cases_s": setup["cases_s"],
        "setup.register_s": setup["register_s"],
        "setup.warm_s": setup["warm_s"],
        "select_share": (
            1.0 - work / (root_us - waited) if root_us > waited else 0.0
        ),
    }
    p50 = untraced.per_workload_ms()
    for name in DEFAULT_WORKLOADS:
        metrics[metric_key(name)] = p50.get(name, 0.0)
    note(
        f"{workload.name}: untraced {untraced.attempted} requests "
        f"{metrics['untraced.req_per_s']:.1f} req/s; traced "
        f"{traced.attempted} requests {metrics['traced.req_per_s']:.1f} "
        f"req/s ({len(tracer.spans)} spans)"
    )
    return metrics, both, problems


PER_LAYER_UNITS = {
    "failed_frac": "frac",
    "untraced.req_per_s": "1/s",
    "traced.req_per_s": "1/s",
    "trace.request_us": "us",
    "serve.qos.admit_us": "us",
    "serve.qos.rejects": "count",
    "serve.qos.max_depth": "count",
    "serve.signature.calls": "1/req",
    "serve.signature.us": "us",
    "serve.store.us": "us",
    "serve.store.hit_frac": "frac",
    "serve.store.publishes": "1/req",
    "serve.scheduler.self_us": "us",
    "core.policy.decide_us": "us",
    "core.policy.placement_us": "us",
    "analyze.gate.us": "us",
    "core.runtime.self_us": "us",
    "core.orchestrator.self_us": "us",
    "core.orchestrator.profiled_frac": "frac",
    "device.engine.submits": "1/req",
    "device.engine.self_us": "us",
    "device.cost.calls": "1/req",
    "device.cost.self_us": "us",
    "device.cost.memo_hit_frac": "frac",
    "kernel.execute.calls": "1/req",
    "kernel.execute.us": "us",
    "setup.cases_s": "s",
    "setup.register_s": "s",
    "setup.warm_s": "s",
    "select_share": "frac",
    **{metric_key(w): "ms" for w in DEFAULT_WORKLOADS},
}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name](seed)
    if trace:
        metrics, phase, problems = per_layer(workload, seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, phase, problems = end_to_end(workload, seconds)
        units = END_TO_END_UNITS
    broken = failures(phase)
    for line in broken[:20]:
        note(f"FAILED {line}")
    for line in problems[:20]:
        note(f"CHECK {line}")
    correct = not broken and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": phase.attempted,
                "failed": phase.failed,
                "metrics": {
                    key: {"value": metrics[key], "unit": units[key]}
                    for key in units
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    os.path.abspath(__file__),
                    "--workload",
                    name,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(seconds),
                    "--trace",
                    str(trace),
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} trace={trace}: no result", flush=True)
                status = status or 1
                continue
            doc = json.loads(lines[-1])
            print(
                f"== {name} trace={trace} correct={doc['correct']} "
                f"attempted={doc['attempted']} failed={doc['failed']}"
            )
            for key, value in doc["metrics"].items():
                print(f"  {key:36s} {value['value']:14.6g} {value['unit']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
