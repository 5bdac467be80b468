"""Determinism and trace-accounting checks for the serving benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Runs are shortened (one set-up, a few chunks); the simulated metrics are
defined over a fixed prefix of chunks, so they do not depend on how many
requests the host managed to serve.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIM_KEYS = (
    "sim_makespan_vs_oracle",
    "sim_latency_tail_mcycles",
    "profiling_mcycles",
    "oracle_match_frac",
)


def short_run(name: str, seed: int, sim_chunks: int = 2):
    workload = WORKLOADS[name](seed)
    workload.sim_chunks = sim_chunks
    metrics, phase, problems = run.end_to_end(
        workload, seconds=0.0, min_requests=0, setups=1
    )
    assert not run.failures(phase)
    assert not problems
    return metrics


@pytest.mark.parametrize("name", ["catalog-warm", "catalog-cold"])
def test_same_seed_gives_identical_simulated_metrics(name):
    first = short_run(name, seed=7)
    second = short_run(name, seed=7)
    assert {k: first[k] for k in SIM_KEYS} == {k: second[k] for k in SIM_KEYS}
    assert first["sim_makespan_vs_oracle"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_a_different_request_stream(name):
    def stream(seed):
        workload = WORKLOADS[name](seed)
        workload.setup()
        chunk = next(workload.chunks())
        return [(item.workload, item.bucket) for item in chunk.items]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)


def test_storm_simulated_spread_under_two_threads():
    """Two client threads may reorder a storm; report how far it moves.

    The storm keeps its two threads even though thread interleaving can
    change the simulated figures; this test prints the spread between two
    same-seed runs instead of requiring equality.
    """
    first = short_run("tenant-storm", seed=7, sim_chunks=1)
    second = short_run("tenant-storm", seed=7, sim_chunks=1)
    for key in SIM_KEYS:
        base = first[key] or 1.0
        print(f"tenant-storm {key}: {first[key]} vs {second[key]} "
              f"({abs(first[key] - second[key]) / base:.4%})")
        assert first[key] > 0 and second[key] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_accounts_for_every_request(name):
    workload = WORKLOADS[name](3)
    workload.setup()
    tracer = spans.LayerTracer()
    with tracer.installed():
        phase = run.run_phase(workload, workload.chunks(), 0.0, 0, 1)
    totals, defects = spans.layer_report(tracer.spans)
    assert defects == []
    assert totals["requests"] == phase.attempted
    layers = sum(v for k, v in totals.items() if k.endswith(".self_ns"))
    assert layers == totals["root_ns"]
    assert totals["device.cost.calls"] >= totals["device.engine.submit.calls"]


def test_printed_metrics_match_benchmark_json():
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    for section, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
