"""Equivalence harness: the event and fast-batch paths agree.

Extends ``test_fast_batch_property``: where that suite drives one
single-task batch, this one runs whole *scenarios* — contended
mixed-priority queues, interleaved host polls and waits, deadline
waits with injected hangs, latency faults, noise on and off — through
both of the engine's scheduling paths and asserts exact equality
of every observable: task intervals, measured cycles, host clock,
utilization, unit free times, launch counts, trace events, and output
buffers.  Zero tolerance: comparisons are ``==`` / ``array_equal``,
never ``allclose`` — the analytic paths claim bit-identity, not
approximation.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

from repro.config import ReproConfig  # noqa: E402
from repro.core.runtime import DySelRuntime  # noqa: E402
from repro.device import engine as engine_mod  # noqa: E402
from repro.device import make_cpu  # noqa: E402
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule  # noqa: E402
from repro.kernel import AccessPattern, WorkRange  # noqa: E402
from repro.modes import OrchestrationFlow, ProfilingMode  # noqa: E402
from repro.obs import reconcile  # noqa: E402
from tests.conftest import (  # noqa: E402
    make_axpy_args,
    make_axpy_variant,
)

#: The two scheduling paths, as FAST_BATCH_THRESHOLD forcings.  ``event``
#: never reaches the analytic drain; ``fast`` drains analytically.
PATHS = {
    "event": 10**9,
    "fast": 1,
}


class _ForcedPath:
    """Context manager pinning the engine's fast-batch threshold."""

    def __init__(self, threshold: int) -> None:
        self.forced = threshold

    def __enter__(self):
        self.saved = engine_mod.FAST_BATCH_THRESHOLD
        engine_mod.FAST_BATCH_THRESHOLD = self.forced
        return self

    def __exit__(self, *exc):
        engine_mod.FAST_BATCH_THRESHOLD = self.saved
        return False


def snapshot(engine, tasks, argsets):
    """Every observable a scenario exposes, as comparable values."""
    return {
        "tasks": [
            (
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                task.total_work_groups,
                task.finished,
                None
                if task.measured is None
                else (
                    task.measured.true_cycles,
                    task.measured.measured_cycles,
                ),
            )
            for task in tasks
        ],
        "now": engine.now,
        "utilization": engine.utilization(),
        "unit_heap": sorted(engine._unit_heap),
        "launches": engine.launch_count,
        "outputs": [np.array(args["y"].data, copy=True) for args in argsets],
    }


def assert_snapshots_equal(reference, other, label):
    """Exact equality of two scenario snapshots."""
    for key in ("tasks", "now", "utilization", "unit_heap", "launches"):
        assert reference[key] == other[key], (label, key)
    for ref_y, other_y in zip(reference["outputs"], other["outputs"]):
        assert np.array_equal(ref_y, other_y), (label, "outputs")


def run_scenario(config, plan, threshold, engine_cls=ExecutionEngine):
    """Drive one submit/poll/wait scenario under a forced path."""
    with _ForcedPath(threshold):
        engine = engine_cls(make_cpu(config), config)
        tasks, argsets = [], []
        for step in plan:
            pattern = (
                AccessPattern.STRIDED
                if step["strided"]
                else AccessPattern.UNIT_STRIDE
            )
            variant = make_axpy_variant("v", pattern, trips=step["trips"])
            args = make_axpy_args(step["units"], config)
            task = engine.submit(
                variant,
                args,
                WorkRange(0, step["units"]),
                priority=step["priority"],
                measure=step["measure"],
            )
            tasks.append(task)
            argsets.append(args)
            target = tasks[step["target"] % len(tasks)]
            if step["sync"] == "poll":
                engine.poll(target)
            elif step["sync"] == "wait":
                engine.wait(target)
        engine.wait_all(tasks)
        engine.barrier()
        return snapshot(engine, tasks, argsets)


@st.composite
def scenarios(draw):
    """A short seeded program of submits and host-side sync points."""
    steps = draw(st.integers(min_value=2, max_value=5))
    plan = []
    for _ in range(steps):
        plan.append(
            {
                "units": draw(st.integers(min_value=4, max_value=48)),
                "trips": draw(st.integers(min_value=8, max_value=24)),
                "priority": draw(st.sampled_from(list(Priority))),
                "measure": draw(st.booleans()),
                "strided": draw(st.booleans()),
                "sync": draw(st.sampled_from(["none", "none", "poll", "wait"])),
                "target": draw(st.integers(min_value=0, max_value=steps - 1)),
            }
        )
    return plan


@chaos_seed
@settings(max_examples=25, deadline=None)
@given(
    plan=scenarios(),
    noisy=st.booleans(),
    root_seed=st.integers(min_value=0, max_value=2**20),
)
def test_scenarios_agree_across_all_paths(plan, noisy, root_seed):
    """Contended mixed-priority scenarios are path-invariant, exactly."""
    config = ReproConfig(seed=root_seed)
    if not noisy:
        config = config.without_noise()
    reference = run_scenario(config, plan, PATHS["event"])
    result = run_scenario(config, plan, PATHS["fast"])
    assert_snapshots_equal(reference, result, "fast")


@pytest.mark.parametrize("noisy", [False, True])
def test_deadline_waits_and_hang_cleanup_agree(noisy):
    """A hung task, deadline expiry, and cancel leave identical state."""
    config = ReproConfig(seed=7)
    if not noisy:
        config = config.without_noise()

    def run(threshold):
        with _ForcedPath(threshold):
            engine = ExecutionEngine(make_cpu(config), config)
            plan = FaultPlan(
                [FaultRule(kind=FaultKind.HANG, variant="hung")], seed=3
            )
            engine.injector = FaultInjector(plan)
            hung_variant = make_axpy_variant("hung", trips=16)
            good_variant = make_axpy_variant("good", trips=16)
            hung_args = make_axpy_args(24, config)
            good_args = make_axpy_args(24, config)
            hung = engine.submit(
                hung_variant, hung_args, WorkRange(0, 24), measure=True
            )
            good = engine.submit(
                good_variant,
                good_args,
                WorkRange(0, 24),
                priority=Priority.EAGER,
                measure=True,
            )
            finished = engine.wait_deadline(hung, deadline=engine.now + 5000.0)
            assert not finished
            engine.cancel(hung)
            engine.wait(good)
            engine.barrier()
            return snapshot(engine, [hung, good], [hung_args, good_args])

    reference = run(PATHS["event"])
    assert_snapshots_equal(reference, run(PATHS["fast"]), "fast")


@pytest.mark.parametrize("noisy", [False, True])
def test_latency_faults_agree(noisy):
    """Injected latency scaling perturbs both paths identically."""
    config = ReproConfig(seed=11)
    if not noisy:
        config = config.without_noise()
    plan = [
        {
            "units": 32,
            "trips": 16,
            "priority": Priority.BATCH,
            "measure": True,
            "strided": False,
            "sync": "none",
            "target": 0,
        }
    ] * 3

    def run(threshold):
        with _ForcedPath(threshold):
            engine = ExecutionEngine(make_cpu(config), config)
            engine.injector = FaultInjector(
                FaultPlan(
                    [
                        FaultRule(
                            kind=FaultKind.LATENCY,
                            magnitude=3.0,
                            after=1,
                            count=1,
                        )
                    ],
                    seed=5,
                )
            )
            tasks, argsets = [], []
            for step in plan:
                variant = make_axpy_variant("v", trips=step["trips"])
                args = make_axpy_args(step["units"], config)
                tasks.append(
                    engine.submit(
                        variant,
                        args,
                        WorkRange(0, step["units"]),
                        measure=True,
                    )
                )
                argsets.append(args)
            engine.wait_all(tasks)
            engine.barrier()
            return snapshot(engine, tasks, argsets)

    reference = run(PATHS["event"])
    assert_snapshots_equal(reference, run(PATHS["fast"]), "fast")


@pytest.mark.parametrize(
    "mode", [ProfilingMode.FULLY, ProfilingMode.HYBRID, ProfilingMode.SWAP]
)
@pytest.mark.parametrize(
    "flow", [OrchestrationFlow.SYNC, OrchestrationFlow.ASYNC]
)
def test_traced_launches_identical_and_reconcile(fast_slow_pool, mode, flow):
    """Full runtime launches emit identical, reconcile-clean traces.

    The trace is the richest observable the stack exposes — every host
    op, profile span, and selection decision with its cycle stamps — so
    identical event streams across paths subsume interval equality, and
    ``reconcile`` proves each stream is internally consistent too.
    """
    units = 192

    def run(threshold):
        with _ForcedPath(threshold):
            config = dataclasses.replace(ReproConfig(), trace=True)
            runtime = DySelRuntime(make_cpu(config), config)
            runtime.register_pool(fast_slow_pool)
            args = make_axpy_args(units, config)
            result = runtime.launch_kernel(
                "axpy", args, units, mode=mode, flow=flow
            )
            events = [
                (
                    event.kind,
                    event.name,
                    event.start_cycles,
                    event.end_cycles,
                    tuple(sorted((event.args or {}).items())),
                )
                for event in runtime.tracer.events
            ]
            problems = reconcile(
                runtime.tracer.events,
                elapsed_cycles=result.elapsed_cycles,
                workload_units=units,
            )
            return result, events, problems, np.array(
                args["y"].data, copy=True
            )

    ref_result, ref_events, ref_problems, ref_y = run(PATHS["event"])
    assert ref_problems == []
    result, events, problems, y = run(PATHS["fast"])
    assert problems == []
    assert events == ref_events
    assert result.elapsed_cycles == ref_result.elapsed_cycles
    assert result.selected == ref_result.selected
    assert np.array_equal(y, ref_y)


def test_forced_paths_engage(quiet_config):
    """Vacuity guard: the forcings exercise the machinery they claim to.

    Under the fast forcing the analytic drain must fire on an
    uncontended batch; under the event forcing it must not.
    """
    drained = []

    class Probe(ExecutionEngine):
        def _try_fast_batch(self, horizon):
            result = super()._try_fast_batch(horizon)
            if result:
                drained.append(True)
            return result

    def run(threshold):
        drained.clear()
        with _ForcedPath(threshold):
            variant = make_axpy_variant("v", trips=16)
            args = make_axpy_args(64, quiet_config)
            engine = Probe(make_cpu(quiet_config), quiet_config)
            engine.wait(
                engine.submit(variant, args, WorkRange(0, 64), measure=True)
            )
        return bool(drained)

    assert run(PATHS["fast"])
    assert not run(PATHS["event"])
