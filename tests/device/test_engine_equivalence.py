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

A second arm holds the idle-poll shortcuts (the idle frontier and the
fast-forwarded poll round) to the same standard: asynchronous launches
on the engine must match a reference engine that looks at every
advance and polls one round per call.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

from repro.compiler.analyses.safe_point import safe_point_plan  # noqa: E402
from repro.compiler.variants import VariantPool  # noqa: E402
from repro.config import FaultPolicy, ReproConfig  # noqa: E402
from repro.core.orchestrator import run_async  # noqa: E402
from repro.core.productive import plan_profiling  # noqa: E402
from repro.core.runtime import DySelRuntime  # noqa: E402
from repro.device import engine as engine_mod  # noqa: E402
from repro.device import make_cpu, make_gpu  # noqa: E402
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.errors import EngineError, ProfilingFaultError  # noqa: E402
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule  # noqa: E402
from repro.kernel import AccessPattern, KernelSpec, WorkRange  # noqa: E402
from repro.kernel.launch import LaunchConfig  # noqa: E402
from repro.modes import OrchestrationFlow, ProfilingMode  # noqa: E402
from repro.obs import reconcile  # noqa: E402
from repro.obs.events import EventKind  # noqa: E402
from tests.conftest import (  # noqa: E402
    axpy_signature,
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


# ----------------------------------------------------------------------
# Idle polls: the frontier and the fast-forwarded round are exact
# ----------------------------------------------------------------------


class _Recorded(ExecutionEngine):
    """The engine as shipped, keeping every submitted task for snapshots."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tasks = []
        self.advances = 0

    def submit(self, *args, **kwargs):
        task = super().submit(*args, **kwargs)
        self.tasks.append(task)
        return task

    def _advance_to(self, horizon, stop_task=None):
        self.advances += 1
        return super()._advance_to(horizon, stop_task)


class _Reference(_Recorded):
    """The engine with both idle shortcuts off.

    Every advance forgets the frontier and looks, and every ``poll``
    call is one round: the caller loops over idle rounds itself, as
    ``run_async`` did before the engine fast-forwarded them.
    """

    def _advance_to(self, horizon, stop_task=None):
        self._idle_until = -math.inf
        return super()._advance_to(horizon, stop_task)

    def poll(self, tasks, watch=(), deadline=None):
        return super().poll(tasks, watch)


def run_async_launch(engine_cls, scenario):
    """One traced ``run_async`` launch; returns (observables, engine)."""
    config = ReproConfig(
        seed=scenario["seed"],
        trace=True,
        eager_chunk_units=scenario["chunk"],
        faults=FaultPolicy(hang_deadline_cycles=scenario["hang_deadline"]),
    )
    if not scenario["noisy"]:
        config = config.without_noise()
    device = (make_gpu if scenario["gpu"] else make_cpu)(config)
    engine = engine_cls(device, config)
    fault = scenario["fault"]
    if fault is not None:
        kind, variant = fault
        engine.injector = FaultInjector(
            FaultPlan(
                [FaultRule(kind=kind, variant=variant, magnitude=4.0)],
                seed=scenario["seed"],
            )
        )
    pool = VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=tuple(
            make_axpy_variant(
                f"v{index}",
                AccessPattern.STRIDED if strided else AccessPattern.UNIT_STRIDE,
                trips=trips,
            )
            for index, (strided, trips) in enumerate(scenario["variants"])
        ),
    )
    units = scenario["units"]
    args = make_axpy_args(units, config)
    launch = LaunchConfig.create(axpy_signature(), args, units)
    plan = plan_profiling(
        pool,
        scenario["mode"],
        launch,
        safe_point_plan(pool.variants, device.spec.compute_units, units),
    )
    try:
        outcome = run_async(engine, pool, plan, launch, config)
    except ProfilingFaultError as exc:
        # A short hang deadline can fault every candidate of a batch;
        # the failure itself is an observable both engines must share.
        outcome = (str(exc), exc.faults)
    polls = [
        (event.start_cycles, event.args["task_id"], event.args["finished"])
        for event in engine.tracer.events
        if event.kind is EventKind.HOST_POLL
    ]
    observed = {
        "now": engine.now,
        "unit_heap": sorted(engine._unit_heap),
        "busy": engine._busy_cycles,
        "clock_rng": engine.clock._rng.bit_generator.state,
        "tasks": [
            (
                task.task_id,
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                task.cancelled,
                None
                if task.measured is None
                else (task.measured.true_cycles, task.measured.measured_cycles),
            )
            for task in engine.tasks
        ],
        "outcome": outcome,
        "polls": polls,
        "output": np.array(args["y"].data, copy=True),
    }
    return observed, engine


def assert_async_launches_equal(reference, other):
    """Exact equality of two ``run_async_launch`` observations."""
    for key in ("now", "unit_heap", "busy", "clock_rng", "tasks", "outcome"):
        assert reference[key] == other[key], key
    assert len(reference["polls"]) == len(other["polls"])
    assert reference["polls"] == other["polls"]
    assert np.array_equal(reference["output"], other["output"])


@st.composite
def async_scenarios(draw):
    """A seeded ``run_async`` launch: device, pool, pipeline, faults."""
    variants = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=8, max_value=48)),
            min_size=2,
            max_size=4,
        )
    )
    fault = draw(
        st.sampled_from(
            [
                None,
                (FaultKind.LATENCY, "v0"),
                (FaultKind.LATENCY, "v1"),
                (FaultKind.HANG, "v1"),
                (FaultKind.HANG, None),
            ]
        )
    )
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**20)),
        "gpu": draw(st.booleans()),
        "noisy": draw(st.booleans()),
        # 1 keeps the eager pipeline saturated (small chunks, two in
        # flight); 64 exhausts the remainder within a few chunks.
        "chunk": draw(st.sampled_from([1, 2, 64])),
        "units": draw(st.sampled_from([256, 1024, 4096])),
        "mode": draw(
            st.sampled_from([ProfilingMode.FULLY, ProfilingMode.HYBRID])
        ),
        "variants": variants,
        "fault": fault,
        "hang_deadline": draw(
            st.sampled_from([20_000.0, 150_000.0, 1_000_000.0])
        ),
    }


@chaos_seed
@settings(max_examples=40, deadline=None)
@given(scenario=async_scenarios())
def test_idle_polls_match_reference_engine(scenario):
    """Fast-forwarded async launches equal poll-by-poll ones, exactly."""
    reference, _ = run_async_launch(_Reference, scenario)
    result, _ = run_async_launch(_Recorded, scenario)
    assert_async_launches_equal(reference, result)


@pytest.mark.parametrize("gpu", [False, True])
def test_hang_deadline_inside_skipped_window(gpu):
    """A hang's deadline lands in a fast-forward; both engines agree.

    Vacuity guard: the engine must skip most polls (far fewer advances
    than ``HOST_POLL`` events), and the reference must not skip any.
    """
    scenario = {
        "seed": 5,
        "gpu": gpu,
        "noisy": True,
        "chunk": 64,
        "units": 1024,
        "mode": ProfilingMode.FULLY,
        "variants": [(False, 16), (True, 16)],
        "fault": (FaultKind.HANG, "v1"),
        "hang_deadline": 1_000_000.0,
    }
    reference, reference_engine = run_async_launch(_Reference, scenario)
    result, engine = run_async_launch(_Recorded, scenario)
    assert_async_launches_equal(reference, result)
    assert [fault.kind for fault in result["outcome"].faults] == ["hang"]
    polls = len(result["polls"])
    assert reference_engine.advances >= polls
    assert engine.advances * 4 < polls


def test_stuck_poll_round_raises():
    """Nothing queued, nothing finished, no deadline: raise, never spin."""
    config = ReproConfig(seed=3)
    engine = ExecutionEngine(make_cpu(config), config)
    engine.injector = FaultInjector(
        FaultPlan([FaultRule(kind=FaultKind.HANG, variant="hung")], seed=3)
    )
    args = make_axpy_args(16, config)
    hung = engine.submit(make_axpy_variant("hung"), args, WorkRange(0, 16))
    assert engine.poll([hung]) == [False]
    with pytest.raises(EngineError, match="stuck"):
        engine.poll([hung], deadline=math.inf)


def test_zero_latency_idle_round_raises():
    """Idle rounds that cannot move the clock raise instead of spinning."""
    config = ReproConfig(seed=3)
    device = make_cpu(config)
    device.spec = dataclasses.replace(device.spec, host_query_latency=0.0)
    engine = ExecutionEngine(device, config)
    args = make_axpy_args(16, config)
    task = engine.submit(make_axpy_variant("v"), args, WorkRange(0, 16))
    with pytest.raises(EngineError, match="stuck"):
        engine.poll([task], deadline=engine.now + 10_000.0)


def test_stuck_async_launch_raises():
    """An unbounded hang deadline turns a hung async profile into an error."""
    scenario = {
        "seed": 1,
        "gpu": False,
        "noisy": False,
        "chunk": 64,
        "units": 512,
        "mode": ProfilingMode.FULLY,
        "variants": [(False, 16), (True, 16)],
        "fault": (FaultKind.HANG, "v1"),
        "hang_deadline": math.inf,
    }
    with pytest.raises(EngineError, match="stuck"):
        run_async_launch(_Recorded, scenario)


def test_frontier_after_stop_task_return_never_skips_dispatch(quiet_config):
    """A ``stop_task`` return leaves no frontier that hides queued work.

    The deadline wait on ``first`` stops right after the work-group that
    finishes it, far below its deadline, with ``second`` still queued.
    The polls that follow (all below that deadline) must dispatch
    ``second`` exactly as the reference engine does.
    """

    def run(engine_cls):
        engine = engine_cls(make_cpu(quiet_config), quiet_config)
        args = make_axpy_args(64, quiet_config)
        first = engine.submit(
            make_axpy_variant("a"), args, WorkRange(0, 32),
            priority=Priority.PROFILING,
        )
        second = engine.submit(
            make_axpy_variant("b"), args, WorkRange(32, 64),
            priority=Priority.BATCH,
        )
        deadline = engine.now + 1e9
        assert engine.wait_deadline(first, deadline)
        assert engine._idle_until == -math.inf
        assert second.completed_work_groups < second.total_work_groups
        trail = []
        while not engine.poll(second):
            trail.append((engine.now, second.completed_work_groups))
        assert engine.now < deadline
        return trail, engine.now, second.last_end

    expected = run(_Reference)
    assert len(expected[0]) > 1
    assert run(_Recorded) == expected


def test_frontier_is_exactly_the_next_start(quiet_config):
    """An advance to just before the next start refuses; to it, dispatches.

    Pins the frontier to the instant itself on both refusal branches
    (nothing arrived yet, every unit busy), so a frontier recorded even
    slightly late — which would skip a dispatch — fails here.
    """
    engine = ExecutionEngine(make_cpu(quiet_config), quiet_config)
    args = make_axpy_args(64, quiet_config)
    task = engine.submit(make_axpy_variant("v"), args, WorkRange(0, 64))
    assert not engine._advance_to(engine.now)
    for _ in range(3):
        start = max(
            min(free for free, _ in engine._unit_heap), task.arrival_time
        )
        done = task.completed_work_groups
        assert not engine._advance_to(math.nextafter(start, -math.inf))
        assert task.completed_work_groups == done
        assert engine._advance_to(start)
        assert task.completed_work_groups > done
