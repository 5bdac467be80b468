"""Unit tests for the discrete-event execution engine."""

import numpy as np
import pytest

from repro.device import engine as engine_mod
from repro.device.engine import ExecutionEngine, Priority
from repro.errors import EngineError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.kernel import AccessPattern, WorkRange
from tests.conftest import (
    AXPY_UNIT,
    axpy_output_ok,
    make_axpy_args,
    make_axpy_variant,
)


class TestBasicExecution:
    def test_submit_and_wait(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(32, config)
        task = engine.submit(variant, args, WorkRange(0, 32), measure=True)
        end = engine.wait(task)
        assert task.finished
        assert end > 0
        assert engine.now >= end
        assert axpy_output_ok(args)

    def test_functional_execution_at_submit(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(4, config)
        engine.submit(variant, args, WorkRange(0, 4))
        # Output is already written even before simulation advances.
        assert axpy_output_ok(args)

    def test_zero_work_task_completes_immediately(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(2, config)
        task = engine.submit(variant, args, WorkRange(1, 1))
        assert task.finished
        assert task.true_span_cycles == 0.0

    def test_launch_overhead_charged(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        before = engine.now
        variant = make_axpy_variant("v")
        args = make_axpy_args(1, config)
        task = engine.submit(variant, args, WorkRange(0, 1))
        assert engine.now > before  # host share
        assert task.arrival_time > engine.now  # device share still pending
        assert engine.launch_count == 1

    def test_unfinished_span_raises(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(8, config)
        task = engine.submit(variant, args, WorkRange(0, 8))
        with pytest.raises(EngineError):
            _ = task.true_span_cycles


class TestConcurrency:
    def test_parallel_speedup(self, cpu, config):
        """N units across 4 cores must beat serial by ~4x."""
        variant = make_axpy_variant("v", trips=200)
        args = make_axpy_args(64, config)

        engine = ExecutionEngine(cpu, config)
        task = engine.submit(variant, args, WorkRange(0, 64))
        engine.wait(task)
        parallel_span = task.true_span_cycles

        from repro.device.cost import CostModel

        serial = CostModel(cpu).launch_cycles(variant, args, WorkRange(0, 64))
        assert parallel_span < serial / 3.0
        assert parallel_span > serial / 4.5

    def test_utilization_high_for_saturating_batch(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=100)
        args = make_axpy_args(64, config)
        engine.wait(engine.submit(variant, args, WorkRange(0, 64)))
        assert engine.utilization() > 0.8


class TestPriorities:
    def test_profiling_preempts_queued_batch_work(self, cpu, config):
        """A profiling task submitted after a long batch still gets units
        as they free up, ahead of remaining batch work."""
        engine = ExecutionEngine(cpu, config)
        slow = make_axpy_variant("slow", AccessPattern.STRIDED, trips=500)
        fast = make_axpy_variant("fast", trips=10)
        args = make_axpy_args(64, config)

        batch = engine.submit(slow, args, WorkRange(0, 60), priority=Priority.BATCH)
        profile = engine.submit(
            fast, args, WorkRange(60, 64), priority=Priority.PROFILING, measure=True
        )
        engine.wait(profile)
        engine.wait(batch)
        # The profiling task must finish well before the batch does.
        assert profile.last_end < batch.last_end

    def test_fifo_within_priority(self, cpu, quiet_config):
        engine = ExecutionEngine(cpu, quiet_config)
        variant = make_axpy_variant("v", trips=100)
        args = make_axpy_args(16, quiet_config)
        first = engine.submit(variant, args, WorkRange(0, 8))
        second = engine.submit(variant, args, WorkRange(8, 16))
        engine.wait_all([first, second])
        assert first.first_start <= second.first_start


class TestPolling:
    def test_poll_costs_query_latency(self, gpu, config):
        engine = ExecutionEngine(gpu, config)
        variant = make_axpy_variant("v", trips=2000)
        args = make_axpy_args(128, config)
        task = engine.submit(variant, args, WorkRange(0, 128))
        before = engine.now
        done = engine.poll(task)
        assert engine.now == pytest.approx(
            before + gpu.spec.host_query_latency
        )
        assert not done

    def test_poll_eventually_true(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=10)
        args = make_axpy_args(4, config)
        task = engine.submit(variant, args, WorkRange(0, 4))
        for _ in range(100000):
            if engine.poll(task):
                break
        else:
            pytest.fail("task never completed")
        assert task.finished


class TestMeasurement:
    def test_measured_interval_close_to_true(self, cpu, quiet_config):
        engine = ExecutionEngine(cpu, quiet_config)
        variant = make_axpy_variant("v", trips=100)
        args = make_axpy_args(16, quiet_config)
        task = engine.submit(variant, args, WorkRange(0, 16), measure=True)
        engine.wait(task)
        assert task.measured is not None
        assert task.measured.measured_cycles == pytest.approx(
            task.true_span_cycles, rel=1e-6
        )

    def test_unmeasured_task_has_no_interval(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(4, config)
        task = engine.submit(variant, args, WorkRange(0, 4))
        engine.wait(task)
        assert task.measured is None


class TestFastBatch:
    def test_fast_batch_matches_event_path_roughly(
        self, cpu, quiet_config, monkeypatch
    ):
        """The analytic makespan must track the event-driven one."""
        variant = make_axpy_variant("v", trips=50)
        # Large enough that the split's second launch overhead stays
        # inside the tolerance.
        units = 4196
        args = make_axpy_args(units, quiet_config)

        fast_engine = ExecutionEngine(cpu, quiet_config)
        task = fast_engine.submit(variant, args, WorkRange(0, units))
        fast_engine.wait(task)
        fast_span = task.true_span_cycles

        # Split into two halves on the event path.
        monkeypatch.setattr(engine_mod, "FAST_BATCH_THRESHOLD", 10**9)
        slow_engine = ExecutionEngine(cpu, quiet_config)
        first = slow_engine.submit(variant, args, WorkRange(0, units // 2))
        slow_engine.wait(first)
        second = slow_engine.submit(variant, args, WorkRange(units // 2, units))
        slow_engine.wait(second)
        event_span = second.last_end - first.first_start

        assert fast_span == pytest.approx(event_span, rel=0.05)


class TestBarrier:
    def test_barrier_drains_everything(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=50)
        args = make_axpy_args(32, config)
        tasks = [
            engine.submit(variant, args, WorkRange(i * 8, (i + 1) * 8))
            for i in range(4)
        ]
        engine.barrier()
        assert all(task.finished for task in tasks)

    def test_host_compute_advances_clock(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        before = engine.now
        engine.host_compute(500.0)
        assert engine.now == before + 500.0
        with pytest.raises(EngineError):
            engine.host_compute(-1.0)


class TestUnboundedDeadlineWait:
    def hung_task(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        engine.injector = FaultInjector(
            FaultPlan([FaultRule(kind=FaultKind.HANG, variant="hung")])
        )
        args = make_axpy_args(32, config)
        task = engine.submit(make_axpy_variant("hung"), args, WorkRange(0, 32))
        assert task.hung
        return engine, task

    def test_stuck_task_raises_like_wait(self, cpu, config):
        engine, task = self.hung_task(cpu, config)
        before = engine.now
        with pytest.raises(EngineError, match="engine is stuck"):
            engine.wait_deadline(task, float("inf"))
        assert engine.now == before

    def test_finishing_task_matches_wait(self, cpu, config):
        variant = make_axpy_variant("v", trips=50)
        clocks = []
        for unbounded in (False, True):
            engine = ExecutionEngine(cpu, config)
            args = make_axpy_args(32, config)
            task = engine.submit(variant, args, WorkRange(0, 32), measure=True)
            if unbounded:
                assert engine.wait_deadline(task, float("inf"))
            else:
                engine.wait(task)
            clocks.append((engine.now, task.last_end))
        assert clocks[0] == clocks[1]
