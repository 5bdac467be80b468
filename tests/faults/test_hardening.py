"""Runtime hardening under injected faults: retry, repair, quarantine,
degradation — including the acceptance scenario (crash the profiled
winner + corrupt a sibling in a hybrid launch, output stays
bit-identical)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.compiler.variants import VariantPool
from repro.config import FaultPolicy, ReproConfig
from repro.core.runtime import DySelRuntime, ProfilingDemotionWarning
from repro.device import make_cpu
from repro.errors import LaunchAbortedError
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.kernel import AccessPattern, KernelSpec
from repro.modes import OrchestrationFlow, ProfilingMode
from repro.obs.events import EventKind
from repro.obs.export import reconcile
from repro.serve import SelectionStore

from tests.conftest import (
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)

UNITS = 256


def three_pool(mode=None):
    """fast < mid < slow by construction, shared functional semantics."""
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=(
            make_axpy_variant("fast", AccessPattern.UNIT_STRIDE),
            make_axpy_variant("mid", AccessPattern.STRIDED, stride_bytes=32),
            make_axpy_variant("slow", AccessPattern.STRIDED, stride_bytes=128),
        ),
        mode=mode,
    )


def make_runtime(rules, seed=0, threshold=2, trace=True, pool=None):
    config = replace(
        ReproConfig(),
        trace=trace,
        faults=FaultPolicy(quarantine_threshold=threshold),
    )
    runtime = DySelRuntime(make_cpu(config), config)
    runtime.register_pool(pool if pool is not None else three_pool())
    if rules is not None:
        runtime.install_faults(FaultPlan(rules, seed=seed))
    return runtime, config


def launch(runtime, config, flow=OrchestrationFlow.SYNC, mode=None, units=UNITS):
    args = make_axpy_args(units, config)
    result = runtime.launch_kernel(
        "axpy", args, units, mode=mode, flow=flow
    )
    return result, args


def assert_bit_identical(args):
    assert np.array_equal(args["y"].data, 2.0 * args["x"].data)


def event_kinds(runtime):
    return [e.kind for e in runtime.tracer.events]


class TestAcceptanceScenario:
    """ISSUE acceptance: crash the winner, corrupt a sibling, hybrid."""

    @pytest.mark.parametrize(
        "flow", [OrchestrationFlow.SYNC, OrchestrationFlow.ASYNC]
    )
    def test_hybrid_launch_survives_crash_plus_corruption(self, flow):
        # Reference: the same launch with no faults selects 'fast'.
        clean_rt, config = make_runtime(None)
        clean_result, clean_args = launch(
            clean_rt, config, flow=flow, mode=ProfilingMode.HYBRID
        )
        assert clean_result.selected == "fast"
        assert_bit_identical(clean_args)

        runtime, config = make_runtime(
            [
                FaultRule(FaultKind.CRASH, variant="fast"),
                FaultRule(FaultKind.CORRUPT, variant="mid"),
            ],
            threshold=1,
        )
        result, args = launch(
            runtime, config, flow=flow, mode=ProfilingMode.HYBRID
        )
        # The survivor wins and the committed output is bit-identical to
        # the no-fault reference (every committed element is 2*x).
        assert result.selected == "slow"
        assert_bit_identical(args)
        assert np.array_equal(args["y"].data, clean_args["y"].data)

        kinds = event_kinds(runtime)
        assert kinds.count(EventKind.FAULT_INJECT) >= 2
        assert EventKind.VARIANT_QUARANTINE in kinds
        assert runtime.quarantine.is_quarantined("axpy", "mid")
        assert runtime.quarantine.is_quarantined("axpy", "fast")
        # The chaos run's trace still reconciles: begin/end pair, spans
        # in-window, and unit accounting adds up despite the repairs.
        assert reconcile(runtime.tracer.events) == []

    def test_quarantine_ledger_persists_through_store(self, tmp_path):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CORRUPT, variant="mid")], threshold=1
        )
        store = SelectionStore()
        store.quarantine.policy = config.faults
        runtime.quarantine = store.quarantine
        launch(runtime, config, mode=ProfilingMode.HYBRID)
        assert store.quarantine.is_quarantined("axpy", "mid")

        path = str(tmp_path / "store.json")
        store.save(path)
        restored = SelectionStore.load(path)
        restored.quarantine.policy = config.faults
        assert restored.quarantine.is_quarantined("axpy", "mid")


class TestTransientRetry:
    def test_transient_faults_are_retried_to_success(self):
        # Two transients on 'fast', then clean: within the default retry
        # budget, so the launch completes with no permanent fault.
        runtime, config = make_runtime(
            [FaultRule(FaultKind.TRANSIENT, variant="fast", count=2)]
        )
        result, args = launch(runtime, config)
        assert_bit_identical(args)
        kinds = event_kinds(runtime)
        assert kinds.count(EventKind.FAULT_RETRY) == 2
        assert not runtime.quarantine.quarantined("axpy")

    def test_exhausted_retries_become_permanent_fault(self):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.TRANSIENT, variant="fast", count=None)],
            threshold=1,
        )
        result, args = launch(runtime, config)
        assert result.selected != "fast"
        assert_bit_identical(args)
        assert runtime.quarantine.is_quarantined("axpy", "fast")

    def test_backoff_cycles_cap(self):
        policy = FaultPolicy(backoff_base_cycles=100.0, backoff_cap_cycles=350.0)
        assert policy.backoff_cycles(1) == 100.0
        assert policy.backoff_cycles(2) == 200.0
        assert policy.backoff_cycles(3) == 350.0  # capped


class TestHangs:
    @pytest.mark.parametrize(
        "flow", [OrchestrationFlow.SYNC, OrchestrationFlow.ASYNC]
    )
    def test_hung_candidate_is_cancelled_and_repaired(self, flow):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.HANG, variant="mid")], threshold=1
        )
        result, args = launch(runtime, config, flow=flow)
        assert result.selected != "mid"
        assert_bit_identical(args)
        kinds = event_kinds(runtime)
        assert EventKind.TASK_CANCEL in kinds
        assert runtime.quarantine.is_quarantined("axpy", "mid")
        assert reconcile(runtime.tracer.events) == []


class TestDegradationLadder:
    def test_all_candidates_faulting_degrades_to_batch(self):
        # Every profiling submission crashes (3 candidates), then the
        # rule is exhausted: the degraded batch run completes cleanly.
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CRASH, count=3)]
        )
        with pytest.warns(ProfilingDemotionWarning):
            result, args = launch(runtime, config)
        assert not result.profiled
        assert_bit_identical(args)
        assert EventKind.LAUNCH_DEGRADED in event_kinds(runtime)

    def test_unrunnable_launch_aborts(self):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CRASH, count=None)], threshold=1
        )
        with pytest.raises(LaunchAbortedError) as excinfo:
            launch(runtime, config)
        assert excinfo.value.kernel == "axpy"

    def test_fully_quarantined_pool_aborts_next_launch(self):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CRASH, count=None)], threshold=1
        )
        with pytest.raises(LaunchAbortedError):
            launch(runtime, config)
        # Every variant is now quarantined: the next launch aborts
        # before touching the device.
        with pytest.raises(LaunchAbortedError):
            launch(runtime, config)

    def test_quarantined_variant_filtered_from_next_launch(self):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CRASH, variant="fast", count=1)],
            threshold=1,
        )
        first, args1 = launch(runtime, config)
        assert first.selected != "fast"
        assert_bit_identical(args1)
        assert runtime.quarantine.is_quarantined("axpy", "fast")
        second, args2 = launch(runtime, config)
        assert second.selected != "fast"
        assert_bit_identical(args2)

    def test_profiling_off_batch_falls_back_over_faulty_default(self):
        pool = three_pool()
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CRASH, variant="fast", count=1)],
            pool=pool,
        )
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy", args, UNITS, profiling=False
        )
        # Pool default 'fast' crashed; the fallback chain completed the
        # whole batch with a sibling.
        assert result.selected != "fast"
        assert_bit_identical(args)


class TestNoInjectorIsInert:
    def test_empty_plan_matches_no_injector(self):
        # Every launch runs the hardened flows; an injector that never
        # fires must leave selection, timing and outputs untouched.
        probe, _ = make_runtime(None)
        report = probe.verifier.verify(
            three_pool(),
            compute_units=probe.device.spec.compute_units,
            device_kind=probe.device.kind,
            settings=probe.config.analyze,
        )
        combos = report.legal_combos()
        assert len(combos) >= 4
        for mode, flow in combos:
            runs = []
            for rules in (None, []):
                runtime, config = make_runtime(rules, trace=False)
                result, args = launch(runtime, config, flow=flow, mode=mode)
                assert result.profiled
                assert (result.mode, result.flow) == (mode, flow)
                measured = [
                    (m.variant, m.measured_cycles)
                    for m in result.record.measurements
                ]
                runs.append(
                    (result.selected, result.elapsed_cycles, measured, args)
                )
            clean, armed = runs
            # Selected variant, elapsed cycles, per-candidate measurements.
            assert clean[:3] == armed[:3], (mode, flow)
            assert np.array_equal(clean[3]["y"].data, armed[3]["y"].data)
            assert_bit_identical(armed[3])

    def test_clear_faults_restores_clean_runs(self):
        runtime, config = make_runtime(
            [FaultRule(FaultKind.CRASH, count=None)]
        )
        runtime.clear_faults()
        result, args = launch(runtime, config)
        assert result.profiled
        assert_bit_identical(args)
        kinds = event_kinds(runtime)
        assert EventKind.FAULT_INJECT not in kinds
        assert reconcile(runtime.tracer.events) == []
