"""Runtime integration of dominance pruning (analyze → core).

The runtime always prunes statically hopeless variants from the
*profiling* candidate set before the first launch: the decision reason
records the exclusion, a ``DOMINANCE_PRUNE`` trace event is emitted, and
the winner is always a survivor.  The correctness pool is untouched —
pruned variants remain pinnable, verifiable, and runnable as an explicit
eager default.  ``AnalyzeSettings(dominance_margin=inf)`` prunes nothing.
"""

import dataclasses

import pytest

from repro.compiler.variants import VariantPool
from repro.config import AnalyzeSettings, ReproConfig
from repro.core import DySelRuntime
from repro.core.policy import LaunchIntent, SelectionCache, decide
from repro.device import make_cpu
from repro.kernel import KernelSpec
from repro.modes import OrchestrationFlow
from repro.obs.events import EventKind
from repro.workloads import sgemm
from tests.conftest import (
    axpy_output_ok,
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)

UNITS = 512


def dominance_config() -> ReproConfig:
    """Noise-free config with tracing enabled (pruning is always on)."""
    return dataclasses.replace(ReproConfig().without_noise(), trace=True)


def full_pool_config() -> ReproConfig:
    """``dominance_config`` that profiles every variant."""
    return dataclasses.replace(
        dominance_config(),
        analyze=AnalyzeSettings(dominance_margin=float("inf")),
    )


def spread_pool(*scales: float) -> VariantPool:
    """Variants whose static compute differs by the given factors."""
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=tuple(
            make_axpy_variant(
                f"v_x{scale:g}", flops_per_trip=4096.0 * scale
            )
            for scale in scales
        ),
    )


def make_runtime(config: ReproConfig, pool: VariantPool) -> DySelRuntime:
    runtime = DySelRuntime(make_cpu(config), config)
    runtime.register_pool(pool)
    return runtime


class TestPrunedProfiling:
    def test_profiled_launch_skips_dominated_variants(self):
        config = dominance_config()
        runtime = make_runtime(config, spread_pool(1.0, 1.1, 100.0))
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel("axpy", args, UNITS, profiling=True)
        assert result.profiled
        assert "statically dominated" in result.reason
        assert "'v_x100'" in result.reason
        assert result.selected in ("v_x1", "v_x1.1")
        assert axpy_output_ok(args)

    def test_prune_event_is_traced(self):
        config = dominance_config()
        runtime = make_runtime(config, spread_pool(1.0, 1.1, 100.0))
        runtime.launch_kernel(
            "axpy", make_axpy_args(UNITS, config), UNITS, profiling=True
        )
        prunes = [
            e
            for e in runtime.tracer.events
            if e.kind is EventKind.DOMINANCE_PRUNE
        ]
        assert len(prunes) == 1
        assert prunes[0].args["pruned"] == ["v_x100"]
        assert set(prunes[0].args["survivors"]) == {"v_x1", "v_x1.1"}
        assert prunes[0].args["margin"] == config.analyze.dominance_margin

    def test_single_survivor_skips_profiling_outright(self):
        config = dominance_config()
        runtime = make_runtime(config, spread_pool(1.0, 100.0, 200.0))
        result = runtime.launch_kernel(
            "axpy", make_axpy_args(UNITS, config), UNITS, profiling=True
        )
        assert not result.profiled
        assert result.selected == "v_x1"
        assert "profiling skipped" in result.reason
        assert "statically dominated" in result.reason

    def test_pruned_variant_stays_pinnable(self):
        # The correctness pool is untouched: serving can still pin a
        # dominated variant explicitly (profiling off).
        config = dominance_config()
        runtime = make_runtime(config, spread_pool(1.0, 1.1, 100.0))
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy",
            args,
            UNITS,
            profiling=LaunchIntent.replay("v_x100"),
        )
        assert result.selected == "v_x100"
        assert axpy_output_ok(args)

    def test_dominance_off_is_inert(self):
        config = full_pool_config()
        runtime = make_runtime(config, spread_pool(1.0, 1.1, 100.0))
        result = runtime.launch_kernel(
            "axpy", make_axpy_args(UNITS, config), UNITS, profiling=True
        )
        assert "statically dominated" not in result.reason
        assert not any(
            e.kind is EventKind.DOMINANCE_PRUNE
            for e in runtime.tracer.events
        )
        assert {m.variant for m in result.record.measurements} == {
            "v_x1", "v_x1.1", "v_x100"
        }

    def test_verdict_is_cached_per_pool(self):
        config = dominance_config()
        runtime = make_runtime(config, spread_pool(1.0, 1.1, 100.0))
        for _ in range(3):
            runtime.launch_kernel(
                "axpy", make_axpy_args(UNITS, config), UNITS, profiling=True
            )
        key = ("axpy", ("v_x1", "v_x1.1", "v_x100"))
        assert key in runtime._dominance_pools


class TestDecideWithDominated:
    def _decide(self, pool, dominated):
        return decide(
            pool,
            workload_units=UNITS,
            intent=LaunchIntent.profile(),
            cache=SelectionCache(),
            config=ReproConfig(),
            dominated=dominated,
        )

    def test_exclusions_are_recorded_in_the_reason(self):
        pool = spread_pool(1.0, 1.1, 100.0)
        decision = self._decide(pool, ("v_x100",))
        assert decision.profile
        assert "'v_x100' statically dominated" in decision.reason

    def test_single_survivor_short_circuits(self):
        pool = spread_pool(1.0, 100.0, 200.0)
        decision = self._decide(pool, ("v_x100", "v_x200"))
        assert not decision.profile
        assert decision.variant_name == "v_x1"
        assert "profiling skipped" in decision.reason

    def test_stale_dominated_names_are_ignored(self):
        pool = spread_pool(1.0, 1.1)
        decision = self._decide(pool, ("not-in-pool",))
        assert decision.profile
        assert "statically dominated" not in decision.reason


class TestSelectionQuality:
    @pytest.mark.parametrize("units", (256, 512))
    def test_pruning_never_changes_the_selection(self, units):
        base_config = full_pool_config()
        dom_config = dominance_config()
        scales = (1.0, 1.05, 1.2, 3.0, 10.0)
        base = make_runtime(base_config, spread_pool(*scales)).launch_kernel(
            "axpy", make_axpy_args(units, base_config), units, profiling=True
        )
        dom = make_runtime(dom_config, spread_pool(*scales)).launch_kernel(
            "axpy", make_axpy_args(units, dom_config), units, profiling=True
        )
        assert dom.selected == base.selected
        assert dom.profiling_latency_cycles < base.profiling_latency_cycles


class TestExplicitEagerDefault:
    """An explicit initial default the pass dominates still runs eagerly.

    The paper leaves the initial default to the compiler or programmer
    (§2.4); pruning only shrinks what gets micro-profiled.
    """

    @staticmethod
    def _spans(runtime, kind):
        return {e.name for e in runtime.tracer.events if e.kind is kind}

    def test_dominated_default_runs_eager_chunks(self):
        config = dominance_config()
        case = sgemm.schedule_case(256, config)
        requested = "base,k>wi_j>wi_i(BFO)"
        runtime = make_runtime(config, case.pool)
        args = case.make_args()
        result = runtime.launch_kernel(
            case.pool.name,
            args,
            case.workload_units,
            flow=OrchestrationFlow.ASYNC,
            initial_variant=requested,
        )
        assert result.profiled and result.eager_chunks > 0
        prune = next(
            e
            for e in runtime.tracer.events
            if e.kind is EventKind.DOMINANCE_PRUNE
        )
        assert requested in prune.args["pruned"]
        assert self._spans(runtime, EventKind.EAGER_CHUNK) == {requested}
        assert self._spans(runtime, EventKind.PROFILE_SPAN) == set(
            prune.args["survivors"]
        )
        assert {m.variant for m in result.record.measurements} == set(
            prune.args["survivors"]
        )
        assert case.check(args)

    def test_misaligned_dominated_default_falls_back_with_a_note(self):
        # The survivors' profiling slices end on a multiple of 2 units;
        # a dominated wa_factor-3 default cannot start its work-groups
        # there, so the eager chunks run the survivors' default instead.
        config = dominance_config()
        pool = VariantPool(
            spec=KernelSpec(signature=axpy_signature()),
            variants=(
                make_axpy_variant("fast", wa_factor=2, flops_per_trip=4096.0),
                make_axpy_variant(
                    "close", wa_factor=2, flops_per_trip=4096.0 * 1.1
                ),
                make_axpy_variant(
                    "slow", wa_factor=3, flops_per_trip=4096.0 * 100
                ),
            ),
        )
        runtime = make_runtime(config, pool)
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy", args, UNITS, initial_variant="slow"
        )
        assert "initial variant 'slow' is statically dominated" in (
            result.reason
        )
        assert self._spans(runtime, EventKind.EAGER_CHUNK) == {"fast"}
        assert axpy_output_ok(args)
