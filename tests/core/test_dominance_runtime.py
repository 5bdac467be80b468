"""Runtime integration of dominance pruning (analyze → core).

With ``analyze.dominance`` on, the runtime statically prunes hopeless
variants from the *profiling* candidate set before the first launch: the
decision reason records the exclusion, a ``DOMINANCE_PRUNE`` trace event
is emitted, and the winner is always a survivor.  The correctness pool
is untouched — pruned variants remain pinnable and verifiable.
"""

import dataclasses

import pytest

from repro.compiler.variants import VariantPool
from repro.config import AnalyzeSettings, ReproConfig
from repro.core import DySelRuntime
from repro.core.policy import LaunchIntent, SelectionCache, decide
from repro.device import make_cpu
from repro.kernel import KernelSpec
from repro.obs.events import EventKind
from tests.conftest import (
    axpy_output_ok,
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)

UNITS = 512


def dominance_config() -> ReproConfig:
    """Noise-free config with pruning and tracing enabled."""
    return dataclasses.replace(
        ReproConfig().without_noise(),
        analyze=AnalyzeSettings(dominance=True),
        trace=True,
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
        config = dataclasses.replace(
            ReproConfig().without_noise(), trace=True
        )
        runtime = make_runtime(config, spread_pool(1.0, 1.1, 100.0))
        result = runtime.launch_kernel(
            "axpy", make_axpy_args(UNITS, config), UNITS, profiling=True
        )
        assert "statically dominated" not in result.reason
        assert not any(
            e.kind is EventKind.DOMINANCE_PRUNE
            for e in runtime.tracer.events
        )

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
        base_config = dataclasses.replace(
            ReproConfig().without_noise(),
            analyze=AnalyzeSettings(dominance=False),
        )
        dom_config = dataclasses.replace(
            base_config, analyze=AnalyzeSettings(dominance=True)
        )
        scales = (1.0, 1.05, 1.2, 3.0, 10.0)
        base = make_runtime(base_config, spread_pool(*scales)).launch_kernel(
            "axpy", make_axpy_args(units, base_config), units, profiling=True
        )
        dom = make_runtime(dom_config, spread_pool(*scales)).launch_kernel(
            "axpy", make_axpy_args(units, dom_config), units, profiling=True
        )
        assert dom.selected == base.selected
        assert dom.profiling_latency_cycles < base.profiling_latency_cycles
