"""Unit tests for the launch-time profiling policy."""

from repro.core import policy
from repro.core.policy import LaunchIntent
from repro.core.selection import (
    SelectionCache,
    SelectionRecord,
    VariantMeasurement,
)
from repro.modes import OrchestrationFlow, ProfilingMode

#: The paper's activation flag, on and off.
ON = LaunchIntent.profile()
OFF = LaunchIntent.replay()


def cached(kernel="axpy", selected="slow"):
    cache = SelectionCache()
    record = SelectionRecord(
        kernel=kernel, mode=ProfilingMode.FULLY, flow=OrchestrationFlow.SYNC
    )
    record.observe(
        VariantMeasurement(
            variant=selected, measured_cycles=10.0, profiled_units=4, productive=True
        )
    )
    cache.record(record)
    return cache


class TestDecide:
    def test_profiles_large_workload(self, fast_slow_pool, config):
        decision = policy.decide(
            fast_slow_pool, 100000, ON, SelectionCache(), config
        )
        assert decision.profile

    def test_small_workload_deactivates(self, fast_slow_pool, config):
        decision = policy.decide(fast_slow_pool, 16, ON, SelectionCache(), config)
        assert not decision.profile
        assert decision.variant_name == "fast"  # pool default
        assert "small workload" in decision.reason

    def test_small_workload_uses_cache_if_present(self, fast_slow_pool, config):
        decision = policy.decide(fast_slow_pool, 16, ON, cached(), config)
        assert not decision.profile
        assert decision.variant_name == "slow"

    def test_flag_off_uses_cached_selection(self, fast_slow_pool, config):
        decision = policy.decide(fast_slow_pool, 100000, OFF, cached(), config)
        assert not decision.profile
        assert decision.variant_name == "slow"

    def test_flag_off_without_cache_uses_default(self, fast_slow_pool, config):
        decision = policy.decide(
            fast_slow_pool, 100000, OFF, SelectionCache(), config
        )
        assert not decision.profile
        assert decision.variant_name == "fast"

    def test_reprofiling_allowed_with_cache(self, fast_slow_pool, config):
        """An explicit profiling=True re-profiles even with a cache entry
        (how callers handle changed inputs)."""
        decision = policy.decide(fast_slow_pool, 100000, ON, cached(), config)
        assert decision.profile

    def test_single_variant_never_profiles(self, axpy_spec, config):
        from repro.compiler.variants import VariantPool
        from tests.conftest import make_axpy_variant

        pool = VariantPool(spec=axpy_spec, variants=(make_axpy_variant("only"),))
        decision = policy.decide(pool, 100000, ON, SelectionCache(), config)
        assert not decision.profile
        assert decision.variant_name == "only"

    def test_stale_cached_variant_falls_back_to_default(
        self, fast_slow_pool, config
    ):
        """Regression: a cached winner that no longer names a pool variant
        must not launch — fall back to the default, with the reason."""
        cache = cached(selected="removed-by-reregistration")
        decision = policy.decide(fast_slow_pool, 100000, OFF, cache, config)
        assert not decision.profile
        assert decision.variant_name == "fast"  # pool default
        assert "not in the current pool" in decision.reason
        # The stale entry is evicted, not merely ignored.
        assert cache.lookup("axpy") is None

    def test_stale_cache_small_workload_uses_default(
        self, fast_slow_pool, config
    ):
        cache = cached(selected="gone")
        decision = policy.decide(fast_slow_pool, 16, ON, cache, config)
        assert not decision.profile
        assert decision.variant_name == "fast"
        assert cache.lookup("axpy") is None

    def test_stale_cache_emits_invalidate_event(self, fast_slow_pool, config):
        from repro.obs import EventKind, RecordingTracer

        tracer = RecordingTracer()
        cache = cached(selected="gone")
        policy.decide(
            fast_slow_pool, 100000, OFF, cache, config, tracer, 7.0
        )
        (event,) = [
            e for e in tracer.events if e.kind is EventKind.CACHE_INVALIDATE
        ]
        assert event.args["stale_variant"] == "gone"
        assert event.start_cycles == 7.0

    def test_cache_hit_emits_event(self, fast_slow_pool, config):
        from repro.obs import EventKind, RecordingTracer

        tracer = RecordingTracer()
        policy.decide(fast_slow_pool, 100000, OFF, cached(), config, tracer)
        (event,) = [
            e for e in tracer.events if e.kind is EventKind.CACHE_HIT
        ]
        assert event.args["selected"] == "slow"

    def test_threshold_respects_coarsening(self, axpy_spec, config):
        """The threshold counts base work-groups (finest variant)."""
        from repro.compiler.variants import VariantPool
        from tests.conftest import make_axpy_variant

        pool = VariantPool(
            spec=axpy_spec,
            variants=(
                make_axpy_variant("fine", wa_factor=1),
                make_axpy_variant("coarse", wa_factor=64),
            ),
        )
        # 200 units = 200 fine groups (>128): profiling stays on.
        assert policy.decide(pool, 200, ON, SelectionCache(), config).profile
