"""Dominance pruning over static cost intervals (repro.analyze.dominance)."""

import dataclasses

import numpy as np
import pytest

from repro.analyze.costbound import WideningPolicy
from repro.analyze.dominance import (
    DEFAULT_MARGIN,
    CostBoundPass,
    DominancePass,
    policy_from_settings,
    pool_cost_bounds,
    prune_pool,
)
from repro.analyze.passes import PoolContext
from repro.config import AnalyzeSettings
from repro.kernel import Loop, LoopBound

from .conftest import make_pool
from tests.conftest import make_axpy_variant


def spread_pool(slow_scale: float = 1000.0):
    """Two close contenders plus one statically hopeless variant."""
    return make_pool(
        make_axpy_variant("fast", flops_per_trip=4096.0),
        make_axpy_variant("close", flops_per_trip=4096.0 * 1.05),
        make_axpy_variant("slow", flops_per_trip=4096.0 * slow_scale),
    )


def data_dependent_variant(name: str, trips: float = 16.0):
    """A variant whose inner loop bound is only known at runtime."""
    base = make_axpy_variant(name)
    ir = base.ir.with_(
        loops=(
            Loop(
                "k",
                LoopBound(
                    evaluator=lambda args, ids: np.full(len(ids), trips),
                    description=f"runtime rows ({name})",
                ),
            ),
        )
    )
    return dataclasses.replace(base, ir=ir)


class TestPoolCostBounds:
    def test_hopeless_variant_is_pruned(self):
        verdict = pool_cost_bounds(spread_pool(), "cpu")
        assert "slow" in verdict.pruned
        assert "fast" in verdict.survivors
        assert "close" in verdict.survivors

    def test_best_upper_bound_always_survives(self):
        verdict = pool_cost_bounds(spread_pool(), "cpu")
        assert verdict.best_name in verdict.survivors

    def test_margin_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            pool_cost_bounds(spread_pool(), "cpu", margin=0.9)

    def test_larger_margin_prunes_less(self):
        tight = pool_cost_bounds(spread_pool(slow_scale=3.0), "cpu")
        loose = pool_cost_bounds(
            spread_pool(slow_scale=3.0), "cpu", margin=1e9
        )
        assert len(loose.pruned) <= len(tight.pruned)
        assert not loose.pruned

    def test_single_variant_pool_never_prunes(self):
        verdict = pool_cost_bounds(
            make_pool(make_axpy_variant("only")), "cpu"
        )
        assert not verdict.pruned
        assert verdict.survivors == ("only",)

    def test_unknown_device_kind_prunes_nothing(self):
        # Unbounded intervals cannot dominate anything.
        verdict = pool_cost_bounds(spread_pool(), "tpu")
        assert not verdict.pruned

    def test_workload_units_sharpen_the_comparison(self):
        with_units = pool_cost_bounds(
            spread_pool(), "cpu", workload_units=256
        )
        assert "slow" in with_units.pruned

    def test_format_table_and_as_dict(self):
        verdict = pool_cost_bounds(spread_pool(), "cpu")
        table = verdict.format_table()
        assert "PRUNED" in table
        assert "slow" in table
        doc = verdict.as_dict()
        assert doc["pruned"] == list(verdict.pruned)
        assert doc["margin"] == DEFAULT_MARGIN
        assert len(doc["bounds"]) == 3

    def test_all_data_dependent_pool_widens_and_prunes_nothing(self):
        # The degenerate case: every interval spans the full widened
        # trip range, so no best case can beat another's worst case.
        pool = make_pool(
            data_dependent_variant("rows_a", trips=8.0),
            data_dependent_variant("rows_b", trips=512.0),
        )
        verdict = pool_cost_bounds(pool, "cpu")
        assert not verdict.pruned
        assert set(verdict.survivors) == {"rows_a", "rows_b"}
        for variant_verdict in verdict.verdicts:
            assert variant_verdict.bound.widened

    def test_policy_from_settings_respects_bounds(self):
        settings = AnalyzeSettings(data_trip_bounds=(1.0, 7.0))
        assert policy_from_settings(settings) == WideningPolicy(
            data_trip_bounds=(1.0, 7.0)
        )


class TestPrunePool:
    def test_no_pruning_returns_same_pool_object(self):
        pool = make_pool(
            make_axpy_variant("a", flops_per_trip=64.0),
            make_axpy_variant("b", flops_per_trip=64.0),
        )
        verdict = pool_cost_bounds(pool, "cpu")
        pruned_pool, dominated = prune_pool(pool, verdict)
        assert pruned_pool is pool
        assert dominated == ()

    def test_pruned_pool_drops_dominated_variants(self):
        pool = spread_pool()
        verdict = pool_cost_bounds(pool, "cpu")
        pruned_pool, dominated = prune_pool(pool, verdict)
        assert dominated == ("slow",)
        assert pruned_pool.variant_names == ("fast", "close")
        # The correctness pool is untouched.
        assert pool.variant_names == ("fast", "close", "slow")

    def test_initial_default_remaps_when_pruned(self):
        pool = spread_pool()
        pool.initial_default = "slow"
        verdict = pool_cost_bounds(pool, "cpu")
        pruned_pool, _ = prune_pool(pool, verdict)
        assert pruned_pool.initial_default == verdict.best_name


class TestPasses:
    def _run(self, verifier_pass, pool, settings):
        ctx = PoolContext(
            pool=pool,
            compute_units=4,
            workload_units=4096,
            settings=settings,
        )
        return list(verifier_pass.run(ctx))

    def test_infinite_margin_prunes_nothing(self):
        # ``dominance_margin=inf`` is the one way to profile the full
        # pool: no verdict prunes, and the dominance pass stays silent.
        settings = AnalyzeSettings(dominance_margin=float("inf"))
        verdict = pool_cost_bounds(
            spread_pool(), "cpu", margin=settings.dominance_margin
        )
        assert not verdict.pruned
        assert verdict.survivors == ("fast", "close", "slow")
        assert not self._run(DominancePass(), spread_pool(), settings)

    def test_cost_bound_pass_emits_interval_per_variant(self):
        found = self._run(CostBoundPass(), spread_pool(), AnalyzeSettings())
        ids = [d.rule_id for d in found]
        assert ids.count("DYSEL-COST-001") == 3
        # The axpy fixtures stream through caches of unknown working
        # set, so each interval reports its widening too.
        assert "DYSEL-COST-002" in ids

    def test_cost_bound_pass_flags_unbounded_intervals(self):
        ctx = PoolContext(
            pool=spread_pool(),
            compute_units=4,
            workload_units=4096,
            device_kind="tpu",
        )
        ids = [d.rule_id for d in CostBoundPass().run(ctx)]
        assert "DYSEL-COST-003" in ids

    def test_dominance_pass_names_pruned_variants(self):
        found = self._run(DominancePass(), spread_pool(), AnalyzeSettings())
        pruned = [d for d in found if d.rule_id == "DYSEL-DOM-001"]
        assert [d.variant for d in pruned] == ["slow"]
        assert "statically dominated" in pruned[0].message

    def test_dominance_pass_warns_on_single_survivor(self):
        pool = make_pool(
            make_axpy_variant("fast", flops_per_trip=4096.0),
            make_axpy_variant("slow", flops_per_trip=4096.0 * 1000),
        )
        found = self._run(DominancePass(), pool, AnalyzeSettings())
        assert "DYSEL-DOM-002" in [d.rule_id for d in found]
