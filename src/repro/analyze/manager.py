"""Pass manager and cached pool verifier.

:class:`PassManager` runs a pipeline of :class:`VerifierPass` objects
over a :class:`PoolContext`, applies any configured rule-severity
adjustments, and folds the findings into one
:class:`VerificationReport`.  :class:`PoolVerifier` adds per-pool verdict
caching on top — a pool's legality facts are static, so the runtime's
launch gate verifies each (pool, overrides) combination exactly once no
matter how many launches hit it.

The default pipeline is :data:`FULL_PASSES`: the six legality passes from
:mod:`~repro.analyze.passes` plus the cost-bound/dominance passes from
:mod:`~repro.analyze.dominance`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..compiler.variants import VariantPool
from ..config import AnalyzeSettings
from .diagnostics import Diagnostic, VerificationReport
from .dominance import CostBoundPass, DominancePass
from .overrides import apply_adjustments, validate_settings
from .passes import (
    DEFAULT_PASSES,
    PoolContext,
    VerifierPass,
    VerifyOverrides,
)

#: Default pipeline: legality passes + cost-bound/dominance passes.
FULL_PASSES: Tuple[VerifierPass, ...] = DEFAULT_PASSES + (
    CostBoundPass(),
    DominancePass(),
)


class PassManager:
    """Runs verifier passes over kernel pools."""

    def __init__(
        self, passes: Sequence[VerifierPass] = FULL_PASSES
    ) -> None:
        self.passes: Tuple[VerifierPass, ...] = tuple(passes)

    def run(self, ctx: PoolContext) -> VerificationReport:
        """Verify one pool and return the aggregated report.

        Configured rule adjustments (``ctx.settings.rules``) are applied
        to the raw emissions — after validating that every adjusted rule
        id actually exists, so a typo cannot silently suppress nothing.
        """
        validate_settings(ctx.settings)
        diagnostics: Tuple[Diagnostic, ...] = ()
        for verifier_pass in self.passes:
            diagnostics += tuple(verifier_pass.run(ctx))
        diagnostics = apply_adjustments(
            diagnostics, ctx.pool.name, ctx.settings
        )
        return VerificationReport(
            pool=ctx.pool.name,
            diagnostics=diagnostics,
            recommended_mode=ctx.pool.mode,
        )


class PoolVerifier:
    """A :class:`PassManager` with per-pool verdict caching.

    Cache keys are (pool identity, overrides, compute units, workload
    units, device kind, settings): the static facts plus the two knobs
    the workload-dependent and cost-bound passes consult.  The pool
    object itself is retained in the cache entry so ``id()`` keys cannot
    alias across garbage-collected pools.
    """

    def __init__(
        self, passes: Sequence[VerifierPass] = FULL_PASSES
    ) -> None:
        self.manager = PassManager(passes)
        self._cache: Dict[tuple, Tuple[VariantPool, VerificationReport]] = {}

    @property
    def cached_verdicts(self) -> int:
        """Number of cached reports (observability / tests)."""
        return len(self._cache)

    def clear(self) -> None:
        """Drop all cached verdicts (e.g. after re-registering pools)."""
        self._cache.clear()

    def verify(
        self,
        pool: VariantPool,
        compute_units: int = 1,
        workload_units: Optional[int] = None,
        overrides: Optional[VerifyOverrides] = None,
        device_kind: str = "cpu",
        settings: Optional[AnalyzeSettings] = None,
    ) -> VerificationReport:
        """Verify a pool, reusing the cached verdict when possible."""
        effective = overrides if overrides is not None else VerifyOverrides()
        effective_settings = (
            settings if settings is not None else AnalyzeSettings()
        )
        key = (
            id(pool),
            effective,
            compute_units,
            workload_units,
            device_kind,
            effective_settings,
        )
        hit = self._cache.get(key)
        if hit is not None and hit[0] is pool:
            return hit[1]
        report = self.manager.run(
            PoolContext(
                pool=pool,
                compute_units=compute_units,
                workload_units=workload_units,
                overrides=effective,
                device_kind=device_kind,
                settings=effective_settings,
            )
        )
        self._cache[key] = (pool, report)
        return report


def verify_pool(
    pool: VariantPool,
    compute_units: int = 1,
    workload_units: Optional[int] = None,
    overrides: Optional[VerifyOverrides] = None,
    passes: Sequence[VerifierPass] = FULL_PASSES,
    device_kind: str = "cpu",
    settings: Optional[AnalyzeSettings] = None,
) -> VerificationReport:
    """One-shot pool verification (uncached convenience entry point)."""
    return PassManager(passes).run(
        PoolContext(
            pool=pool,
            compute_units=compute_units,
            workload_units=workload_units,
            overrides=overrides if overrides is not None else VerifyOverrides(),
            device_kind=device_kind,
            settings=settings if settings is not None else AnalyzeSettings(),
        )
    )
