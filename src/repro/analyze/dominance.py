"""Dominance pruning of kernel pools from static cost intervals.

A variant is **statically dominated** when its best case (interval ``lo``)
exceeds some rival's worst case (interval ``hi``) by the configured safety
margin: no workload within the widening policy can make it win.  Dominated
variants are pruned from the *micro-profiling candidate set* only — they
stay in the correctness pool, remain launchable as pinned/default
variants, and differential/fault tooling still sees them.

Soundness (proved by the hypothesis suite): with margin ``m >= 1``,
survivors are ``{V : lo(V) <= m * min_hi}`` where ``min_hi`` is the
smallest interval ``hi`` in the pool.  The variant achieving ``min_hi``
always survives (``lo <= hi = min_hi <= m * min_hi``), and the true
engine winner can never be pruned: a pruned ``W`` would satisfy
``cost(W) >= lo(W) > min_hi >= cost(argmin)``, contradicting ``W``
winning.

The :class:`CostBoundPass`/:class:`DominancePass` verifier passes emit the
``DYSEL-COST-*`` / ``DYSEL-DOM-*`` diagnostics.  Pruning is always on;
``AnalyzeSettings(dominance_margin=float("inf"))`` prunes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..compiler.variants import VariantPool
from ..config import AnalyzeSettings
from .costbound import (
    Interval,
    VariantCostBound,
    WideningPolicy,
    variant_cost_bound,
)
from .diagnostics import Diagnostic, Severity
from .passes import PoolContext, VerifierPass

#: Default dominance safety margin: a variant must be predicted to lose by
#: 25% beyond interval overlap before profiling stops measuring it.
DEFAULT_MARGIN = 1.25


def policy_from_settings(settings: AnalyzeSettings) -> WideningPolicy:
    """Widening policy configured by :class:`AnalyzeSettings`."""
    return WideningPolicy(data_trip_bounds=settings.data_trip_bounds)


@dataclass(frozen=True)
class VariantVerdict:
    """One variant's interval and dominance outcome."""

    bound: VariantCostBound
    #: The interval dominance compared (launch-scaled when the workload is
    #: known, per-unit otherwise).
    interval: Interval
    pruned: bool

    @property
    def name(self) -> str:
        """Variant name."""
        return self.bound.variant


@dataclass(frozen=True)
class DominanceVerdict:
    """Dominance analysis of one pool on one device kind."""

    pool: str
    device_kind: str
    margin: float
    workload_units: Optional[int]
    verdicts: Tuple[VariantVerdict, ...]
    #: Name of the variant with the smallest interval ``hi`` (the
    #: benchmark every other variant's ``lo`` is compared against).
    best_name: str

    @property
    def survivors(self) -> Tuple[str, ...]:
        """Non-dominated variant names, pool registration order."""
        return tuple(v.name for v in self.verdicts if not v.pruned)

    @property
    def pruned(self) -> Tuple[str, ...]:
        """Dominated variant names, pool registration order."""
        return tuple(v.name for v in self.verdicts if v.pruned)

    def verdict(self, name: str) -> VariantVerdict:
        """Look up one variant's verdict."""
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(f"pool {self.pool!r} has no variant {name!r}")

    def format_table(self) -> str:
        """Interval table + pruned set (CLI text rendering)."""
        unit = (
            f"cycles/{self.workload_units}u"
            if self.workload_units is not None
            else "cycles/unit"
        )
        lines = [
            f"cost bounds ({self.device_kind}, margin {self.margin:g}, "
            f"{unit}):"
        ]
        width = max((len(v.name) for v in self.verdicts), default=4)
        for v in self.verdicts:
            state = "PRUNED" if v.pruned else "ok"
            notes = (
                f"  (widened: {', '.join(v.bound.widened)})"
                if v.bound.widened
                else ""
            )
            lines.append(
                f"  {v.name:{width}s}  {str(v.interval):>24s}  "
                f"mid {v.interval.midpoint:>12.1f}  {state}{notes}"
            )
        if self.pruned:
            lines.append(
                f"  pruned {len(self.pruned)}/{len(self.verdicts)} "
                f"variant(s): {', '.join(self.pruned)} "
                f"(dominated by {self.best_name!r})"
            )
        else:
            lines.append("  no variant is statically dominated")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (CLI ``--format json``)."""
        return {
            "pool": self.pool,
            "device_kind": self.device_kind,
            "margin": self.margin,
            "workload_units": self.workload_units,
            "best": self.best_name,
            "survivors": list(self.survivors),
            "pruned": list(self.pruned),
            "bounds": [
                {
                    "variant": v.name,
                    "lo": v.interval.lo,
                    "hi": v.interval.hi,
                    "midpoint": v.interval.midpoint,
                    "pruned": v.pruned,
                    "widened": list(v.bound.widened),
                }
                for v in self.verdicts
            ],
        }


def pool_cost_bounds(
    pool: VariantPool,
    device_kind: str,
    policy: WideningPolicy = WideningPolicy(),
    margin: float = DEFAULT_MARGIN,
    workload_units: Optional[int] = None,
) -> DominanceVerdict:
    """Compute per-variant intervals and the dominance pruning verdict.

    With ``workload_units`` the comparison uses exact launch intervals
    (including per-group fixed costs and ragged final groups); without it
    the workload-size-independent per-unit intervals are compared.
    """
    if margin < 1.0:
        raise ValueError(f"dominance margin must be >= 1, got {margin}")
    bounds = [
        variant_cost_bound(variant, device_kind, policy)
        for variant in pool.variants
    ]
    if workload_units is not None:
        intervals = [b.launch_interval(workload_units) for b in bounds]
    else:
        intervals = [b.per_unit_interval for b in bounds]
    min_hi = min(iv.hi for iv in intervals)
    best_name = bounds[
        min(range(len(bounds)), key=lambda i: intervals[i].hi)
    ].variant
    verdicts = tuple(
        VariantVerdict(
            bound=b, interval=iv, pruned=bool(iv.lo > margin * min_hi)
        )
        for b, iv in zip(bounds, intervals)
    )
    return DominanceVerdict(
        pool=pool.name,
        device_kind=device_kind,
        margin=margin,
        workload_units=workload_units,
        verdicts=verdicts,
        best_name=best_name,
    )


# ----------------------------------------------------------------------
# Verifier passes
# ----------------------------------------------------------------------


def _context_verdict(ctx: PoolContext) -> DominanceVerdict:
    """Dominance verdict for a verification context."""
    settings = ctx.settings
    return pool_cost_bounds(
        ctx.pool,
        ctx.device_kind,
        policy=policy_from_settings(settings),
        margin=settings.dominance_margin,
        workload_units=ctx.workload_units,
    )


class CostBoundPass(VerifierPass):
    """Static cost intervals per variant (``DYSEL-COST-*``)."""

    name = "cost-bound"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Emit interval facts for every variant in the pool."""
        verdict = _context_verdict(ctx)
        for v in verdict.verdicts:
            per_unit = v.bound.per_unit_interval
            yield Diagnostic(
                rule_id="DYSEL-COST-001",
                severity=Severity.INFO,
                message=f"static cost on {verdict.device_kind}: "
                f"{per_unit} cycles/unit "
                f"(midpoint {per_unit.midpoint:.1f})",
                variant=v.name,
            )
            if v.bound.widened:
                yield Diagnostic(
                    rule_id="DYSEL-COST-002",
                    severity=Severity.INFO,
                    message="cost interval widened: "
                    + "; ".join(v.bound.widened),
                    variant=v.name,
                    hint="tighten AnalyzeSettings.data_trip_bounds, or "
                    "accept the conservative interval",
                )
            if not v.interval.is_bounded:
                yield Diagnostic(
                    rule_id="DYSEL-COST-003",
                    severity=Severity.WARNING,
                    message=f"cost interval on {verdict.device_kind} is "
                    "unbounded; dominance pruning cannot act on this "
                    "variant",
                    variant=v.name,
                    hint="analyze on a known device kind ('cpu'/'gpu') "
                    "and bound the widening policy",
                )


class DominancePass(VerifierPass):
    """Dominance pruning verdicts (``DYSEL-DOM-*``)."""

    name = "dominance"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Emit pruning findings for dominated variants."""
        verdict = _context_verdict(ctx)
        best = verdict.verdict(verdict.best_name)
        for name in verdict.pruned:
            v = verdict.verdict(name)
            yield Diagnostic(
                rule_id="DYSEL-DOM-001",
                severity=Severity.INFO,
                message=f"statically dominated: best case {v.interval.lo:.1f}"
                f" exceeds {verdict.best_name!r}'s worst case "
                f"{best.interval.hi:.1f} × margin {verdict.margin:g}; "
                "pruned from the micro-profiling candidate set",
                variant=name,
                hint="drop the variant from the pool, or keep it as a "
                "fallback only",
            )
        survivors = verdict.survivors
        if len(verdict.verdicts) > 1 and len(survivors) == 1:
            yield Diagnostic(
                rule_id="DYSEL-DOM-002",
                severity=Severity.WARNING,
                message=f"dominance pruning left a single candidate "
                f"({survivors[0]!r}); micro-profiling will be skipped for "
                "this pool",
                hint="raise AnalyzeSettings.dominance_margin if runtime "
                "measurement is still wanted",
            )


def prune_pool(
    pool: VariantPool, verdict: DominanceVerdict
) -> Tuple[VariantPool, Tuple[str, ...]]:
    """Profiling-candidate pool after pruning (plus the pruned names).

    Returns the original pool untouched when nothing is pruned.  The
    pruned pool keeps the original default when it survives, otherwise
    promotes the best-bounded survivor — but the *correctness* pool (and
    its default) is never what this function's result replaces.
    """
    pruned = verdict.pruned
    if not pruned:
        return pool, ()
    survivors = [v for v in pool.variants if v.name in set(verdict.survivors)]
    default = (
        pool.initial_default
        if pool.initial_default in verdict.survivors
        else verdict.best_name
    )
    candidate = VariantPool(
        spec=pool.spec,
        variants=tuple(survivors),
        mode=pool.mode,
        initial_default=default,
    )
    return candidate, pruned


__all__: List[str] = [
    "DEFAULT_MARGIN",
    "CostBoundPass",
    "DominancePass",
    "DominanceVerdict",
    "VariantVerdict",
    "policy_from_settings",
    "pool_cost_bounds",
    "prune_pool",
]
