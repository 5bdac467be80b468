"""Verifier passes: the static legality rules for kernel pools.

Each pass inspects one :class:`~repro.compiler.variants.VariantPool`
through a :class:`PoolContext` and yields :class:`Diagnostic` findings.
The rules encode the paper's Table 1 and §2.2–§3.4 requirements.

The authoritative rule catalog — every id, its default severity, summary
and remedy — lives in :mod:`repro.analyze.registry` (rendered by
``python -m repro.analyze --explain DYSEL-<PASS>-<NNN>``); the test suite
asserts emissions match it, so this module carries no duplicate table to
drift.  The cost-bound/dominance passes (``DYSEL-COST-*``,
``DYSEL-DOM-*``) live in :mod:`repro.analyze.dominance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..compiler.analyses.safe_point import lcm_of, safe_point_plan
from ..compiler.analyses.side_effect import (
    SideEffectKind,
    analyze_side_effects,
)
from ..compiler.analyses.uniform import analyze_ir_uniformity
from ..compiler.variants import VariantPool
from ..config import AnalyzeSettings
from ..errors import AnalysisError
from ..kernel.ir import KernelIR
from ..modes import OrchestrationFlow, ProfilingMode
from .diagnostics import Diagnostic, Severity, combos

#: Fair-slice size (in workload units) above which coprime work-assignment
#: factors are flagged as a profiling-cost hazard.
HUGE_SLICE_UNITS = 1 << 20

#: Ratio beyond which static per-unit output footprints count as divergent
#: (generous: byte-scaling transforms legitimately perturb volumes).
FOOTPRINT_RATIO = 1.5

_PARTIAL = (ProfilingMode.HYBRID, ProfilingMode.SWAP)
_COMMITTING = (ProfilingMode.FULLY, ProfilingMode.HYBRID)


@dataclass(frozen=True)
class VerifyOverrides:
    """Programmer assertions that relax conservative analyses.

    The paper's analyses are deliberately conservative and explicitly
    overridable at the launch API (§3.4): atomics do not prove actual
    cross-work-group contention, and a data-dependent loop bound may be
    uniform in practice (the uniform-CSR example).  An override downgrades
    the corresponding ERROR findings to WARNING — the diagnostic stays
    visible, but stops blocking the launch.
    """

    atomics_race_free: bool = False
    uniform_workload: bool = False


@dataclass(frozen=True)
class PoolContext:
    """Everything a pass may consult about one pool-under-verification."""

    pool: VariantPool
    #: Device parallelism profiling must fill (slice geometry).
    compute_units: int = 1
    #: Units of a concrete launch, when known (CLI / pre-launch checks);
    #: ``None`` verifies workload-independent facts only.
    workload_units: Optional[int] = None
    overrides: VerifyOverrides = field(default_factory=VerifyOverrides)
    #: Device kind the pool will launch on ("cpu"/"gpu"); drives the
    #: cost-bound passes' device model selection.
    device_kind: str = "cpu"
    #: Analysis settings (dominance margin, widening bounds, configured
    #: rule adjustments).
    settings: AnalyzeSettings = field(default_factory=AnalyzeSettings)

    @property
    def irs(self) -> Tuple[Tuple[str, KernelIR], ...]:
        """(variant name, IR) pairs, registration order."""
        return tuple((v.name, v.ir) for v in self.pool.variants)

    @property
    def wa_factors(self) -> Tuple[int, ...]:
        """Work assignment factors, registration order."""
        return tuple(v.wa_factor for v in self.pool.variants)


class VerifierPass:
    """Base class: one legality rule family over a pool."""

    #: Stable pass name (diagnostics group under it in DESIGN.md).
    name: str = "base"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Yield findings for the pool (may be empty)."""
        raise NotImplementedError


class ModeEligibilityPass(VerifierPass):
    """Per-variant mode legality from side-effect and uniformity analyses."""

    name = "mode-eligibility"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Emit side-effect and uniformity mode restrictions."""
        side = analyze_side_effects(ctx.irs)
        for finding in side.findings:
            rule, hint = {
                SideEffectKind.GLOBAL_ATOMIC: (
                    "DYSEL-MODE-001",
                    "use mode 'swap_sync', or assert the atomics are "
                    "race-free across work-groups via the launch override",
                ),
                SideEffectKind.OUTPUT_OVERLAP: (
                    "DYSEL-MODE-002",
                    "use mode 'swap_sync' (private per-candidate outputs)",
                ),
                SideEffectKind.OUTPUT_VARIES: (
                    "DYSEL-MODE-003",
                    "use mode 'swap_sync' (private per-candidate outputs)",
                ),
            }[finding.kind]
            diagnostic = Diagnostic(
                rule_id=rule,
                severity=Severity.ERROR,
                message=finding.describe()
                + "; profiled slices would not commit disjoint outputs "
                "(paper Table 1: swap-based profiling required)",
                variant=finding.variant,
                hint=hint,
                scope=combos(modes=_COMMITTING),
            )
            if finding.overridable and ctx.overrides.atomics_race_free:
                diagnostic = diagnostic.downgraded(
                    "programmer asserted race-free atomics"
                )
            yield diagnostic

        for name, ir in ctx.irs:
            for reason in analyze_ir_uniformity(ir, label=name):
                diagnostic = Diagnostic(
                    rule_id="DYSEL-MODE-004",
                    severity=Severity.ERROR,
                    message=reason
                    + "; fully-productive slices would be unequal work "
                    "(paper Table 1: regular workload required)",
                    variant=name,
                    hint="use mode 'hybrid_async', or assert uniformity "
                    "via the launch override",
                    scope=combos(modes=[ProfilingMode.FULLY]),
                )
                if ctx.overrides.uniform_workload:
                    diagnostic = diagnostic.downgraded(
                        "programmer asserted a uniform workload"
                    )
                yield diagnostic


class AsyncLegalityPass(VerifierPass):
    """Flow legality: what may overlap with eager execution."""

    name = "async-legality"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Emit the flow restrictions (swap is sync-only, &c)."""
        yield Diagnostic(
            rule_id="DYSEL-ASYNC-001",
            severity=Severity.ERROR,
            message=f"kernel {ctx.pool.name!r}: swap-based profiling cannot "
            "run asynchronously — the final output space is unknown until "
            "profiling completes (paper Table 1)",
            hint="use mode 'swap_sync'",
            scope=combos(
                modes=[ProfilingMode.SWAP], flows=[OrchestrationFlow.ASYNC]
            ),
        )
        atomic_variants = [
            name for name, ir in ctx.irs if ir.has_global_atomics
        ]
        if atomic_variants:
            yield Diagnostic(
                rule_id="DYSEL-ASYNC-002",
                severity=Severity.WARNING,
                message="global atomics in "
                f"{sorted(atomic_variants)} interleave with eager chunks "
                "dispatched during asynchronous profiling; commit order "
                "becomes timing-dependent",
                hint="prefer the synchronous flow for atomic kernels",
                scope=combos(
                    modes=_COMMITTING, flows=[OrchestrationFlow.ASYNC]
                ),
            )


class SandboxCapacityPass(VerifierPass):
    """Declared sandbox index vs what the partial modes must isolate."""

    name = "sandbox-capacity"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Check sandbox coverage against what the variants write."""
        pool = ctx.pool
        declared_outputs = set(pool.spec.signature.output_names)
        sandboxed = set(pool.spec.effective_sandbox_outputs)
        if not declared_outputs:
            yield Diagnostic(
                rule_id="DYSEL-SANDBOX-001",
                severity=Severity.ERROR,
                message=f"kernel {pool.name!r} declares no output buffers; "
                "hybrid/swap profiling has nothing to sandbox",
                hint="declare outputs via ArgSpec(is_output=True), or use "
                "mode 'fully'",
                scope=combos(modes=_PARTIAL),
            )
            return

        written_outputs = set()
        for _name, ir in ctx.irs:
            written_outputs |= set(ir.written_buffers) & declared_outputs
        uncovered = sorted(written_outputs - sandboxed)
        if uncovered:
            yield Diagnostic(
                rule_id="DYSEL-SANDBOX-002",
                severity=Severity.ERROR,
                message=f"kernel {pool.name!r}: outputs {uncovered} are "
                "written by variants but missing from sandbox_index; "
                "non-committing candidates would corrupt them during "
                "hybrid/swap profiling",
                hint="extend sandbox_index in DySelAddKernel to cover "
                "every written output",
                scope=combos(modes=_PARTIAL),
            )

        k = len(pool.variants)
        yield Diagnostic(
            rule_id="DYSEL-SANDBOX-003",
            severity=Severity.INFO,
            message=f"kernel {pool.name!r}: K={k} variants need at most "
            f"{max(0, k - 1)} sandbox copies (hybrid) / {k} private "
            f"copies (swap) of {sorted(sandboxed)} (paper Table 1)",
        )


class SignatureConsistencyPass(VerifierPass):
    """Cross-variant signature and output-footprint consistency."""

    name = "signature-consistency"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Check cross-variant signature/footprint consistency."""
        pool = ctx.pool
        declared_outputs = set(pool.spec.signature.output_names)
        declared_args = {a.name for a in pool.spec.signature.args}

        write_sets = {}
        for name, ir in ctx.irs:
            writes = set(ir.written_buffers)
            write_sets[name] = writes & declared_outputs
            undeclared = sorted(writes - declared_outputs)
            if undeclared:
                where = (
                    "undeclared arguments"
                    if set(undeclared) - declared_args
                    else "non-output arguments"
                )
                yield Diagnostic(
                    rule_id="DYSEL-SIG-001",
                    severity=Severity.ERROR,
                    message=f"{name}: writes {undeclared}, which are "
                    f"{where} of kernel {pool.name!r}; sandboxing cannot "
                    "isolate writes the signature does not declare",
                    variant=name,
                    hint="declare the buffers as outputs "
                    "(ArgSpec(is_output=True))",
                )

        distinct = {frozenset(s) for s in write_sets.values()}
        if len(distinct) > 1:
            detail = ", ".join(
                f"{name}: {sorted(writes)}"
                for name, writes in sorted(write_sets.items())
            )
            yield Diagnostic(
                rule_id="DYSEL-SIG-002",
                severity=Severity.ERROR,
                message=f"kernel {pool.name!r}: variants write different "
                f"output sets ({detail}); stitching fully-productive "
                "slices from different variants would leave outputs "
                "partially written",
                hint="use a partial mode, or align the variants' outputs",
                scope=combos(modes=[ProfilingMode.FULLY]),
            )

        ever_written = set().union(*write_sets.values()) if write_sets else set()
        for output in sorted(declared_outputs - ever_written):
            yield Diagnostic(
                rule_id="DYSEL-SIG-003",
                severity=Severity.WARNING,
                message=f"kernel {pool.name!r}: declared output {output!r} "
                "is never written in any variant's IR; side-effect "
                "analysis may be reasoning about an incomplete write set",
                hint="add the missing MemoryAccess(is_write=True) site or "
                "drop the output declaration",
            )

        for variant in pool.variants:
            if variant.ir.work_group_threads != variant.work_group_size:
                yield Diagnostic(
                    rule_id="DYSEL-SIG-004",
                    severity=Severity.INFO,
                    message=f"{variant.name}: IR models "
                    f"{variant.ir.work_group_threads} work-group threads "
                    f"but the variant launches {variant.work_group_size}; "
                    "cost-model efficiency rules may misestimate",
                    variant=variant.name,
                )

        yield from self._footprints(ctx, write_sets)

    def _footprints(self, ctx: PoolContext, write_sets) -> Iterable[Diagnostic]:
        """Static per-unit output volume, normalized by wa_factor.

        Variants whose write footprints are statically computable (no
        data-dependent bounds in a write site's scope) must agree within
        :data:`FOOTPRINT_RATIO` — each workload unit's output is the same
        function regardless of which variant computes it.
        """
        factors = {v.name: v.wa_factor for v in ctx.pool.variants}
        volumes = {}
        for name, ir in ctx.irs:
            volume = _static_output_bytes(ir, write_sets.get(name, set()))
            if volume is not None and volume > 0:
                # IR volumes are per work-group; a coarsened work-group
                # covers wa_factor units, so normalize before comparing.
                volumes[name] = volume / max(1, factors[name])
        if len(volumes) < 2:
            return
        low_name = min(volumes, key=volumes.get)
        high_name = max(volumes, key=volumes.get)
        low, high = volumes[low_name], volumes[high_name]
        if high > low * FOOTPRINT_RATIO:
            yield Diagnostic(
                rule_id="DYSEL-SIG-005",
                severity=Severity.WARNING,
                message=f"kernel {ctx.pool.name!r}: static per-unit output "
                f"footprints diverge after wa-factor normalization "
                f"({low_name}: {low:.0f} B/unit vs {high_name}: "
                f"{high:.0f} B/unit); variants may not compute the same "
                "output volume",
                hint="check bytes_per_trip on the write sites, or the "
                "wa_factor registered for the coarsened variants",
            )


def _static_output_bytes(ir: KernelIR, outputs) -> Optional[float]:
    """Per-unit bytes written to declared outputs, when statically known.

    Returns ``None`` when any write site sits under a data-dependent loop
    bound — static analysis cannot see that footprint (and uniform
    analysis already flags the pool).
    """
    total = 0.0
    for access in ir.accesses:
        if not access.is_write or access.buffer not in outputs:
            continue
        if access.scope is not None:
            loop_names: Tuple[str, ...] = access.scope
        else:
            loop_names = tuple(
                loop.name for loop in ir.enclosing_loops(access.loop)
            )
        trips = 1.0
        for name in loop_names:
            bound = ir.loop_named(name).bound
            if bound.is_data_dependent:
                return None
            trips *= float(bound.static_trips)
        total += access.bytes_per_trip * trips
    return total


class SafePointPass(VerifierPass):
    """Fair-slice feasibility from work-assignment-factor geometry."""

    name = "safe-point"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Check fair-slice feasibility of the profiling plan."""
        pool = ctx.pool
        k = len(pool.variants)
        if k == 1:
            yield Diagnostic(
                rule_id="DYSEL-SAFEPOINT-003",
                severity=Severity.INFO,
                message=f"kernel {pool.name!r}: single-variant pool; the "
                "launch policy skips profiling entirely",
            )
        base = lcm_of(ctx.wa_factors)
        if base >= HUGE_SLICE_UNITS:
            yield Diagnostic(
                rule_id="DYSEL-SAFEPOINT-002",
                severity=Severity.WARNING,
                message=f"kernel {pool.name!r}: near-coprime work "
                f"assignment factors {sorted(set(ctx.wa_factors))} give a "
                f"fair profiling slice of {base} units; profiling would "
                "consume a large workload share",
                hint="register wa_factors with small pairwise LCMs "
                "(powers of two)",
            )
        if ctx.workload_units is None:
            return
        try:
            plan = safe_point_plan(
                pool.variants,
                compute_units=ctx.compute_units,
                workload_units=ctx.workload_units,
            )
        except AnalysisError as exc:
            yield Diagnostic(
                rule_id="DYSEL-SAFEPOINT-001",
                severity=Severity.ERROR,
                message=f"kernel {pool.name!r}: {exc}",
                hint="grow the workload, reduce coprime wa_factors, or "
                "launch with profiling=False",
            )
            return
        if plan.units_per_variant * k > ctx.workload_units:
            yield Diagnostic(
                rule_id="DYSEL-SAFEPOINT-004",
                severity=Severity.ERROR,
                message=f"kernel {pool.name!r}: fully-productive profiling "
                f"needs {k} slices of {plan.units_per_variant} units but "
                f"the launch has only {ctx.workload_units}",
                hint="use a partial mode (one shared slice), or grow the "
                "workload",
                scope=combos(modes=[ProfilingMode.FULLY]),
            )


class WriteSetRacePass(VerifierPass):
    """Commit-range races between profiled slices and async eager chunks.

    Under the asynchronous flow, eager chunks execute concurrently with
    the profiling candidates.  Safe point geometry keeps the *unit* ranges
    disjoint — profiled slices occupy ``[0, K·S)`` (fully) or ``[0, S)``
    (hybrid) and eager dispatch starts after them — but unit-disjointness
    only implies write-disjointness when outputs are regular.  Overlapping
    or varying output ranges, and global atomic commits, break that
    implication: a profiled slice and an eager chunk may write the same
    locations concurrently.
    """

    name = "write-set-race"

    def run(self, ctx: PoolContext) -> Iterable[Diagnostic]:
        """Flag cross-work-group write races between variants."""
        pool = ctx.pool
        k = len(pool.variants)
        triggers: List[Tuple[str, str, bool]] = []  # (variant, why, atomic?)
        for name, ir in ctx.irs:
            for buffer in ir.global_atomic_buffers:
                triggers.append(
                    (name, f"global atomic commits to {buffer!r}", True)
                )
            if ir.output_ranges_overlap:
                triggers.append(
                    (name, "work-group output ranges may overlap", False)
                )
            if ir.output_range_varies:
                triggers.append(
                    (name, "output range varies across variants", False)
                )
        if not triggers:
            return

        slice_units = self._slice_units(ctx)
        geometry = (
            f"profiled commit ranges [0, {k}·{slice_units}) (fully) / "
            f"[0, {slice_units}) (hybrid) vs eager chunks from unit "
            f"{k * slice_units} / {slice_units}"
        )
        detail = "; ".join(f"{name}: {why}" for name, why, _ in triggers)
        only_atomics = all(atomic for _, _, atomic in triggers)
        diagnostic = Diagnostic(
            rule_id="DYSEL-RACE-001",
            severity=Severity.ERROR,
            message=f"kernel {pool.name!r}: write sets of profiled slices "
            f"and async eager chunks may overlap ({detail}); safe-point "
            f"geometry {geometry} does not separate them",
            hint="use the synchronous flow, or mode 'swap_sync'",
            scope=combos(
                modes=_COMMITTING, flows=[OrchestrationFlow.ASYNC]
            ),
        )
        if only_atomics and ctx.overrides.atomics_race_free:
            diagnostic = diagnostic.downgraded(
                "programmer asserted race-free atomics"
            )
        yield diagnostic

    def _slice_units(self, ctx: PoolContext) -> int:
        """Fair-slice size for the geometry message (best effort)."""
        base = lcm_of(ctx.wa_factors)
        workload = ctx.workload_units
        if workload is not None:
            try:
                return safe_point_plan(
                    ctx.pool.variants,
                    compute_units=ctx.compute_units,
                    workload_units=workload,
                ).units_per_variant
            except AnalysisError:
                pass
        # Workload-independent nominal geometry: fill the device once.
        factors = ctx.wa_factors
        fill = math.ceil(ctx.compute_units * max(factors) / base)
        return base * max(1, fill)


#: The default pass pipeline, in execution order.
DEFAULT_PASSES: Tuple[VerifierPass, ...] = (
    ModeEligibilityPass(),
    AsyncLegalityPass(),
    SandboxCapacityPass(),
    SignatureConsistencyPass(),
    SafePointPass(),
    WriteSetRacePass(),
)
