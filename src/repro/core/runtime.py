"""DySelRuntime: the launch-facing runtime (paper Fig 6b).

``launch_kernel`` resolves the kernel pool, applies the launch policy
(small-workload deactivation, activation flag, cached selections), gates
the requested (mode, flow) through the static pool verifier
(:mod:`repro.analyze`, level set by ``ReproConfig.verify``), runs safe
point analysis, lays out the productive profiling plan, and drives the
requested orchestration flow on the device's execution engine.  One
runtime owns one engine, so simulated time accumulates across launches —
which is how iterative experiments (profile the first iteration, reuse the
selection) measure amortized overhead.

Failure philosophy: a launch that *could* run productively never dies on
a profiling-layout technicality.  An infeasible profiling plan (the fair
slice does not fit the workload) demotes — fully-productive falls back to
hybrid when the verifier allows it, otherwise profiling is switched off
and the pool default runs — with the demotion recorded in
``LaunchResult.reason`` and a :class:`ProfilingDemotionWarning`, matching
the verification gate's warn-level behaviour.

With ``ReproConfig.trace`` set, every launch emits structured events
(:mod:`repro.obs`): ``LaunchBegin``/``LaunchEnd`` brackets, gate and plan
demotions, cache traffic, per-variant profile spans, eager chunks, and
the remainder batch — enough to reconstruct the paper's Fig 4 timelines
from a recorded trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..analyze.diagnostics import VerificationReport
from ..analyze.dominance import (
    policy_from_settings,
    pool_cost_bounds,
    prune_pool,
)
from ..analyze.gate import gate_launch
from ..analyze.manager import PoolVerifier
from ..analyze.passes import VerifyOverrides
from ..compiler.analyses.safe_point import SafePointPlan, safe_point_plan
from ..compiler.variants import VariantPool
from ..config import ReproConfig
from ..device.base import Device
from ..device.cost import invalidate_cost_memo, ir_hash
from ..device.engine import ExecutionEngine, Priority
from ..errors import (
    AnalysisError,
    LaunchAbortedError,
    LaunchError,
    ProfilingError,
    ProfilingFaultError,
    RegistrationError,
)
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, FaultRecord
from ..faults.quarantine import VariantQuarantine
from ..kernel.kernel import KernelSpec, KernelVariant, WorkRange
from ..kernel.launch import LaunchConfig
from ..modes import OrchestrationFlow, ProfilingMode
from ..obs.events import EventKind
from . import policy
from .policy import Basis, IntentKind, LaunchIntent
from .orchestrator import _run_batch_with_fallback, run_async, run_sync
from .productive import ProfilingPlan, plan_profiling
from .registry import DySelKernelRegistry
from .selection import SelectionCache, SelectionRecord


class ProfilingDemotionWarning(UserWarning):
    """A profiling plan was infeasible and the launch was demoted."""


@dataclass(frozen=True)
class LaunchResult:
    """What one ``launch_kernel`` call produced.

    ``elapsed_cycles`` covers everything the evaluation's timing covers
    (paper §4.1): profiling time, profiling launch overheads, and the
    remaining workload's compute time.  ``basis`` names the
    :func:`policy.decide` rule that fired; demotions after the decision
    (plan infeasible, faults) keep it and extend ``reason``.
    """

    kernel: str
    selected: str
    profiled: bool
    mode: Optional[ProfilingMode]
    flow: Optional[OrchestrationFlow]
    start_cycles: float
    end_cycles: float
    reason: str = ""
    basis: Optional[Basis] = None
    record: Optional[SelectionRecord] = None
    eager_chunks: int = 0
    eager_units: int = 0
    profiling_latency_cycles: float = 0.0

    @property
    def elapsed_cycles(self) -> float:
        """Wall time of the launch on the device clock."""
        return self.end_cycles - self.start_cycles


class DySelRuntime:
    """The DySel runtime bound to one (simulated) device."""

    def __init__(
        self,
        device: Device,
        config: Optional[ReproConfig] = None,
        registry: Optional[DySelKernelRegistry] = None,
    ) -> None:
        self.device = device
        self.config = config if config is not None else device.config
        self.registry = registry if registry is not None else DySelKernelRegistry()
        self.engine = ExecutionEngine(device, self.config)
        self.cache = SelectionCache()
        #: Static pool verifier; verdicts are cached per pool, so gating
        #: costs one pass-manager run per (pool, overrides) lifetime.
        self.verifier = PoolVerifier()
        #: Observability hook: shared with the engine, so launch-level
        #: and engine-level events land on one timeline.
        self.tracer = self.engine.tracer
        #: Callbacks fired whenever a registration change invalidates a
        #: kernel's selection state (``callback(kernel_sig, why)``).  The
        #: serving layer registers one per runtime so persistent-store
        #: entries die together with the in-memory cache entry.
        self._invalidation_hooks: List[Callable[[str, str], None]] = []
        #: Repeat-offender ledger: variants that keep faulting are barred
        #: from selection until parole (see :mod:`repro.faults`).  The
        #: serving layer may replace this with a store-shared ledger so
        #: quarantines persist across worker runtimes.
        self.quarantine = VariantQuarantine(self.config.faults)
        #: Cache of quarantine-restricted pools, keyed by
        #: ``(kernel, barred-names)`` so repeat launches under a stable
        #: quarantine set do not rebuild the filtered pool each time.
        self._restricted_pools: Dict[
            Tuple[str, Tuple[str, ...]], VariantPool
        ] = {}
        #: Cache of dominance-pruned profiling candidate pools, keyed by
        #: ``(kernel, active-variant-names)`` — the active set changes
        #: with quarantine, and a replaced pool object fails the identity
        #: check, so a stale pruned pool is never reused.  Only consulted
        #: when ``ReproConfig.analyze.dominance`` is on.
        self._dominance_pools: Dict[
            Tuple[str, Tuple[str, ...]],
            Tuple[VariantPool, VariantPool, Tuple[str, ...]],
        ] = {}

    # ------------------------------------------------------------------
    # Fault injection (chaos testing)
    # ------------------------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Install a :class:`FaultPlan` on this runtime's engine.

        Installing an injector arms the hardened launch paths: transient
        retries, hang deadlines, productive-slice repair, quarantine and
        the degradation ladder (``docs/faults.md``).  Without an injector
        the runtime behaves exactly as before — fault handling costs
        nothing when chaos testing is off.
        """
        injector = FaultInjector(plan)
        self.engine.injector = injector
        return injector

    def clear_faults(self) -> None:
        """Remove any installed fault injector (back to clean runs)."""
        self.engine.injector = None

    def add_invalidation_hook(
        self, hook: Callable[[str, str], None]
    ) -> None:
        """Subscribe to selection invalidations (``hook(kernel, why)``).

        Fired on every registration change that can stale derived
        selection state — pool extension via :meth:`add_kernel` and
        wholesale re-registration via :meth:`register_pool` — whether or
        not this runtime's own in-memory cache held an entry (an external
        store may hold selections this runtime never made).
        """
        self._invalidation_hooks.append(hook)

    # ------------------------------------------------------------------
    # Registration facade
    # ------------------------------------------------------------------

    def declare_kernel(self, spec: KernelSpec) -> None:
        """Declare a kernel signature (see :class:`DySelKernelRegistry`)."""
        self.registry.declare(spec)

    def add_kernel(
        self,
        kernel_sig: str,
        implementation: KernelVariant,
        initial_default: bool = False,
    ) -> None:
        """Register one implementation (``DySelAddKernel``, Fig 6a).

        Extending a pool invalidates any cached selection for it: the
        cached winner was chosen against the *old* candidate set, and a
        ``profiling=False`` launch must not silently ignore the new
        variant (nor crash on a name that a replacement removed).
        """
        self.registry.add_kernel(kernel_sig, implementation, initial_default)
        self._invalidate_selection(
            kernel_sig,
            "pool extended by add_kernel",
            ir_hashes=self._pool_ir_hashes(kernel_sig),
        )

    def register_pool(self, pool: VariantPool) -> None:
        """Register a compiler-built pool in one call.

        Re-registering a signature replaces the previous pool (see
        :meth:`DySelKernelRegistry.register_pool`) and invalidates its
        cached selection.  A *first* registration invalidates nothing:
        selections loaded from a persistent store must survive the
        routine pool registration that every serving process performs at
        startup.
        """
        replacing = pool.name in self.registry
        stale_hashes = self._pool_ir_hashes(pool.name) if replacing else ()
        self.registry.register_pool(pool)
        if replacing:
            hashes = set(stale_hashes)
            hashes.update(ir_hash(variant.ir) for variant in pool.variants)
            self._invalidate_selection(
                pool.name, "pool re-registered", ir_hashes=hashes
            )

    def _pool_ir_hashes(self, kernel_sig: str) -> Tuple[str, ...]:
        """IR hashes of a signature's currently registered variants."""
        try:
            pool = self.registry.pool(kernel_sig)
        except RegistrationError:
            return ()
        return tuple(ir_hash(variant.ir) for variant in pool.variants)

    def _invalidate_selection(
        self,
        kernel_sig: str,
        why: str,
        ir_hashes: Optional[Iterable[str]] = None,
    ) -> None:
        """Evict a kernel's cached selection after a registration change.

        Invalidation hooks fire unconditionally (external stores may hold
        selections this runtime never cached); the in-memory eviction and
        its trace event only happen when there was an entry to evict.
        With ``ir_hashes`` given, the engine's cost-kernel memo entries
        for those IRs are dropped too — a re-registered pool may ship a
        structurally different variant under the same name, and stale
        cost arrays must die with the stale selection.
        """
        for hook in self._invalidation_hooks:
            hook(kernel_sig, why)
        if ir_hashes:
            invalidate_cost_memo(ir_hashes)
        if kernel_sig not in self.cache:
            return
        stale = self.cache.lookup(kernel_sig)
        self.cache.invalidate(kernel_sig)
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.CACHE_INVALIDATE,
                kernel_sig,
                self.engine.now,
                stale_variant=stale.selected if stale else None,
                reason=why,
            )

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def launch_kernel(
        self,
        kernel_sig: str,
        args: Mapping[str, object],
        workload_units: int,
        profiling: Union[bool, LaunchIntent] = True,
        mode: Optional[ProfilingMode] = None,
        flow: OrchestrationFlow = OrchestrationFlow.ASYNC,
        initial_variant: Optional[str] = None,
        override_side_effects: bool = False,
        stream_name: Optional[str] = None,
        work_range: Optional[WorkRange] = None,
    ) -> LaunchResult:
        """Launch a kernel (``DySelLaunchKernel``, Fig 6b).

        Parameters
        ----------
        kernel_sig:
            Declared kernel signature name.
        args:
            Concrete argument mapping (validated against the signature).
        workload_units:
            Total workload units of this launch.
        profiling:
            The profiling activation flag (§3.1): ``True`` profiles,
            ``False`` reuses the cached selection (or the pool default).
            The serving layer passes a :class:`~repro.core.policy.LaunchIntent`
            instead — a pinned replay, a drift re-profile, a predicted
            profile, or a backpressure deferral — which
            :func:`policy.decide` resolves against the stronger gates
            (small workload, single variant, quarantine, dominance).
        mode:
            Productive profiling mode override; defaults to the compiler's
            recommendation from uniform-workload/side-effect analyses.
        flow:
            Orchestration flow; the paper's default is asynchronous.
            Swap-mode pools fall back to synchronous (Table 1).
        initial_variant:
            Async-flow initial default override (``Kdefault``).
        override_side_effects:
            The paper's programmer override (§3.4): asserts that global
            atomics are race-free across work-groups, downgrading the
            verifier's conservative atomics findings from ERROR to
            WARNING so fully/hybrid profiling stays available.
        stream_name:
            Stream to attribute a profiling-off batch submission to (the
            serving layer tags each admitted request with its leased
            stream so traces show per-request queues).  Profiled launches
            manage their own per-candidate streams and ignore this.
        work_range:
            Execute only this half-open sub-range of the workload's units
            (the fleet scheduler's work splitting,
            :mod:`repro.serve.scheduler`): output buffers receive exactly
            the slice this range computes, so concurrent devices can each
            run a disjoint part and the caller stitches nothing — the
            parts already wrote disjoint slices.  ``workload_units`` must
            equal ``len(work_range)`` (it is this call's unit count, and
            what LAUNCH_BEGIN records, so ranged traces still reconcile).
            A ranged launch never micro-profiles: any intent but a replay
            is demoted to an unpinned replay with an explicit reason —
            split parts ride the selection their class already has; only
            whole launches pay or re-pay the profile.
        """
        if kernel_sig not in self.registry:
            raise LaunchError(f"kernel {kernel_sig!r} is not registered")
        intent = profiling
        if not isinstance(intent, LaunchIntent):
            intent = LaunchIntent.profile() if intent else LaunchIntent.replay()
        ranged_note = ""
        if work_range is not None:
            if len(work_range) != workload_units:
                raise LaunchError(
                    f"kernel {kernel_sig!r}: work_range {work_range!r} "
                    f"covers {len(work_range)} unit(s) but workload_units="
                    f"{workload_units}; pass the range's own unit count"
                )
            if intent.kind is not IntentKind.REPLAY:
                ranged_note = "; ranged launch never profiles"
                intent = LaunchIntent.replay()
        if self.engine.injector is not None:
            self.engine.injector.kernel = kernel_sig
        pool = self._active_pool(kernel_sig, self.registry.pool(kernel_sig))
        profile_pool, dominated = self._dominance_candidates(
            kernel_sig, pool
        )
        launch = LaunchConfig.create(
            pool.spec.signature, args, workload_units
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                EventKind.LAUNCH_BEGIN,
                kernel_sig,
                self.engine.now,
                workload_units=workload_units,
                profiling_requested=intent.profiling_requested,
                requested_flow=flow.value,
                requested_mode=mode.value if mode is not None else None,
                launch_index=self.engine.launch_count,
                **(
                    {
                        "work_start": work_range.start,
                        "work_end": work_range.end,
                    }
                    if work_range is not None
                    else {}
                ),
            )
            if dominated and intent.profiling_requested:
                tracer.instant(
                    EventKind.DOMINANCE_PRUNE,
                    kernel_sig,
                    self.engine.now,
                    pruned=list(dominated),
                    survivors=list(profile_pool.variant_names),
                    margin=self.config.analyze.dominance_margin,
                    device_kind=self.device.kind,
                )

        decision = policy.decide(
            pool,
            workload_units,
            intent,
            self.cache,
            self.config,
            tracer,
            self.engine.now,
            dominated,
        )
        if not decision.profile:
            if ranged_note:
                decision = replace(
                    decision, reason=decision.reason + ranged_note
                )
            return self._launch_without_profiling(
                pool,
                launch,
                decision,
                stream_name=stream_name,
                work_range=work_range,
            )

        effective_mode = mode if mode is not None else pool.mode
        assert effective_mode is not None
        effective_flow = flow
        reason = decision.reason
        report: Optional[VerificationReport] = None
        if self.config.verify != "off":
            report = self.verifier.verify(
                pool,
                compute_units=self.device.spec.compute_units,
                overrides=VerifyOverrides(
                    atomics_race_free=override_side_effects
                ),
                device_kind=self.device.kind,
                settings=self.config.analyze,
            )
            gate = gate_launch(
                report, effective_mode, effective_flow, self.config.verify
            )
            if tracer.enabled:
                tracer.instant(
                    EventKind.GATE_DECISION,
                    kernel_sig,
                    self.engine.now,
                    requested=f"{effective_mode.value}_{effective_flow.value}",
                    resolved=f"{gate.mode.value}_{gate.flow.value}",
                    demoted=gate.demoted,
                    note=gate.note,
                )
            effective_mode, effective_flow = gate.mode, gate.flow
            if gate.note:
                reason += "; " + gate.note
        elif (
            flow is OrchestrationFlow.ASYNC
            and not effective_mode.supports_async
        ):
            # Pre-verifier fallback (verify="off"): Table 1's silent
            # swap → synchronous demotion.
            effective_flow = OrchestrationFlow.SYNC
            reason += "; swap mode forced synchronous flow"

        try:
            safe = safe_point_plan(
                profile_pool.variants,
                compute_units=self.device.spec.compute_units,
                workload_units=workload_units,
                multiplier=self.config.safe_point_multiplier,
            )
        except AnalysisError as exc:
            # The workload passed the small-workload policy yet cannot
            # host one fair slice (huge LCM of work assignment factors):
            # demote to profiling-off rather than failing the launch.
            planned = None
            note = f"safe point analysis infeasible ({exc})"
            self._warn_demotion(
                pool.name, f"{note}; demoted to profiling-off (pool default)"
            )
            if tracer.enabled:
                tracer.instant(
                    EventKind.PLAN_DEMOTION,
                    pool.name,
                    self.engine.now,
                    from_mode=effective_mode.value,
                    to="profiling-off",
                    error=str(exc),
                )
        else:
            planned = self._plan_with_demotion(
                profile_pool,
                effective_mode,
                effective_flow,
                launch,
                safe,
                report,
            )
        if planned is None:
            # Nothing profilable fits this launch: run the pool default
            # without profiling instead of failing the launch.
            note = (
                "profiling plan infeasible; demoted to profiling-off with "
                "the pool default"
            )
            return self._launch_without_profiling(
                pool,
                launch,
                replace(
                    decision,
                    profile=False,
                    variant_name=pool.initial_default,
                    reason=reason + "; " + note,
                ),
                stream_name=stream_name,
            )
        plan, effective_mode, effective_flow, demotion_note = planned
        if demotion_note:
            reason += "; " + demotion_note

        try:
            if effective_flow is OrchestrationFlow.SYNC:
                outcome = run_sync(
                    self.engine, profile_pool, plan, launch, self.config
                )
            else:
                outcome = run_async(
                    self.engine,
                    profile_pool,
                    plan,
                    launch,
                    self.config,
                    initial_variant=initial_variant,
                )
        except ProfilingFaultError as exc:
            so_far = replace(decision, reason=reason)
            return self._degrade_after_faults(
                kernel_sig, pool, launch, so_far, exc, stream_name
            )
        self.cache.record(outcome.record)
        if outcome.faults:
            self._note_faults(kernel_sig, outcome.faults)
        assert outcome.record.selected is not None
        result = LaunchResult(
            kernel=kernel_sig,
            selected=outcome.record.selected,
            profiled=True,
            mode=effective_mode,
            flow=effective_flow,
            start_cycles=outcome.start_cycles,
            end_cycles=outcome.end_cycles,
            reason=reason,
            basis=decision.basis,
            record=outcome.record,
            eager_chunks=outcome.eager_chunks,
            eager_units=outcome.eager_units,
            profiling_latency_cycles=outcome.profiling_latency_cycles,
        )
        if tracer.enabled:
            tracer.instant(
                EventKind.LAUNCH_END,
                kernel_sig,
                result.end_cycles,
                selected=result.selected,
                profiled=True,
                mode=effective_mode.value,
                flow=effective_flow.value,
                elapsed_cycles=result.elapsed_cycles,
                profiling_latency_cycles=result.profiling_latency_cycles,
                eager_chunks=result.eager_chunks,
                eager_units=result.eager_units,
                reason=reason,
            )
        return result

    def _plan_with_demotion(
        self,
        pool: VariantPool,
        mode: ProfilingMode,
        flow: OrchestrationFlow,
        launch: LaunchConfig,
        safe: SafePointPlan,
        report: Optional[VerificationReport],
    ) -> Optional[
        Tuple[ProfilingPlan, ProfilingMode, OrchestrationFlow, str]
    ]:
        """Lay out the profiling plan, demoting when it does not fit.

        The workload passed the small-workload policy, yet the fair slice
        from safe point analysis can still exceed what the launch has
        (fully-productive needs K slices; a huge LCM of work assignment
        factors can outgrow even one).  Raising here would fail a launch
        that plain execution handles fine, so instead:

        * fully-productive retries as hybrid (one shared slice, K−1
          sandboxes) when the verifier deems hybrid legal for this pool —
          or unconditionally when verification is off;
        * anything still infeasible demotes to profiling-off (``None``),
          and the caller runs the pool default.

        Every demotion warns (:class:`ProfilingDemotionWarning`) and is
        recorded in the trace and the launch reason — the gate's
        warn-level philosophy, applied to plan layout.
        """
        try:
            return plan_profiling(pool, mode, launch, safe), mode, flow, ""
        except ProfilingError as exc:
            first_error = exc

        note = f"profiling plan infeasible for {mode.value} ({first_error})"
        if mode is ProfilingMode.FULLY:
            hybrid_flow = flow
            legal = True
            if report is not None:
                if report.is_legal(ProfilingMode.HYBRID, flow):
                    pass
                elif report.is_legal(
                    ProfilingMode.HYBRID, OrchestrationFlow.SYNC
                ):
                    hybrid_flow = OrchestrationFlow.SYNC
                else:
                    legal = False
            if legal:
                try:
                    plan = plan_profiling(
                        pool, ProfilingMode.HYBRID, launch, safe
                    )
                except ProfilingError:
                    pass
                else:
                    demotion = f"{note}; demoted to hybrid"
                    self._warn_demotion(pool.name, demotion)
                    if self.tracer.enabled:
                        self.tracer.instant(
                            EventKind.PLAN_DEMOTION,
                            pool.name,
                            self.engine.now,
                            from_mode=mode.value,
                            to=f"hybrid_{hybrid_flow.value}",
                            error=str(first_error),
                        )
                    return plan, ProfilingMode.HYBRID, hybrid_flow, demotion

        self._warn_demotion(
            pool.name, f"{note}; demoted to profiling-off (pool default)"
        )
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.PLAN_DEMOTION,
                pool.name,
                self.engine.now,
                from_mode=mode.value,
                to="profiling-off",
                error=str(first_error),
            )
        return None

    def _warn_demotion(self, kernel: str, note: str) -> None:
        """Emit the profiling-demotion warning for one launch."""
        warnings.warn(
            f"kernel {kernel!r}: {note}. The launch continues; set a "
            "larger workload or a smaller safe_point_multiplier to keep "
            "profiling active.",
            ProfilingDemotionWarning,
            stacklevel=4,
        )

    # ------------------------------------------------------------------
    # Fault handling: quarantine filtering and the degradation ladder
    # ------------------------------------------------------------------

    def _active_pool(
        self, kernel_sig: str, pool: VariantPool
    ) -> VariantPool:
        """Filter quarantined variants out of the registered pool.

        A quarantined variant must not be profiled, selected eagerly, or
        replayed from a cached selection; barring it from the pool the
        policy sees covers all three (``policy.decide`` already evicts
        cached winners that are no longer in the pool).  Raises
        :class:`LaunchAbortedError` when every variant is barred —
        nothing can run until parole.
        """
        barred = self.quarantine.quarantined(kernel_sig)
        if not barred:
            return pool
        kept = tuple(v for v in pool.variants if v.name not in barred)
        if not kept:
            raise LaunchAbortedError(
                f"kernel {kernel_sig!r}: every variant is quarantined "
                f"({', '.join(barred)}); nothing can run until parole",
                kernel=kernel_sig,
                quarantined=barred,
            )
        key = (kernel_sig, barred)
        cached = self._restricted_pools.get(key)
        if cached is not None:
            return cached
        default = pool.initial_default
        if default in barred:
            default = kept[0].name
        restricted = VariantPool(
            spec=pool.spec,
            variants=kept,
            mode=pool.mode,
            initial_default=default,
        )
        self._restricted_pools[key] = restricted
        return restricted

    def _dominance_candidates(
        self, kernel_sig: str, pool: VariantPool
    ) -> Tuple[VariantPool, Tuple[str, ...]]:
        """The micro-profiling candidate pool after dominance pruning.

        With ``ReproConfig.analyze.dominance`` off (the default) the pool
        passes through untouched.  On, each variant's static cost
        interval (:mod:`repro.analyze.costbound`, per-unit bounds so the
        verdict holds for every workload size) is compared against the
        best upper bound; variants whose lower bound exceeds it by the
        safety margin are excluded from *profiling only* — the returned
        names never leave the correctness pool, so quarantine fallback,
        pinning, and differential testing still see them.  Composes with
        quarantine: ``pool`` here is already the quarantine-filtered
        active pool, and the cache key includes its variant names.
        """
        settings = self.config.analyze
        if not settings.dominance or len(pool.variants) <= 1:
            return pool, ()
        key = (kernel_sig, pool.variant_names)
        hit = self._dominance_pools.get(key)
        if hit is not None and hit[0] is pool:
            return hit[1], hit[2]
        verdict = pool_cost_bounds(
            pool,
            self.device.kind,
            policy=policy_from_settings(settings),
            margin=settings.dominance_margin,
        )
        pruned_pool, dominated = prune_pool(pool, verdict)
        self._dominance_pools[key] = (pool, pruned_pool, dominated)
        return pruned_pool, dominated

    def _note_faults(
        self, kernel_sig: str, faults: Sequence[FaultRecord]
    ) -> None:
        """Book observed faults into the quarantine ledger.

        Each record counts one strike against its variant; crossing the
        policy threshold quarantines it, emits a trace event, and fires
        the selection-invalidation hooks (a persisted selection pinning a
        now-quarantined variant must not be replayed).
        """
        for record in faults:
            newly = self.quarantine.note_fault(
                kernel_sig, record.variant, record.kind
            )
            if not newly:
                continue
            if self.tracer.enabled:
                self.tracer.instant(
                    EventKind.VARIANT_QUARANTINE,
                    record.variant,
                    self.engine.now,
                    kernel=kernel_sig,
                    fault_kind=record.kind,
                    fault_count=self.quarantine.fault_count(
                        kernel_sig, record.variant
                    ),
                )
            self._invalidate_selection(
                kernel_sig,
                f"variant {record.variant!r} quarantined after repeated "
                "faults",
            )

    def _degrade_after_faults(
        self,
        kernel_sig: str,
        pool: VariantPool,
        launch: LaunchConfig,
        decision: policy.LaunchDecision,
        exc: ProfilingFaultError,
        stream_name: Optional[str],
    ) -> LaunchResult:
        """Profiling lost every candidate: degrade to a profiling-off run.

        The degraded run re-executes the *whole* workload (overwriting
        any garbage a corrupt candidate scribbled into productive slices)
        with the best remaining default: prefer variants that neither
        faulted in this launch nor sit in quarantine, then fall back to
        faulted-but-unquarantined ones.  When nothing remains the launch
        aborts with :class:`LaunchAbortedError`.
        """
        self._note_faults(kernel_sig, exc.faults)
        faulted = tuple(sorted({f.variant for f in exc.faults}))
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.LAUNCH_DEGRADED,
                kernel_sig,
                self.engine.now,
                faults=len(exc.faults),
                faulted=list(faulted),
                error=str(exc),
            )
        active = [
            name
            for name in pool.variant_names
            if not self.quarantine.is_quarantined(kernel_sig, name)
        ]
        if not active:
            raise LaunchAbortedError(
                f"kernel {kernel_sig!r}: profiling faulted on every "
                "candidate and no variant survives quarantine",
                kernel=kernel_sig,
                quarantined=self.quarantine.quarantined(kernel_sig),
                faulted=faulted,
            ) from exc
        clean = [name for name in active if name not in faulted]
        default = clean[0] if clean else active[0]
        note = (
            "profiling faulted on every candidate; degraded to "
            f"profiling-off with {default!r}"
        )
        self._warn_demotion(kernel_sig, note)
        return self._launch_without_profiling(
            pool,
            launch,
            replace(
                decision,
                profile=False,
                variant_name=default,
                reason=decision.reason + "; " + note,
            ),
            stream_name=stream_name,
        )

    def _launch_without_profiling(
        self,
        pool: VariantPool,
        launch: LaunchConfig,
        decision: policy.LaunchDecision,
        stream_name: Optional[str] = None,
        work_range: Optional[WorkRange] = None,
    ) -> LaunchResult:
        """Run the decided variant over the whole workload in one batch.

        ``work_range`` narrows the batch to a sub-range of units (the
        fleet scheduler's split parts); the default covers the whole
        workload.  With a fault injector installed the batch runs through
        the orchestrator's fallback chain: the decided variant first,
        then every non-quarantined sibling, until one finishes the whole
        range cleanly.  Exhausting the chain aborts the launch.
        """
        assert decision.variant_name is not None
        span = (
            work_range
            if work_range is not None
            else WorkRange(0, launch.workload_units)
        )
        start = self.engine.now
        selected = decision.variant_name
        reason = decision.reason
        task = None
        if self.engine.injector is None:
            variant = pool.variant(selected)
            if launch.workload_units > 0:
                task = self.engine.submit(
                    variant,
                    launch.args,
                    span,
                    priority=Priority.BATCH,
                    stream=stream_name,
                )
                self.engine.wait(task)
        elif launch.workload_units > 0:
            candidates = [selected] + [
                name
                for name in pool.variant_names
                if name != selected
                and not self.quarantine.is_quarantined(pool.name, name)
            ]
            faults: List[FaultRecord] = []
            try:
                completed = _run_batch_with_fallback(
                    self.engine,
                    pool,
                    candidates,
                    launch.args,
                    span,
                    self.config,
                    faults,
                    stage="batch",
                    priority=Priority.BATCH,
                    stream=stream_name,
                )
            except ProfilingFaultError as exc:
                self._note_faults(pool.name, exc.faults)
                raise LaunchAbortedError(
                    f"kernel {pool.name!r}: every runnable variant "
                    "faulted on the batch run",
                    kernel=pool.name,
                    quarantined=self.quarantine.quarantined(pool.name),
                    faulted=tuple(sorted({f.variant for f in exc.faults})),
                ) from exc
            self._note_faults(pool.name, faults)
            if completed is not None and completed != selected:
                reason += (
                    f"; default {selected!r} faulted, batch completed by "
                    f"{completed!r}"
                )
                selected = completed
        result = LaunchResult(
            kernel=pool.name,
            selected=selected,
            profiled=False,
            mode=None,
            flow=None,
            start_cycles=start,
            end_cycles=self.engine.now,
            reason=reason,
            basis=decision.basis,
        )
        if self.tracer.enabled:
            if task is not None:
                self.tracer.task_span(
                    EventKind.REMAINDER_BATCH, selected, task
                )
            self.tracer.instant(
                EventKind.LAUNCH_END,
                pool.name,
                result.end_cycles,
                selected=result.selected,
                profiled=False,
                mode=None,
                flow=None,
                elapsed_cycles=result.elapsed_cycles,
                profiling_latency_cycles=0.0,
                eager_chunks=0,
                eager_units=0,
                reason=reason,
            )
        return result
