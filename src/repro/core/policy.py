"""Launch-time policy: when does DySel actually profile?

Paper §2.1: profiling-based selection is deactivated for small workloads —
launches under ~128 work-groups are both rare (Fig 2) and too small for
the optimization level to matter, while profiling overhead would be
proportionally large.  Paper §3.1: the *profiling activation flag* lets
iterative applications profile only their first iteration; later launches
reuse the cached selection.

A cached selection is only trusted after validation against the *current*
pool: re-registration can replace or extend a pool after a selection was
cached, and a stale winner must never be launched (it may not exist any
more) nor silently preferred over newly registered variants.  Stale
entries are evicted here and the launch falls back to the pool default
with an explicit reason.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..compiler.variants import VariantPool
from ..config import ReproConfig
from ..errors import LaunchError
from ..obs.events import EventKind
from ..obs.tracer import NULL_TRACER, Tracer
from ..predict import Prediction
from .selection import SelectionCache, SelectionRecord


class IntentKind(enum.Enum):
    """The closed set of things a caller can ask of one launch."""

    PROFILE = "profile"
    REPLAY = "replay"
    REPROFILE = "reprofile"
    DEFER = "defer"


@dataclass(frozen=True)
class LaunchIntent:
    """What the caller wants from one launch, decided once.

    Build one with :meth:`profile`, :meth:`replay`, :meth:`reprofile` or
    :meth:`defer`.  ``variant`` is a replay's pinned variant or a
    re-profile's fallback (the variant to serve when the re-profile is
    moot); ``prediction`` is a profile's confident model guess
    (:mod:`repro.predict`).  Any other combination raises, so mixes such
    as "pinned and profiling" or "drift and deferred" cannot be written.
    """

    kind: IntentKind
    variant: Optional[str] = None
    prediction: Optional[Prediction] = None

    def __post_init__(self) -> None:
        kind = self.kind
        if (self.variant is not None and self.profiling_requested) or (
            self.prediction is not None and kind is not IntentKind.PROFILE
        ):
            raise LaunchError(f"a {kind.value} intent cannot carry {self!r}")

    @classmethod
    def profile(cls, prediction: Optional[Prediction] = None) -> "LaunchIntent":
        """Micro-profile, unless a confident ``prediction`` applies."""
        return cls(IntentKind.PROFILE, prediction=prediction)

    @classmethod
    def replay(cls, pinned: Optional[str] = None) -> "LaunchIntent":
        """Run ``pinned`` (if still valid), else cached, else default."""
        return cls(IntentKind.REPLAY, variant=pinned)

    @classmethod
    def reprofile(cls, fallback: Optional[str] = None) -> "LaunchIntent":
        """Re-profile for drift; replay ``fallback`` when that is moot."""
        return cls(IntentKind.REPROFILE, variant=fallback)

    @classmethod
    def defer(cls) -> "LaunchIntent":
        """Backpressure: run the best known variant, do not profile."""
        return cls(IntentKind.DEFER)

    @property
    def profiling_requested(self) -> bool:
        """Whether the caller asked for a micro-profile (paper §3.1)."""
        return self.kind in (IntentKind.PROFILE, IntentKind.DEFER)


class Basis(enum.Enum):
    """The :func:`decide` rule that fired for one launch."""

    DRIFT = "drift"
    PROFILE = "profile"
    PINNED = "pinned"
    CACHED = "cached"
    DEFAULT = "default"
    SMALL_WORKLOAD = "small-workload"
    SINGLE_VARIANT = "single-variant"
    SINGLE_CANDIDATE = "single-candidate"
    PREDICTED = "predicted"
    DEFERRED = "deferred"


@dataclass(frozen=True)
class LaunchDecision:
    """Whether to profile this launch, which variant to use if not, and
    which rule said so (``basis``; ``reason`` is its human-readable text)."""

    profile: bool
    variant_name: Optional[str]
    reason: str
    basis: Basis


def _validated_cached(
    pool: VariantPool,
    cache: SelectionCache,
    tracer: Tracer,
    now: float,
) -> tuple:
    """The cached selection if it names a current variant, else evict it.

    Returns ``(record or None, stale_note)``; ``stale_note`` is non-empty
    when a stale entry was found and evicted.
    """
    cached: Optional[SelectionRecord] = cache.lookup(pool.name)
    if cached is None:
        return None, ""
    if cached.selected in pool.variant_names:
        return cached, ""
    stale_note = (
        f"cached selection {cached.selected!r} is not in the current pool "
        f"(variants: {list(pool.variant_names)}); "
    )
    cache.invalidate(pool.name)
    if tracer.enabled:
        tracer.instant(
            EventKind.CACHE_INVALIDATE,
            pool.name,
            now,
            stale_variant=cached.selected,
            reason="cached variant no longer in pool",
        )
    return None, stale_note


def decide(
    pool: VariantPool,
    workload_units: int,
    intent: LaunchIntent,
    cache: SelectionCache,
    config: ReproConfig,
    tracer: Tracer = NULL_TRACER,
    now: float = 0.0,
    dominated: Sequence[str] = (),
) -> LaunchDecision:
    """Resolve the profiling decision for one launch.

    Precedence, strongest first:

    1. ``reprofile`` (confirmed drift, :mod:`repro.drift`) profiles when
       the workload is large enough and the pool has something to
       select; otherwise the re-profile is moot and the launch replays
       the intent's fallback variant (the caller releases its claim so
       a later, larger launch retries).
    2. ``replay`` (activation flag off) runs the pinned variant if it is
       still in the pool, else the cached selection if it still names a
       pool variant, else the pool default.  A stale pin or cache entry
       is noted in the reason, never launched blind.
    3. ``profile`` and ``defer`` yield to a small workload (§2.1) and to
       a single-variant pool.
    4. ``dominated`` names variants the static cost-bound analysis
       excluded from micro-profiling (:mod:`repro.analyze.dominance`).
       They stay in the correctness pool; a lone survivor is chosen
       outright, and every exclusion is noted as ``"statically
       dominated"``.
    5. A ``profile`` intent's prediction (:mod:`repro.predict`, vetted
       against the confidence threshold by the caller) runs the
       predicted variant when it is a profiling candidate; otherwise the
       launch profiles with an explicit note.
    6. ``defer`` (profiling backpressure, :mod:`repro.serve.qos`) runs
       profiling-off on the cached selection if valid, else the pool
       default, with a ``"deferred by backpressure"`` reason.

    ``tracer``/``now`` report cache traffic to :mod:`repro.obs` when
    tracing is on (``now`` is the engine clock at decision time).
    """
    cached, stale_note = _validated_cached(pool, cache, tracer, now)
    kind = intent.kind
    if kind is IntentKind.REPLAY:
        return _replay(pool, intent.variant, cached, stale_note, tracer, now)
    # Work-groups of the finest-grained variant: the §2.1 size proxy.
    base_groups = workload_units // max(1, min(v.wa_factor for v in pool.variants))
    small = base_groups < config.small_workload_threshold
    if kind is IntentKind.REPROFILE:
        if len(pool.variants) > 1 and not small:
            return LaunchDecision(True, None, "drift re-activation", Basis.DRIFT)
        return _replay(pool, intent.variant, cached, stale_note, tracer, now)

    if small:
        if cached is not None and tracer.enabled:
            tracer.instant(
                EventKind.CACHE_HIT, pool.name, now, selected=cached.selected
            )
        name = cached.selected if cached is not None else pool.initial_default
        return LaunchDecision(
            False,
            name,
            f"small workload ({base_groups} work-groups < "
            f"{config.small_workload_threshold}); profiling deactivated",
            Basis.SMALL_WORKLOAD,
        )

    if len(pool.variants) == 1:
        return LaunchDecision(
            False,
            pool.variants[0].name,
            "single-variant pool; nothing to select",
            Basis.SINGLE_VARIANT,
        )

    excluded = tuple(n for n in dominated if n in pool.variant_names)
    survivors = tuple(n for n in pool.variant_names if n not in excluded)
    notes = ""
    if excluded:
        note = (
            f"{', '.join(repr(n) for n in excluded)} statically dominated"
            " (excluded from profiling)"
        )
        if len(survivors) == 1:
            return LaunchDecision(
                False,
                survivors[0],
                f"single non-dominated candidate; {note}; profiling skipped",
                Basis.SINGLE_CANDIDATE,
            )
        notes = f"; {note}"

    predicted = intent.prediction
    if predicted is not None:
        if predicted.variant in survivors:
            return LaunchDecision(
                False,
                predicted.variant,
                f"predicted selection ({predicted.variant!r}, "
                f"confidence {predicted.confidence:.2f}){notes}",
                Basis.PREDICTED,
            )
        notes += (
            f"; predicted {predicted.variant!r} is not a profiling "
            "candidate"
        )

    if kind is IntentKind.DEFER:
        if cached is not None:
            name, using = cached.selected, "using cached selection"
        else:
            name, using = pool.initial_default, f"{stale_note}using pool default"
        return LaunchDecision(
            False,
            name,
            f"micro-profile deferred by backpressure; {using}{notes}",
            Basis.DEFERRED,
        )
    return LaunchDecision(
        True, None, f"profiling activated{notes}", Basis.PROFILE
    )


def _replay(
    pool: VariantPool,
    pinned: Optional[str],
    cached: Optional[SelectionRecord],
    stale_note: str,
    tracer: Tracer,
    now: float,
) -> LaunchDecision:
    """A profiling-off launch: the pinned variant, cached, or default."""
    if pinned is not None:
        if pinned in pool.variant_names:
            return LaunchDecision(
                False,
                pinned,
                "profiling deactivated; pinned selection reused",
                Basis.PINNED,
            )
        stale_note += (
            f"pinned selection {pinned!r} is not in the current "
            f"pool (variants: {list(pool.variant_names)}); "
        )
    if cached is not None:
        if tracer.enabled:
            tracer.instant(
                EventKind.CACHE_HIT, pool.name, now, selected=cached.selected
            )
        return LaunchDecision(
            False,
            cached.selected,
            "profiling deactivated; cached selection reused",
            Basis.CACHED,
        )
    return LaunchDecision(
        False,
        pool.initial_default,
        f"profiling deactivated; {stale_note}no cached selection, "
        "using default",
        Basis.DEFAULT,
    )


# ----------------------------------------------------------------------
# Placement: the device-kind dimension of the selection tuple
# ----------------------------------------------------------------------

#: Placement policies accepted by :func:`decide_placement`.
PLACEMENT_POLICIES = ("cost-model", "dynamic-load")


@dataclass(frozen=True)
class PlacementCandidate:
    """One device kind's bid for a launch, as seen by the scheduler.

    ``load_cycles`` is the least-loaded same-kind worker's projected
    clock (cycles of already-committed work).  ``measured_cycles`` is the
    store's EWMA estimate for this (kernel, kind, class) scaled to the
    request — ``None`` until the class has been profiled on this kind.
    ``static_cycles`` is the static cost-bound interval midpoint from
    :mod:`repro.analyze.costbound` scaled the same way — ``None`` when
    the analysis could not bound the pool on this kind.  ``quarantined``
    marks a kind whose *entire* pool is currently barred by
    :class:`~repro.faults.quarantine.VariantQuarantine`; such kinds are
    excluded from placement the way quarantined variants are excluded
    from selection.
    """

    device_kind: str
    load_cycles: float = 0.0
    measured_cycles: Optional[float] = None
    static_cycles: Optional[float] = None
    quarantined: bool = False

    @property
    def cost_basis(self) -> str:
        """Which estimate a cost-model placement would use for this kind."""
        if self.measured_cycles is not None:
            return "measured"
        if self.static_cycles is not None:
            return "static"
        return "load"

    @property
    def projected_cycles(self) -> float:
        """Projected finish time under the cost-model policy."""
        cost = self.measured_cycles
        if cost is None:
            cost = self.static_cycles
        if cost is None:
            cost = 0.0
        return self.load_cycles + cost


@dataclass(frozen=True)
class PlacementDecision:
    """Where one launch should run, and why.

    The ``reason`` vocabulary mirrors the variant-selection reasons of
    :func:`decide` so traces read uniformly: ``"pinned device kind"``
    (caller forced the kind), ``"single eligible device kind"`` (nothing
    to choose), ``"dynamic load placement"`` (least projected load wins),
    ``"store-measured placement"`` / ``"static cost-bound placement"``
    (cost-model policy; the winner's estimate came from warm EWMA state
    or from the cold-start static interval midpoint).  Quarantine and
    stale-pin notes are appended the same way :func:`decide` appends
    dominance notes.
    """

    device_kind: str
    reason: str
    projected: Mapping[str, float] = field(default_factory=dict)


def decide_placement(
    kernel: str,
    candidates: Sequence[PlacementCandidate],
    policy: str = "cost-model",
    pinned_kind: Optional[str] = None,
) -> PlacementDecision:
    """Resolve the device-kind dimension for one launch.

    Pure function over the per-kind :class:`PlacementCandidate` bids the
    scheduler assembled, so the precedence rules are testable the same
    way :func:`decide` is.  Precedence, strongest first:

    1. Kinds whose whole pool is quarantined are ineligible (noted).
    2. ``pinned_kind`` wins when it is eligible; a pinned kind that is
       unknown or quarantined is ignored with an explicit note and the
       normal policy runs — mirroring how a stale pinned *variant* falls
       through in :func:`decide`.
    3. A single eligible kind is chosen outright.
    4. ``policy="dynamic-load"`` picks the least projected load
       (the oneDPL ``dynamic_load_policy`` rule).
    5. ``policy="cost-model"`` picks the least *projected finish time*:
       load plus the store-measured EWMA estimate when the class is warm
       on that kind, else the static cost-bound midpoint, else load
       alone.  The reason names the winner's basis, so a trace shows
       cold-start placements flip from ``"static cost-bound placement"``
       to ``"store-measured placement"`` as the store warms.

    Raises :class:`~repro.errors.LaunchError` when no kind is eligible
    or ``policy`` is unknown.
    """
    if policy not in PLACEMENT_POLICIES:
        raise LaunchError(
            f"unknown placement policy {policy!r} "
            f"(expected one of {list(PLACEMENT_POLICIES)})"
        )
    if not candidates:
        raise LaunchError(
            f"kernel {kernel!r}: no device-kind candidates for placement"
        )
    eligible = [c for c in candidates if not c.quarantined]
    barred = [c.device_kind for c in candidates if c.quarantined]
    notes = ""
    if barred:
        notes = (
            f"; {', '.join(repr(k) for k in sorted(barred))} quarantined "
            "(excluded from placement)"
        )
    if not eligible:
        raise LaunchError(
            f"kernel {kernel!r}: every device kind is quarantined "
            f"({', '.join(repr(k) for k in sorted(barred))}); "
            "placement impossible"
        )
    projected = {c.device_kind: c.projected_cycles for c in eligible}
    if pinned_kind is not None:
        chosen = next(
            (c for c in eligible if c.device_kind == pinned_kind), None
        )
        if chosen is not None:
            return PlacementDecision(
                device_kind=chosen.device_kind,
                reason=f"pinned device kind{notes}",
                projected=projected,
            )
        known = {c.device_kind for c in candidates}
        why = "quarantined" if pinned_kind in known else "unknown"
        notes = (
            f"; pinned device kind {pinned_kind!r} is {why} (ignored)"
            + notes
        )
    if len(eligible) == 1:
        return PlacementDecision(
            device_kind=eligible[0].device_kind,
            reason=f"single eligible device kind{notes}",
            projected=projected,
        )
    if policy == "dynamic-load":
        winner = min(eligible, key=lambda c: (c.load_cycles, c.device_kind))
        return PlacementDecision(
            device_kind=winner.device_kind,
            reason=f"dynamic load placement{notes}",
            projected=projected,
        )
    winner = min(eligible, key=lambda c: (c.projected_cycles, c.device_kind))
    basis_reason = {
        "measured": "store-measured placement",
        "static": "static cost-bound placement",
        "load": "dynamic load placement",
    }[winner.cost_basis]
    return PlacementDecision(
        device_kind=winner.device_kind,
        reason=f"{basis_reason}{notes}",
        projected=projected,
    )
