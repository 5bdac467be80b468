"""Global configuration for the DySel reproduction.

The simulator is deterministic given a seed: all measurement noise, workload
generation, and scheduling tie-breaks draw from RNG streams derived from a
single root seed.  Experiments construct a :class:`ReproConfig` and thread it
through devices and workloads; library defaults are chosen so that
``ReproConfig()`` reproduces the paper-shaped results out of the box.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError

#: Default root seed.  Chosen arbitrarily; fixed so results are reproducible.
DEFAULT_SEED = 20160402  # ASPLOS'16 started April 2, 2016.

#: Work-group-count threshold below which DySel deactivates profiling
#: (paper §2.1: "profiling-based kernel selection is deactivated for small
#: workload"; Figure 2 drops launches under 128 work-groups).
SMALL_WORKLOAD_THRESHOLD = 128


@dataclass(frozen=True)
class NoiseModel:
    """Measurement / execution noise parameters.

    The paper (§5.2) observes that profiling accuracy degrades when the
    profiled unit of work is tiny relative to system noise (95% selection
    accuracy on CPU spmv-csr).  We model two noise sources:

    * ``execution_jitter`` — multiplicative lognormal jitter applied to each
      work-group's true cost (system noise, frequency scaling, ...).
    * ``timer_quantum`` — granularity of the simulated cycle counter; tiny
      measurements are rounded to this quantum, losing resolution exactly
      when the paper says wall-clock timers become unreliable (§3.3).
    """

    execution_jitter: float = 0.02
    timer_quantum: float = 1.0

    def __post_init__(self) -> None:
        if self.execution_jitter < 0:
            raise ConfigurationError(
                f"execution_jitter must be >= 0, got {self.execution_jitter}"
            )
        if self.timer_quantum <= 0:
            raise ConfigurationError(
                f"timer_quantum must be > 0, got {self.timer_quantum}"
            )


@dataclass(frozen=True)
class FaultPolicy:
    """Runtime fault-tolerance knobs (:mod:`repro.faults`, ``docs/faults.md``).

    Controls how the hardened runtime reacts to :class:`~repro.errors.VariantFault`
    failures: transient faults are retried with capped exponential backoff
    (``backoff_base_cycles × 2^attempt``, capped at ``backoff_cap_cycles``),
    hung tasks are declared dead once a profiling wait exceeds
    ``hang_deadline_cycles`` on the device clock, and a variant that
    accumulates ``quarantine_threshold`` faults is quarantined for
    ``parole_ttl`` clock seconds before it may run again on parole.
    """

    #: Transient-fault resubmission attempts per submission (0 disables).
    max_retries: int = 3
    #: First retry's host-side backoff, in device cycles.
    backoff_base_cycles: float = 500.0
    #: Exponential backoff ceiling, in device cycles.
    backoff_cap_cycles: float = 8_000.0
    #: Device cycles a profiling wait may block before declaring a hang.
    hang_deadline_cycles: float = 5_000_000.0
    #: Faults (lifetime, per variant) that trigger quarantine.
    quarantine_threshold: int = 2
    #: Quarantine duration in ledger-clock seconds (``None`` = forever).
    parole_ttl: Optional[float] = 600.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_cycles < 0 or self.backoff_cap_cycles < 0:
            raise ConfigurationError(
                "backoff cycles must be >= 0, got "
                f"{self.backoff_base_cycles}/{self.backoff_cap_cycles}"
            )
        if self.hang_deadline_cycles <= 0:
            raise ConfigurationError(
                "hang_deadline_cycles must be > 0, got "
                f"{self.hang_deadline_cycles}"
            )
        if self.quarantine_threshold < 1:
            raise ConfigurationError(
                "quarantine_threshold must be >= 1, got "
                f"{self.quarantine_threshold}"
            )
        if self.parole_ttl is not None and self.parole_ttl <= 0:
            raise ConfigurationError(
                f"parole_ttl must be positive or None, got {self.parole_ttl}"
            )

    def backoff_cycles(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_base_cycles * (2.0 ** (attempt - 1)),
            self.backoff_cap_cycles,
        )


@dataclass(frozen=True)
class RuleAdjustment:
    """One configured severity adjustment of a verifier rule.

    ``action`` is ``"suppress"`` (drop the diagnostic) or ``"downgrade"``
    (ERROR → WARNING, keeping the finding visible).  ``pools`` restricts
    the adjustment to pools whose label contains any of the given
    substrings; empty means every pool.  Rule-id existence is validated by
    the analyze layer against its registry (unknown ids are configuration
    errors there — this module cannot import the registry without a
    cycle).
    """

    rule_id: str
    action: str = "suppress"
    pools: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ("suppress", "downgrade"):
            raise ConfigurationError(
                "rule adjustment action must be 'suppress' or 'downgrade', "
                f"got {self.action!r} for {self.rule_id!r}"
            )
        if not self.rule_id:
            raise ConfigurationError("rule adjustment needs a rule_id")

    def matches(self, pool_label: str) -> bool:
        """Whether the adjustment applies to a pool label."""
        return not self.pools or any(sub in pool_label for sub in self.pools)


@dataclass(frozen=True)
class AnalyzeSettings:
    """Static cost-bound analysis knobs (:mod:`repro.analyze`).

    The runtime always prunes statically dominated variants from its
    micro-profiling candidate sets (never from the correctness pool).
    ``dominance_margin`` (``>= 1``) is the safety factor a variant's
    best case must exceed a rival's worst case by before it is pruned;
    ``float("inf")`` prunes nothing, so every variant is profiled.

    ``data_trip_bounds`` is the widening interval assumed for any
    data-dependent loop's per-unit trip count; workloads outside it void
    the interval-soundness guarantee.
    """

    dominance_margin: float = 1.25
    data_trip_bounds: Tuple[float, float] = (0.0, 4096.0)
    #: Configured per-rule severity adjustments (``[tool.repro.analyze]``).
    rules: Tuple[RuleAdjustment, ...] = ()

    def __post_init__(self) -> None:
        if self.dominance_margin < 1.0:
            raise ConfigurationError(
                "dominance_margin must be >= 1, got "
                f"{self.dominance_margin}"
            )
        lo, hi = self.data_trip_bounds
        if lo < 0 or hi < lo:
            raise ConfigurationError(
                "data_trip_bounds must satisfy 0 <= lo <= hi, got "
                f"{self.data_trip_bounds}"
            )


@dataclass(frozen=True)
class ReproConfig:
    """Root configuration threaded through devices, workloads and harness."""

    seed: int = DEFAULT_SEED
    noise: NoiseModel = field(default_factory=NoiseModel)
    #: Constant multiplier from safe point analysis (paper §3.4): the
    #: normalized profiling workload is scaled to a multiple of the number of
    #: compute units "to fully utilize the hardware".
    safe_point_multiplier: int = 1
    #: Work-group-count threshold for deactivating profiling.
    small_workload_threshold: int = SMALL_WORKLOAD_THRESHOLD
    #: Number of work-groups dispatched per eager chunk in asynchronous mode
    #: (paper §2.4: eager execution is "a series of chunks").  Expressed as a
    #: multiple of the device's compute-unit count.
    eager_chunk_units: int = 1
    #: Static kernel-pool verification level (:mod:`repro.analyze`):
    #: ``"strict"`` refuses illegal (mode, flow) launches with the full
    #: diagnostic, ``"warn"`` emits a warning and auto-demotes to the
    #: cheapest legal combination, ``"off"`` skips verification entirely
    #: (pre-verifier behaviour).
    verify: str = "warn"
    #: Fault-tolerance policy (:mod:`repro.faults`): retry/backoff caps,
    #: hang deadlines, and quarantine thresholds for the hardened runtime.
    faults: FaultPolicy = field(default_factory=FaultPolicy)
    #: Runtime tracing (:mod:`repro.obs`): when set, runtimes and engines
    #: record structured launch events (profile spans, eager chunks,
    #: selection updates, cache traffic) for export to Chrome trace JSON
    #: / text timelines.  Off by default: the disabled path costs one
    #: branch per instrumentation site.
    trace: bool = False
    #: Static cost-bound analysis settings (:mod:`repro.analyze`):
    #: the dominance pruning margin for profiling candidates, interval
    #: widening bounds, and configured rule-severity adjustments.
    analyze: AnalyzeSettings = field(default_factory=AnalyzeSettings)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.safe_point_multiplier < 1:
            raise ConfigurationError(
                "safe_point_multiplier must be >= 1, got "
                f"{self.safe_point_multiplier}"
            )
        if self.small_workload_threshold < 0:
            raise ConfigurationError(
                "small_workload_threshold must be >= 0, got "
                f"{self.small_workload_threshold}"
            )
        if self.eager_chunk_units < 1:
            raise ConfigurationError(
                f"eager_chunk_units must be >= 1, got {self.eager_chunk_units}"
            )
        if self.verify not in ("strict", "warn", "off"):
            raise ConfigurationError(
                "verify must be one of 'strict', 'warn', 'off', got "
                f"{self.verify!r}"
            )

    def rng(self, *stream: object) -> np.random.Generator:
        """Return an independent RNG for the named stream.

        Streams are identified by arbitrary hashable labels, e.g.
        ``config.rng("noise", device_name)``.  The same labels always yield
        the same stream for a given root seed, and distinct labels yield
        statistically independent streams.
        """
        key = [self.seed] + [_stable_hash(part) for part in stream]
        return np.random.default_rng(key)

    def with_noise(self, **changes: float) -> "ReproConfig":
        """Return a copy with noise-model fields replaced."""
        return replace(self, noise=replace(self.noise, **changes))

    def without_noise(self) -> "ReproConfig":
        """Return a copy with all noise disabled (for oracle runs)."""
        return replace(
            self, noise=NoiseModel(execution_jitter=0.0, timer_quantum=1e-12)
        )


def _stable_hash(part: object) -> int:
    """Hash ``part`` to a 32-bit int, stable across processes.

    ``hash()`` on str/bytes is salted per interpreter process
    (PYTHONHASHSEED), which would make RNG streams irreproducible across
    runs; we hash the repr with blake2 instead.
    """
    digest = hashlib.blake2s(repr(part).encode("utf-8"), digest_size=4)
    return int.from_bytes(digest.digest(), "little")


#: Library-wide default configuration instance.
DEFAULT_CONFIG = ReproConfig()
