"""The trace-event vocabulary of the DySel runtime.

Every event carries device-clock timestamps (cycles, the unit the whole
simulator speaks).  Span events cover an interval on the timeline
(``ProfileSpan``, ``EagerChunk``, ``RemainderBatch``, host waits);
instant events mark a point (``LaunchBegin``, ``SelectionUpdate``,
cache traffic).  ``args`` holds kind-specific structured payload — the
exporters pass it through verbatim, so anything JSON-representable a
call site records is visible in ``chrome://tracing``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import ReproError


class TraceError(ReproError):
    """Malformed trace event or inconsistent trace stream."""


class EventKind(enum.Enum):
    """What one :class:`TraceEvent` describes.

    Launch-level (emitted by :class:`~repro.core.runtime.DySelRuntime`):

    * ``LAUNCH_BEGIN`` / ``LAUNCH_END`` — instants bracketing one
      ``launch_kernel`` call; ``LAUNCH_END.args`` carries the outcome.
    * ``GATE_DECISION`` — the verifier gate resolved the requested
      (mode, flow), possibly demoting it.
    * ``PLAN_DEMOTION`` — an infeasible profiling plan was demoted
      (fully → hybrid, or profiling switched off) instead of raising.
    * ``CACHE_HIT`` / ``CACHE_INVALIDATE`` — selection-cache traffic.

    Orchestration-level (emitted by :mod:`repro.core.orchestrator`):

    * ``PROFILE_SPAN`` — one candidate's micro-profile, first work-group
      start to last work-group end.
    * ``SELECTION_UPDATE`` — the running best changed hands (or was
      seeded) after observing one measurement.
    * ``EAGER_CHUNK`` — one asynchronous eager chunk's execution span.
    * ``REMAINDER_BATCH`` — the remaining workload's batch span (also
      used for the whole-workload batch of profiling-off launches).

    Engine-level (emitted by :class:`~repro.device.engine.ExecutionEngine`):

    * ``TASK_SUBMIT`` — a kernel launch hit the driver.
    * ``HOST_POLL`` — one completion query (costs host query latency).
    * ``HOST_WAIT`` — the host blocked on a task / set of tasks.
    * ``BARRIER`` — a device-wide synchronize.
    * ``TASK_CANCEL`` — the host abandoned a task (hang cleanup).

    Fault-handling (emitted by the hardened runtime and orchestration
    flows; see :mod:`repro.faults` and ``docs/faults.md``):

    * ``FAULT_INJECT`` — a variant fault was observed and handled;
      ``args`` carries the fault kind, execution stage, and attempts.
    * ``FAULT_RETRY`` — a transient fault is being retried after backoff.
    * ``VARIANT_QUARANTINE`` — a variant crossed the fault threshold and
      was quarantined (barred from selection until parole).
    * ``LAUNCH_DEGRADED`` — profiling lost every candidate and the
      launch fell back to a profiling-off run.

    Serving-level (emitted by :class:`~repro.serve.scheduler.LaunchScheduler`
    on its own scheduler timeline, where "time" is a monotonically
    increasing admission sequence number, not device cycles):

    * ``SERVE_ENQUEUE`` — a request entered the scheduler.
    * ``SERVE_ADMIT`` — the request was admitted onto a device (it holds
      a stream lease from that device's pool).
    * ``PROFILE_LEASE_GRANT`` — this request won the right to micro-profile
      its (pool, device-kind, workload-class); concurrent requests for the
      same class run eagerly with the current best instead.
    * ``PROFILE_LEASE_STEAL`` — a lease that outlived its timeout (holder
      stalled or died) was reassigned to a new request.
    * ``STORE_HIT`` — a persisted selection served this request without
      profiling.
    * ``STORE_EVICT`` — a persisted selection was dropped (TTL expiry or
      registry invalidation).
    * ``PREDICTION`` — a cold workload class skipped its micro-profile:
      the selection predictor (:mod:`repro.predict`) chose the variant
      with confidence above threshold; ``args`` carries the class,
      variant, and confidence.  An instant, so predicted traces still
      reconcile cleanly.
    * ``PREDICTION_FALLBACK`` — the predictor was armed but this cold
      class paid the micro-profile anyway (untrained model, confidence
      below threshold, or the predicted variant rejected by a policy
      gate); ``args`` carries the reason and the confidence when one
      was computed.

    Drift-adaptation (emitted by the scheduler, which drives the
    :mod:`repro.drift` feedback loop, on its sequence timeline).  All
    three are instants, so a drifting trace still reconciles cleanly:

    * ``DRIFT_SUSPECT`` — a workload class's throughput crossed the
      Page–Hinkley threshold once; awaiting confirmation.
    * ``DRIFT_CONFIRMED`` — hysteresis confirmed the change; the stale
      selection was demoted and a re-profile is armed.
    * ``RESELECTION`` — a drift-armed re-profile published a fresh
      winner, closing the episode; ``args`` carries the stale and new
      variants.

    Fleet placement (emitted by :class:`~repro.serve.scheduler.LaunchScheduler`
    on its scheduler timeline when the fleet mixes device kinds; both are
    instants, so heterogeneous traces still reconcile cleanly):

    * ``PLACEMENT`` — the scheduler resolved the *device-kind* dimension
      of the selection tuple for one request; ``args`` carries the chosen
      kind, the placement reason (pinned / single kind / dynamic load /
      store-measured), and the projected cost per candidate kind.
    * ``SPLIT_LAUNCH`` — one large launch was split into per-device
      work ranges and stitched back together; ``args`` carries the part
      ranges, the devices they ran on, and the unit partition.

    Serve QoS (emitted by :class:`~repro.serve.scheduler.LaunchScheduler`
    on its scheduler timeline when a :class:`~repro.serve.QoSConfig` is
    installed; all three are instants, so QoS traces still reconcile
    cleanly):

    * ``ADMISSION`` — the admission controller resolved one request:
      ``args`` carries the tenant, priority, queue depth, and whether it
      was admitted (``admitted=False`` rows are refusals that raised
      :class:`~repro.errors.AdmissionRejected`).
    * ``DEADLINE_MISS`` — a served request's fleet-cycle latency
      exceeded its deadline budget; ``args`` carries the tenant, the
      budget, and the observed latency.
    * ``PROFILE_DEFERRED`` — profiling backpressure postponed a
      micro-profile (or drift re-profile) lease for a cold class under
      overload; ``args`` carries the class, the queue pressure, and
      what was deferred.

    Static-analysis (emitted by the runtime when a profiled launch's
    pool has statically dominated variants; an instant, so traces with
    pruning still reconcile cleanly):

    * ``DOMINANCE_PRUNE`` — the static cost-bound analysis excluded
      variants from the micro-profiling candidate set; ``args`` carries
      the pruned and surviving variant names and the safety margin.
      Pruned variants stay in the correctness pool (quarantine,
      differential testing, and pinning still see them).
    """

    LAUNCH_BEGIN = "launch_begin"
    LAUNCH_END = "launch_end"
    GATE_DECISION = "gate_decision"
    PLAN_DEMOTION = "plan_demotion"
    CACHE_HIT = "cache_hit"
    CACHE_INVALIDATE = "cache_invalidate"
    PROFILE_SPAN = "profile_span"
    SELECTION_UPDATE = "selection_update"
    EAGER_CHUNK = "eager_chunk"
    REMAINDER_BATCH = "remainder_batch"
    TASK_SUBMIT = "task_submit"
    HOST_POLL = "host_poll"
    HOST_WAIT = "host_wait"
    BARRIER = "barrier"
    TASK_CANCEL = "task_cancel"
    FAULT_INJECT = "fault_inject"
    FAULT_RETRY = "fault_retry"
    VARIANT_QUARANTINE = "variant_quarantine"
    LAUNCH_DEGRADED = "launch_degraded"
    SERVE_ENQUEUE = "serve_enqueue"
    SERVE_ADMIT = "serve_admit"
    PROFILE_LEASE_GRANT = "profile_lease_grant"
    PROFILE_LEASE_STEAL = "profile_lease_steal"
    STORE_HIT = "store_hit"
    STORE_EVICT = "store_evict"
    PREDICTION = "prediction"
    PREDICTION_FALLBACK = "prediction_fallback"
    PLACEMENT = "placement"
    SPLIT_LAUNCH = "split_launch"
    DRIFT_SUSPECT = "drift_suspect"
    DRIFT_CONFIRMED = "drift_confirmed"
    RESELECTION = "reselection"
    DOMINANCE_PRUNE = "dominance_prune"
    ADMISSION = "admission"
    DEADLINE_MISS = "deadline_miss"
    PROFILE_DEFERRED = "profile_deferred"


#: Kinds that are always spans (the rest are instants).
SPAN_KINDS = frozenset(
    {
        EventKind.PROFILE_SPAN,
        EventKind.EAGER_CHUNK,
        EventKind.REMAINDER_BATCH,
        EventKind.HOST_WAIT,
        EventKind.BARRIER,
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped observation of the runtime.

    ``name`` identifies the subject (kernel signature for launch-level
    events, variant name for profiling/execution spans).  A ``None``
    ``end_cycles`` marks an instant event.
    """

    kind: EventKind
    name: str
    start_cycles: float
    end_cycles: Optional[float] = None
    args: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_cycles is not None and self.end_cycles < self.start_cycles:
            raise TraceError(
                f"{self.kind.value} event {self.name!r} ends before it "
                f"starts ({self.end_cycles} < {self.start_cycles})"
            )

    @property
    def is_span(self) -> bool:
        """Whether this event covers an interval (vs. an instant)."""
        return self.end_cycles is not None

    @property
    def duration_cycles(self) -> float:
        """Span length in cycles (0 for instants)."""
        if self.end_cycles is None:
            return 0.0
        return self.end_cycles - self.start_cycles
