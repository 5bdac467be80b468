"""Serve-layer QoS: admission control, fair queuing, and backpressure.

The scheduler's stream pools bound *per-device* concurrency, but nothing
bounded what piles up in front of them: under overload every client
thread queued on stream locks with no ordering, no tenant isolation, and
no shedding.  :class:`AdmissionController` puts a QoS layer in front:

- **Bounded queue**: at most ``max_queue_depth`` requests wait; the next
  one is refused with a structured
  :class:`~repro.errors.AdmissionRejected` so clients can shed load.
- **Strict priority classes** with **weighted fair sharing** inside a
  class: when a slot frees, the highest class wins; within it, the
  tenant with the least admitted-work-per-weight; within a tenant, the
  earliest deadline (EDF), then arrival order.
- **Anti-starvation aging**: a waiter bypassed ``max_bypass`` times is
  promoted to the front regardless of class, so sustained high-priority
  load cannot starve background tenants forever (strict priority would).
- **Profiling backpressure**: queue pressure (waiting / bound) crossing
  ``defer_watermark`` flips the controller into *deferring* mode — the
  scheduler then runs cold classes on the device's cached selection or
  the pool default instead of taking new micro-profile leases — and pressure
  falling to ``resume_watermark`` flips it back (hysteresis, so the flag
  does not flap at the boundary).  DySel's asynchronous flow makes the
  deferral legal: profiling is an optimization overlapped with
  productive work, never a correctness requirement.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AdmissionRejected, ServeError

#: Default bound on waiting (not yet admitted) requests.
DEFAULT_QUEUE_DEPTH = 64

#: Default bypass count after which a waiter is aged to the front.
DEFAULT_MAX_BYPASS = 64


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service contract, as the scheduler sees it.

    ``priority`` is a strict admission class — 0 is the highest; a
    request never waits behind a lower class (modulo anti-starvation
    aging).  ``weight`` is the fair-share weight among tenants of the
    same class.  ``deadline_cycles`` is the default per-request latency
    budget in fleet cycles (``None`` = no deadline); individual requests
    may override it.
    """

    name: str
    priority: int = 1
    weight: float = 1.0
    deadline_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant name must be non-empty")
        if self.priority < 0:
            raise ServeError(
                f"tenant {self.name!r}: priority must be >= 0, "
                f"got {self.priority}"
            )
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ServeError(
                f"tenant {self.name!r}: weight must be finite and > 0, "
                f"got {self.weight}"
            )
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise ServeError(
                f"tenant {self.name!r}: deadline_cycles must be > 0, "
                f"got {self.deadline_cycles}"
            )


@dataclass(frozen=True)
class QoSConfig:
    """Admission, fairness, and backpressure knobs for one scheduler.

    ``max_inflight`` bounds concurrently admitted requests (``None``
    derives the fleet's stream capacity).  Watermarks are fractions of
    ``max_queue_depth``: deferring engages when waiting/bound reaches
    ``defer_watermark`` and releases when it falls to
    ``resume_watermark``.  ``defer_watermark=0.0`` defers permanently
    (profiling fully off under QoS — the benchmark's "backpressure
    always on" arm); any value > 1 never engages (the "off" arm).
    """

    tenants: Tuple[TenantSpec, ...] = ()
    max_queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_inflight: Optional[int] = None
    defer_watermark: float = 0.75
    resume_watermark: float = 0.25
    max_bypass: int = DEFAULT_MAX_BYPASS
    #: Contract for tenants not listed in ``tenants``.
    default_tenant: TenantSpec = field(
        default_factory=lambda: TenantSpec("default")
    )

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1 or None, got {self.max_inflight}"
            )
        if self.defer_watermark < 0 or not math.isfinite(
            self.defer_watermark
        ):
            raise ServeError(
                f"defer_watermark must be finite and >= 0, "
                f"got {self.defer_watermark}"
            )
        if not 0 <= self.resume_watermark <= self.defer_watermark:
            raise ServeError(
                f"resume_watermark must be in [0, defer_watermark], got "
                f"{self.resume_watermark} (defer={self.defer_watermark})"
            )
        if self.max_bypass < 1:
            raise ServeError(
                f"max_bypass must be >= 1, got {self.max_bypass}"
            )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate tenant names: {names}")

    def spec(self, tenant: Optional[str]) -> TenantSpec:
        """The contract for one tenant name (default when unlisted)."""
        for candidate in self.tenants:
            if candidate.name == tenant:
                return candidate
        if tenant is None or tenant == self.default_tenant.name:
            return self.default_tenant
        # Unlisted tenants share the default contract under their own
        # accounting identity.
        return TenantSpec(
            tenant,
            priority=self.default_tenant.priority,
            weight=self.default_tenant.weight,
            deadline_cycles=self.default_tenant.deadline_cycles,
        )


class _Waiter:
    """One queued request: its contract, deadline, and wake-up event."""

    __slots__ = (
        "tenant", "priority", "weight", "deadline", "seq", "bypasses",
        "event",
    )

    def __init__(
        self,
        tenant: str,
        priority: int,
        weight: float,
        deadline: Optional[float],
        seq: int,
    ) -> None:
        self.tenant = tenant
        self.priority = priority
        self.weight = weight
        self.deadline = deadline
        self.seq = seq
        self.bypasses = 0
        self.event = threading.Event()


class AdmissionController:
    """Thread-safe bounded admission with fairness and backpressure."""

    def __init__(self, config: QoSConfig, capacity: int) -> None:
        if capacity < 1:
            raise ServeError(f"capacity must be >= 1, got {capacity}")
        self.config = config
        self.capacity = capacity
        self._lock = threading.Lock()
        self._waiters: List[_Waiter] = []
        self._inflight = 0
        self._tenant_inflight: Dict[str, int] = {}
        self._ticket = itertools.count()
        self._deferring = False
        # Lifetime counters (read under the lock via snapshot()).
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_tenant: Dict[str, int] = {}
        self.max_depth_seen = 0
        self.defer_transitions = 0

    # ------------------------------------------------------------------
    # Pressure / backpressure state
    # ------------------------------------------------------------------

    def _pressure_locked(self) -> float:
        return len(self._waiters) / self.config.max_queue_depth

    def _update_deferring_locked(self) -> None:
        pressure = self._pressure_locked()
        if not self._deferring and pressure >= self.config.defer_watermark:
            self._deferring = True
            self.defer_transitions += 1
        elif self._deferring and pressure <= self.config.resume_watermark:
            # A zero defer watermark pins the controller in deferring
            # mode: "resume" would immediately re-engage, so don't flap.
            if self.config.defer_watermark > 0:
                self._deferring = False

    @property
    def deferring(self) -> bool:
        """Whether profiling backpressure is currently engaged."""
        with self._lock:
            return self._deferring

    def pressure(self) -> float:
        """Current queue pressure: waiting requests / queue bound."""
        with self._lock:
            return self._pressure_locked()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(
        self,
        tenant: str,
        priority: int,
        weight: float,
        deadline: Optional[float] = None,
    ) -> int:
        """Block until admitted; returns the waits this request endured.

        Raises :class:`~repro.errors.AdmissionRejected` when the waiting
        queue is at ``max_queue_depth``.  Every successful ``admit`` must
        be paired with exactly one :meth:`release` (the scheduler does so
        in a ``finally``).
        """
        with self._lock:
            if self._inflight < self.capacity and not self._waiters:
                # Keep the backpressure flag fresh even on the fast
                # path: a zero defer watermark engages from the very
                # first admit, not from the first queued waiter.
                self._update_deferring_locked()
                self._grant_locked(tenant)
                return 0
            if len(self._waiters) >= self.config.max_queue_depth:
                self.rejected += 1
                self.rejected_by_tenant[tenant] = (
                    self.rejected_by_tenant.get(tenant, 0) + 1
                )
                raise AdmissionRejected(
                    f"admission queue full ({len(self._waiters)} waiting "
                    f">= bound {self.config.max_queue_depth}); request "
                    f"from tenant {tenant!r} refused",
                    tenant=tenant,
                    queue_depth=len(self._waiters),
                    limit=self.config.max_queue_depth,
                )
            waiter = _Waiter(
                tenant, priority, weight, deadline, next(self._ticket)
            )
            self._waiters.append(waiter)
            self.max_depth_seen = max(
                self.max_depth_seen, len(self._waiters)
            )
            self._update_deferring_locked()
        waiter.event.wait()
        return waiter.bypasses

    def release(self, tenant: str) -> None:
        """Retire one admitted request and wake the next waiter, if any."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if tenant in self._tenant_inflight:
                remaining = self._tenant_inflight[tenant] - 1
                if remaining > 0:
                    self._tenant_inflight[tenant] = remaining
                else:
                    del self._tenant_inflight[tenant]
            self._wake_next_locked()

    def _grant_locked(self, tenant: str) -> None:
        self._inflight += 1
        self._tenant_inflight[tenant] = (
            self._tenant_inflight.get(tenant, 0) + 1
        )
        self.admitted += 1

    def _wake_next_locked(self) -> None:
        if not self._waiters or self._inflight >= self.capacity:
            self._update_deferring_locked()
            return
        chosen = self._select_locked()
        self._waiters.remove(chosen)
        for waiter in self._waiters:
            waiter.bypasses += 1
        self._grant_locked(chosen.tenant)
        self._update_deferring_locked()
        chosen.event.set()

    def _select_locked(self) -> _Waiter:
        """Pick the next waiter: aging > priority > fair share > EDF.

        Aged waiters are ordered by how long they have been bypassed
        (ties: earliest arrival), *not* by priority — ordering the aged
        pool by priority again would let a sustained high-priority
        stream starve a background waiter forever, since every bypass
        ages the whole queue together.
        """
        aged = [
            w
            for w in self._waiters
            if w.bypasses >= self.config.max_bypass
        ]
        if aged:
            return max(aged, key=lambda w: (w.bypasses, -w.seq))
        pool = self._waiters
        top = min(w.priority for w in pool)
        pool = [w for w in pool if w.priority == top]

        def share(waiter: _Waiter) -> float:
            return (
                self._tenant_inflight.get(waiter.tenant, 0) / waiter.weight
            )

        least = min(share(w) for w in pool)
        pool = [w for w in pool if share(w) == least]
        return min(
            pool,
            key=lambda w: (
                w.deadline if w.deadline is not None else math.inf,
                w.seq,
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A consistent counter snapshot (for stats and benches)."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "waiting": len(self._waiters),
                "pressure": self._pressure_locked(),
                "deferring": self._deferring,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "rejected_by_tenant": dict(self.rejected_by_tenant),
                "max_depth_seen": self.max_depth_seen,
                "defer_transitions": self.defer_transitions,
            }
