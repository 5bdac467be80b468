"""Profile leases: at most one in-flight micro-profile per workload class.

The paper's asynchronous flow (§2.4) lets *chunks within one launch* run
eagerly while profiling completes at higher priority.  A serving fleet
generalizes that to *launches within the fleet*: when many concurrent
requests hit the same (pool, device-kind, workload-class), exactly one
should pay the micro-profiling cost — the rest run eagerly with the
current-best variant and pick up the published selection afterwards.
Without this, a cold-start burst of N identical requests would profile N
times, multiplying the warm-up cost the selection cache exists to
amortize.

:class:`ProfileLeaseTable` is that coordination point.  A lease is keyed
by the workload-class key, held by one request, and *stealable*: if the
holder has not released within ``timeout`` clock seconds (it stalled, or
its thread died mid-launch), the next requester takes the lease over so
the class does not starve unprofiled forever.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional


@dataclass
class ProfileLease:
    """One granted lease: who may micro-profile this class, since when."""

    key: str
    holder: int
    acquired_at: float


class ProfileLeaseTable:
    """Thread-safe lease map keyed by workload-class key."""

    #: ``acquire`` results (``None`` means the lease is held by someone
    #: else and still fresh — the caller should run eagerly instead).
    GRANTED = "granted"
    STOLEN = "stolen"
    #: The serve outcome's lease state when the class *would* have
    #: profiled but backpressure postponed it.  No lease entry is
    #: created — the class stays cold and the next requester after
    #: pressure clears races for a real grant.
    DEFERRED = "deferred"

    def __init__(
        self,
        timeout: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Create an empty table.

        ``timeout`` (clock seconds) is how long a lease may be held
        before another requester can steal it; ``None`` disables
        stealing.  ``clock`` is injectable for deterministic tests.
        """
        self.timeout = timeout
        self._clock = clock if clock is not None else time.time
        self._leases: Dict[str, ProfileLease] = {}
        self._lock = threading.Lock()
        self.steals = 0

    def acquire(self, key: str, holder: int) -> Optional[str]:
        """Try to take the profiling lease for a workload class.

        Returns :data:`GRANTED` (no live lease existed), :data:`STOLEN`
        (a lease existed but outlived the timeout), or ``None`` (a fresh
        lease is held elsewhere; do not profile).
        """
        with self._lock:
            now = self._clock()
            lease = self._leases.get(key)
            if lease is None:
                self._leases[key] = ProfileLease(key, holder, now)
                return self.GRANTED
            if (
                self.timeout is not None
                and now - lease.acquired_at > self.timeout
            ):
                self._leases[key] = ProfileLease(key, holder, now)
                self.steals += 1
                return self.STOLEN
            return None

    def release(self, key: str, holder: int) -> bool:
        """Release a lease if ``holder`` still owns it.

        Returns False when the lease was already stolen or released — the
        late holder's publication should then defer to the newer one.
        """
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease.holder != holder:
                return False
            del self._leases[key]
            return True

    @contextlib.contextmanager
    def holding(self, key: str, holder: int) -> Iterator[Optional[str]]:
        """Acquire-and-always-release wrapper around one lease attempt.

        Yields the :meth:`acquire` result (:data:`GRANTED`,
        :data:`STOLEN`, or ``None`` when someone else holds a fresh
        lease).  The release runs in a ``finally`` block, so a profiled
        launch that *raises* — a fault-aborted launch, a verification
        refusal, any bug in the holder — can never leave the class's
        lease stuck until the steal timeout.  Releasing is a no-op when
        nothing was granted or the lease was stolen meanwhile.
        """
        grant = self.acquire(key, holder)
        try:
            yield grant
        finally:
            if grant is not None:
                self.release(key, holder)

    def held(self, key: str) -> bool:
        """Whether any (possibly stale) lease exists for this class."""
        with self._lock:
            return key in self._leases

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)
