"""Persistent, input-aware selection store (JSON on disk).

Cross-run persistence is what amortizes micro-profiling in real pipelines:
a serving process that restarts should not pay the warm-up again for
workload classes it has already measured.  :class:`SelectionStore` keeps
one :class:`StoreEntry` per workload-class key (see
:mod:`repro.serve.signature`), supports atomic JSON save/load with an
explicit schema version, ages entries out on a TTL so stale winners
re-profile, and exposes the invalidation surface the runtime's
registration hooks call into.

Four decay/invalidation mechanisms, from cheapest to strongest:

* **EWMA update** — re-profiles of a known class fold into the stored
  cycles-per-unit estimate instead of overwriting it.
* **TTL expiry** — entries older than ``ttl`` (seconds on the injected
  clock) are evicted at lookup time; the next request for that class
  acquires a profile lease and re-measures.
* **Drift decay** — a confirmed throughput drift (:mod:`repro.drift`)
  demotes the stale entry via :meth:`SelectionStore.decay`: it keeps
  serving for a grace period while one armed re-profile replaces it,
  but stops being immortal.
* **Registry invalidation** — pool re-registration/extension drops every
  entry of that kernel immediately (the candidate set changed; all bets
  are off), via :meth:`SelectionStore.invalidate_kernel` wired to
  :meth:`repro.core.runtime.DySelRuntime.add_invalidation_hook`.

The store is thread-safe; every method may be called concurrently from
serving threads.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, Optional

from ..drift import DriftConfig, ReselectionController
from ..errors import DriftError, PredictError, StoreError, StoreSchemaError
from ..faults.quarantine import VariantQuarantine
from ..predict import PredictConfig, SelectionPredictor

#: On-disk schema version.  Bump when the entry layout *or the key
#: derivation rules* change incompatibly — a persisted key is only
#: meaningful under the feature-bucketing rules that produced it.
#: v3: signature degenerate-input features (``.empty``, clamped density
#: decade) changed the key space, entries carry a ``predicted`` flag,
#: and snapshots may carry a fitted selection predictor.
#: v4: entries carry an explicit ``device_kind`` (the placement dimension
#: of the selection tuple, :mod:`repro.core.policy`), and stores may be
#: sharded across per-shard files (:mod:`repro.serve.shards`).  The key
#: derivation rules are unchanged from v3, so v3 files are *migrated* on
#: load (``device_kind`` is recovered from the key) instead of rejected.
SCHEMA_VERSION = 4

#: Older schema versions :meth:`SelectionStore.load` migrates in place.
#: Only versions whose key-derivation rules match the current build may
#: appear here — migration recovers missing fields, never reinterprets
#: keys.
MIGRATABLE_VERSIONS = (3,)

#: Default EWMA smoothing factor for repeated measurements of one class.
DEFAULT_EWMA_ALPHA = 0.3

#: Default grace period (clock seconds) a drift-demoted entry keeps
#: serving before it expires outright.  Long enough for the armed
#: re-profile to land on the next launch; short enough that a class with
#: no further traffic does not pin a stale winner forever.
DEFAULT_DECAY_GRACE = 300.0


@dataclass
class StoreEntry:
    """One workload class's persisted selection."""

    #: Workload-class key (:attr:`WorkloadSignature.key`).
    key: str
    #: Kernel signature name (denormalized from the key for invalidation).
    kernel: str
    #: Winning variant name.
    selected: str
    #: Profiling mode / orchestration flow that produced the selection
    #: (string values of the enums; informational).
    mode: Optional[str]
    flow: Optional[str]
    #: EWMA of the winner's measured cycles per workload unit.
    cycles_per_unit: float
    #: How many profiled launches folded into the EWMA.
    samples: int = 1
    #: Store-clock timestamp of the last update (drives TTL).
    recorded_at: float = 0.0
    #: How many lookups this entry has served.
    hits: int = 0
    #: Whether the selection came from the predictor instead of a
    #: micro-profile (:mod:`repro.predict`).  Predicted entries serve
    #: and drift like measured ones but are excluded from training, and
    #: a drift confirmation on one feeds back a training correction.
    predicted: bool = False
    #: Drift demotion deadline: absolute store-clock time after which the
    #: entry expires regardless of TTL (``None`` = not demoted).  Set by
    #: :meth:`SelectionStore.decay` when drift confirms the selection is
    #: stale; cleared by the next :meth:`SelectionStore.publish`.
    decay_at: Optional[float] = None

    #: Device kind the selection was measured on (the placement dimension
    #: of the selection tuple).  Denormalized from the key — the second
    #: ``|``-separated key field — so placement costing never re-parses
    #: keys.  Empty only for hand-built entries with non-signature keys.
    device_kind: str = ""

    def observe(self, cycles_per_unit: float, alpha: float) -> None:
        """Fold one fresh measurement into the EWMA."""
        self.cycles_per_unit += alpha * (cycles_per_unit - self.cycles_per_unit)
        self.samples += 1


def device_kind_from_key(key: str) -> str:
    """The device-kind field of a workload-class key.

    Keys are ``kernel|device_kind|feature=value|...``
    (:attr:`repro.serve.signature.WorkloadSignature.key`); a key without
    a second field yields ``""``.  Used to populate
    :attr:`StoreEntry.device_kind` and to migrate v3 snapshots.
    """
    parts = key.split("|")
    return parts[1] if len(parts) > 1 else ""


@dataclass
class StoreStats:
    """Lookup/update counters (monotonic over the store's lifetime)."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    invalidations: int = 0
    puts: int = 0
    decays: int = 0


#: Fields a persisted entry must carry, with their required types.
_REQUIRED_FIELDS = (
    ("key", str),
    ("kernel", str),
    ("selected", str),
    ("cycles_per_unit", (int, float)),
)


def parse_entry(raw: object, now: float, source: str) -> StoreEntry:
    """Rehydrate one persisted entry dict into a :class:`StoreEntry`.

    ``source`` names the file for error messages.  Entries written by a
    migratable schema (v3) lack ``device_kind``; it is recovered from the
    key — the key-derivation rules did not change between v3 and v4, so
    the recovery is exact.  Raises :class:`StoreError` on corrupt shapes.
    """
    if not isinstance(raw, dict):
        raise StoreError(
            f"selection store {source!r} is corrupt: entry {raw!r} "
            "is not an object"
        )
    for name, types in _REQUIRED_FIELDS:
        if not isinstance(raw.get(name), types):
            raise StoreError(
                f"selection store {source!r} is corrupt: entry "
                f"{raw.get('key')!r} field {name!r} is "
                f"{raw.get(name)!r}"
            )
    age = float(raw.get("age", 0.0))
    decay_in = raw.get("decay_in")
    return StoreEntry(
        key=raw["key"],
        kernel=raw["kernel"],
        selected=raw["selected"],
        mode=raw.get("mode"),
        flow=raw.get("flow"),
        cycles_per_unit=float(raw["cycles_per_unit"]),
        samples=int(raw.get("samples", 1)),
        recorded_at=now - age,
        hits=int(raw.get("hits", 0)),
        predicted=bool(raw.get("predicted", False)),
        decay_at=None if decay_in is None else now + float(decay_in),
        device_kind=str(
            raw.get("device_kind") or device_kind_from_key(raw["key"])
        ),
    )


def _atomic_write_json(path: str, doc: Dict[str, object]) -> None:
    """Write a JSON document atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_side_state(store, doc: Dict[str, object], where: str) -> None:
    """Arm a store's quarantine ledger, drift loop and predictor.

    ``doc`` is a parsed snapshot (a single-file store, or a sharded
    store's meta document) and ``where`` names it in error messages.
    The caller's drift/predict tuning wins: a snapshot section only
    contributes history (baselines and episodes, examples and fitted
    trees).  A snapshot predictor the caller did not ask for is armed
    with the snapshot's own config rather than silently dropped.
    Raises :class:`StoreError` for a malformed section.
    """
    sections = {
        name: doc.get(name) for name in ("quarantine", "drift", "predict")
    }
    for name, payload in sections.items():
        if payload is not None and not isinstance(payload, dict):
            raise StoreError(
                f"{where} is corrupt: {name!r} is "
                f"{type(payload).__name__}, expected an object"
            )
    if sections["quarantine"] is not None:
        store.quarantine.load_payload(sections["quarantine"])
    try:
        if sections["drift"] is not None:
            assert store.drift is not None
            store.drift.load_payload(sections["drift"])
        predict_doc = sections["predict"]
        if predict_doc is not None:
            if store.predictor is not None:
                store.predictor.load_payload(predict_doc)
            else:
                store.predictor = SelectionPredictor.from_payload(
                    predict_doc
                )
    except (DriftError, PredictError) as exc:
        raise StoreError(f"{where} is corrupt: {exc}") from exc


class SelectionStore:
    """Thread-safe persistent map: workload-class key → selection."""

    def __init__(
        self,
        ttl: Optional[float] = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        clock: Optional[Callable[[], float]] = None,
        drift: Optional[DriftConfig] = None,
        decay_grace: float = DEFAULT_DECAY_GRACE,
        predict: Optional[PredictConfig] = None,
    ) -> None:
        """Create an empty store.

        Parameters
        ----------
        ttl:
            Entry lifetime in clock seconds; ``None`` disables expiry.
        ewma_alpha:
            Smoothing factor for repeated measurements (0 < alpha <= 1).
        clock:
            Injectable time source (defaults to :func:`time.time`); tests
            pass a fake clock to exercise TTL deterministically.
        drift:
            Arm the fleet-wide drift loop with this detector tuning
            (:class:`repro.drift.DriftConfig`); ``None`` (the default)
            leaves drift detection off and the store behaves exactly as
            before.
        decay_grace:
            How long (clock seconds) a drift-demoted entry keeps serving
            before expiring outright (see :meth:`decay`).
        predict:
            Arm the selection predictor with this tuning
            (:class:`repro.predict.PredictConfig`): measured publishes
            train it and the serving layer consults it before paying a
            cold micro-profile.  ``None`` (the default) leaves
            prediction off.
        """
        if ttl is not None and ttl <= 0:
            raise StoreError(f"ttl must be positive or None, got {ttl}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise StoreError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        if decay_grace <= 0:
            raise StoreError(
                f"decay_grace must be positive, got {decay_grace}"
            )
        self.ttl = ttl
        self.ewma_alpha = ewma_alpha
        self.decay_grace = decay_grace
        self._clock = clock if clock is not None else time.time
        self._entries: Dict[str, StoreEntry] = {}
        self._lock = threading.RLock()
        self.stats = StoreStats()
        #: Fleet-wide fault ledger (see :mod:`repro.faults.quarantine`).
        #: The scheduler shares this one ledger into every worker runtime
        #: so a variant misbehaving for one client is barred for all, and
        #: it rides along in :meth:`save`/:meth:`load` snapshots.
        self.quarantine = VariantQuarantine(clock=self._clock)
        #: Fleet-wide drift loop (see :mod:`repro.drift`), ``None`` when
        #: drift detection is off.  Like the quarantine ledger it is
        #: owned here so the whole fleet shares one view and the state
        #: rides along in :meth:`save`/:meth:`load` snapshots; confirmed
        #: drift demotes the stale entry via :meth:`decay`.
        self.drift: Optional[ReselectionController] = (
            ReselectionController(drift, decay_hook=self.decay)
            if drift is not None
            else None
        )
        #: Fleet-wide selection predictor (see :mod:`repro.predict`),
        #: ``None`` when prediction is off.  Owned here like the drift
        #: loop: measured publishes train it in-line and the fitted
        #: models ride along in :meth:`save`/:meth:`load` snapshots.
        self.predictor: Optional[SelectionPredictor] = (
            SelectionPredictor(predict) if predict is not None else None
        )

    # ------------------------------------------------------------------
    # Lookup / update
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Optional[StoreEntry]:
        """The live entry for a workload class, or ``None``.

        Expired entries are evicted here (lazy TTL): the miss the caller
        sees is what sends the next launch back to micro-profiling.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if self._expired(entry, self._clock()):
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            entry.hits += 1
            self.stats.hits += 1
            return entry

    def peek(self, key: str) -> Optional[StoreEntry]:
        """A side-effect-free read for load estimation.

        Unlike :meth:`lookup`, peeking never counts a hit or miss and
        never evicts: schedulers consult it when *costing* a request, not
        when serving one, so it must not skew the serving statistics.
        Expired entries still read as absent.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._expired(entry, self._clock()):
                return None
            return entry

    def publish(
        self,
        key: str,
        kernel: str,
        selected: str,
        cycles_per_unit: float,
        mode: Optional[str] = None,
        flow: Optional[str] = None,
        predicted: bool = False,
    ) -> StoreEntry:
        """Record (or fold into) the selection for a workload class.

        A repeat publication with the *same* winner updates the EWMA; a
        different winner replaces the entry outright (the input regime
        crossed a crossover point — old statistics no longer describe the
        new champion).  A winner matching an entry past its TTL or
        ``decay_at`` deadline also starts fresh: expired history must
        not be resurrected into the new entry's EWMA (the whole point of
        expiry is that those statistics are no longer trusted).  Expiry
        is judged against one clock read per publish, so a deadline
        cannot fall between two reads within a single operation.

        ``predicted`` marks a selection the predictor chose without a
        micro-profile (:mod:`repro.predict`); measured publishes
        (``predicted=False``) additionally train the armed predictor —
        predicted ones never do, so the model cannot reinforce its own
        guesses.
        """
        with self._lock:
            now = self._clock()
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.selected == selected
                and not self._expired(entry, now)
            ):
                entry.observe(cycles_per_unit, self.ewma_alpha)
                entry.recorded_at = now
                entry.mode, entry.flow = mode, flow
                entry.predicted = predicted
                # Fresh evidence for this winner lifts any drift demotion.
                entry.decay_at = None
            else:
                entry = StoreEntry(
                    key=key,
                    kernel=kernel,
                    selected=selected,
                    mode=mode,
                    flow=flow,
                    cycles_per_unit=float(cycles_per_unit),
                    recorded_at=now,
                    predicted=predicted,
                    device_kind=device_kind_from_key(key),
                )
                self._entries[key] = entry
            self.stats.puts += 1
            predictor = self.predictor
        if predictor is not None and not predicted:
            predictor.learn(key, selected)
        return entry

    def decay(self, key: str, grace: Optional[float] = None) -> bool:
        """Demote one entry: expire it ``grace`` seconds from now.

        This is drift's TTL-style demotion (softer than eviction): the
        stale selection keeps serving — it is still the best *known*
        answer, and yanking it would stampede every client of the class
        into the profile lease — but its remaining lifetime is capped,
        so even a class whose armed re-profile never lands (traffic
        stopped, every re-profile faults) eventually falls back to a
        cold lookup.  A subsequent :meth:`publish` (the re-profiled
        winner) clears the deadline.  Returns False when the key has no
        live entry.
        """
        with self._lock:
            now = self._clock()
            entry = self._entries.get(key)
            if entry is None or self._expired(entry, now):
                return False
            deadline = now + (
                grace if grace is not None else self.decay_grace
            )
            if entry.decay_at is None or deadline < entry.decay_at:
                entry.decay_at = deadline
            self.stats.decays += 1
            return True

    def invalidate_kernel(self, kernel: str) -> int:
        """Drop every entry of one kernel (registration changed).

        Returns the number of entries evicted; wired to the runtime's
        invalidation hooks so a pool re-registration anywhere in the
        fleet kills persisted selections for that kernel.
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.kernel == kernel
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
        if self.drift is not None:
            # The candidate set changed: the per-class throughput history
            # describes variants that may no longer exist.
            for key in doomed:
                self.drift.monitor.drop(key)
        return len(doomed)

    def _expired(self, entry: StoreEntry, now: float) -> bool:
        """Whether an entry has outlived the store TTL or its decay.

        ``now`` is the caller's single clock read for the whole
        operation — reading the clock here again would let a deadline
        slip between "not expired" and "expired" inside one lookup or
        publish, which is exactly the ordering bug threaded serving
        must not have.
        """
        if entry.decay_at is not None and now > entry.decay_at:
            return True
        if self.ttl is None:
            return False
        return now - entry.recorded_at > self.ttl

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def entry_payloads(self) -> list:
        """JSON-ready entry dicts with *relative* timestamps.

        Timestamps are persisted as ages (``age``, remaining
        ``decay_in``) rather than absolutes, so TTL accounting survives
        process restarts on a different clock origin.  Shared by
        :meth:`save` and the sharded store's per-shard writer
        (:mod:`repro.serve.shards`).
        """
        with self._lock:
            now = self._clock()
            entries = []
            for entry in self._entries.values():
                raw = asdict(entry)
                raw.pop("decay_at")
                raw["age"] = max(0.0, now - entry.recorded_at)
                if entry.decay_at is not None:
                    raw["decay_in"] = max(0.0, entry.decay_at - now)
                entries.append(raw)
            return entries

    def side_payloads(self) -> Dict[str, object]:
        """The non-entry snapshot sections (quarantine, drift, predict).

        Each section is optional: absent in snapshots written before the
        subsystem existed or while it is disarmed, and such snapshots
        still load fine under the same schema version.
        """
        doc: Dict[str, object] = {}
        ledger = self.quarantine.to_payload()
        if ledger:
            doc["quarantine"] = ledger
        if self.drift is not None:
            # Detector baselines and episode history survive restarts so
            # a fleet does not re-learn every class from scratch.
            doc["drift"] = self.drift.to_payload()
        if self.predictor is not None:
            # The fitted selection models ride along so a restarted
            # fleet predicts from its first cold request.
            doc["predict"] = self.predictor.to_payload()
        return doc

    def save(self, path: str) -> None:
        """Serialize to JSON atomically (temp file + rename)."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "entries": self.entry_payloads(),
        }
        doc.update(self.side_payloads())
        _atomic_write_json(path, doc)

    @classmethod
    def load(
        cls,
        path: str,
        ttl: Optional[float] = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        clock: Optional[Callable[[], float]] = None,
        drift: Optional[DriftConfig] = None,
        predict: Optional[PredictConfig] = None,
    ) -> "SelectionStore":
        """Deserialize a store written by :meth:`save`.

        ``drift``/``predict`` re-arm those subsystems with the caller's
        tuning; when either is ``None`` but the snapshot carries that
        section, the subsystem is armed anyway (drift with default
        tuning, the predictor with the snapshot's own config) so
        persisted state is never silently dropped.

        Raises :class:`StoreSchemaError` when the file's
        ``schema_version`` does not match :data:`SCHEMA_VERSION` (a
        serving fleet must not trust keys derived under different
        bucketing rules), and :class:`StoreError` for unreadable files or
        structurally corrupt *JSON documents*.  Failure is all-or-nothing:
        a store is never partially loaded.

        A file that is empty or not parseable as JSON at all is treated
        like a *missing* store — a fresh empty store is returned with a
        warning.  That is the crash-mid-write case (power loss before the
        atomic rename, an empty file from ``touch``): the selections are
        gone either way, and a serving process that refuses to start over
        a zero-byte file turns a lost cache into an outage.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise StoreError(f"cannot read selection store {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            warnings.warn(
                f"selection store {path!r} is empty or truncated "
                f"({exc}); starting with a fresh store",
                stacklevel=2,
            )
            return cls(
                ttl=ttl,
                ewma_alpha=ewma_alpha,
                clock=clock,
                drift=drift,
                predict=predict,
            )
        if not isinstance(doc, dict) or "schema_version" not in doc:
            raise StoreSchemaError(
                f"selection store {path!r} has no schema_version; refusing "
                "to interpret it"
            )
        version = doc["schema_version"]
        if version != SCHEMA_VERSION and version not in MIGRATABLE_VERSIONS:
            raise StoreSchemaError(
                f"selection store {path!r} has schema_version={version!r}, "
                f"this build speaks {SCHEMA_VERSION}; re-profile instead of "
                "trusting selections keyed under different rules",
                versions={path: version},
            )
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise StoreError(
                f"selection store {path!r} is corrupt: 'entries' is "
                f"{type(entries).__name__}, expected a list"
            )
        if drift is None and isinstance(doc.get("drift"), dict):
            # The snapshot carries drift state but the caller did not ask
            # for a specific tuning: arm the loop with defaults rather
            # than silently dropping persisted baselines and episodes.
            drift = DriftConfig()
        store = cls(
            ttl=ttl,
            ewma_alpha=ewma_alpha,
            clock=clock,
            drift=drift,
            predict=predict,
        )
        now = store._clock()
        for raw in entries:
            entry = parse_entry(raw, now, path)
            store._entries[entry.key] = entry
        load_side_state(store, doc, f"selection store {path!r}")
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[str]:
        """Snapshot of the live keys (no TTL filtering)."""
        with self._lock:
            return iter(tuple(self._entries))
