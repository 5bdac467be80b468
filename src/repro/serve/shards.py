"""Sharded selection store: per-shard files, merge-on-load.

One JSON file is the known scalability cliff of :class:`SelectionStore`
once many concurrent clients contend on it: every save serializes the
whole map and every saver queues behind one atomic rename.
:class:`ShardedSelectionStore` splits the key space across ``shards``
inner stores by ``crc32(key) % shards`` — the key already encodes the
full selection tuple ``kernel|device_kind|class`` (see
:mod:`repro.serve.signature`), so one shard owns all updates for a slice
of (kernel, device-kind, class) space and two clients publishing
different classes almost never touch the same lock *or the same file*.

On disk a sharded store is a directory::

    store/
      store.meta.json    # schema version, shard count, quarantine/drift/
                         # predict side-state (always rewritten)
      shard-0000.json    # entries whose crc32(key) % count == 0
      shard-0001.json    # ... written only when dirty, atomically

Save semantics: each shard file is written with the same temp-file +
rename atomicity as the single-file store, and **only dirty shards** are
rewritten — a 64-client fleet that touched 3 shards since the last
checkpoint writes 3 files, not the whole map.  Load semantics
(*merge-on-load*): every ``shard-*.json`` in the directory is read and
the union re-hashed into the current layout, so a store saved with 8
shards loads fine with 4 or 16; duplicate keys (possible after a layout
change mid-crash) keep the freshest entry by recorded age.  Shards that
declare **mixed schema versions** are rejected with a structured
:class:`~repro.errors.StoreSchemaError` (``.versions`` maps each file to
its declared version) rather than partially loaded, while a single
*torn* shard (unparseable JSON from a crash mid-rename) is skipped with
a warning — its selections re-profile, the other shards' survive —
matching the single-file store's crash-recovery philosophy.

Fleet-wide state that is not per-key — the quarantine ledger, the drift
controller, the selection predictor — is owned once at the sharded level
and shared *into* every inner shard, so the semantics match
:class:`SelectionStore` exactly: a publish on any shard trains the one
predictor, a drift confirmation decays the entry in whichever shard owns
its key, and one quarantine bars a variant for every client.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from typing import Callable, Dict, Iterator, List, Optional

from ..drift import DriftConfig, ReselectionController
from ..errors import StoreError, StoreSchemaError
from ..faults.quarantine import VariantQuarantine
from ..predict import PredictConfig, SelectionPredictor
from .store import (
    DEFAULT_DECAY_GRACE,
    DEFAULT_EWMA_ALPHA,
    MIGRATABLE_VERSIONS,
    SCHEMA_VERSION,
    SelectionStore,
    StoreEntry,
    StoreStats,
    _atomic_write_json,
    load_side_state,
    parse_entry,
)

#: Default shard count: enough that 64 concurrent clients rarely collide
#: on one file, small enough that a checkpoint directory stays readable.
DEFAULT_SHARDS = 8

#: File name of the side-state / layout document inside a store directory.
META_FILENAME = "store.meta.json"


def shard_filename(index: int) -> str:
    """The on-disk file name of one shard (``shard-0007.json``)."""
    return f"shard-{index:04d}.json"


class ShardedSelectionStore:
    """A :class:`SelectionStore` split across per-shard files.

    Duck-types the full ``SelectionStore`` surface the serving layer
    uses (``lookup`` / ``peek`` / ``publish`` / ``decay`` /
    ``invalidate_kernel`` / ``save`` / ``load`` / ``stats`` /
    ``quarantine`` / ``drift`` / ``predictor``), so
    :class:`~repro.serve.scheduler.LaunchScheduler` accepts either
    interchangeably.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        ttl: Optional[float] = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        clock: Optional[Callable[[], float]] = None,
        drift: Optional[DriftConfig] = None,
        decay_grace: float = DEFAULT_DECAY_GRACE,
        predict: Optional[PredictConfig] = None,
    ) -> None:
        """Create an empty sharded store (parameters as for
        :class:`SelectionStore`, plus the shard count)."""
        if not isinstance(shards, int) or shards < 1:
            raise StoreError(f"shards must be a positive int, got {shards!r}")
        self.shard_count = shards
        # Inner shards are built bare (no drift/predict of their own) and
        # then share the fleet-wide subsystems owned here, so every shard
        # sees one quarantine ledger, one drift loop, one predictor.
        self._shards: List[SelectionStore] = [
            SelectionStore(
                ttl=ttl,
                ewma_alpha=ewma_alpha,
                clock=clock,
                decay_grace=decay_grace,
            )
            for _ in range(shards)
        ]
        self.ttl = ttl
        self.ewma_alpha = ewma_alpha
        self.decay_grace = decay_grace
        self._clock = self._shards[0]._clock
        self.quarantine = VariantQuarantine(clock=self._clock)
        self.drift: Optional[ReselectionController] = (
            ReselectionController(drift, decay_hook=self.decay)
            if drift is not None
            else None
        )
        self.predictor: Optional[SelectionPredictor] = (
            SelectionPredictor(predict) if predict is not None else None
        )
        for shard in self._shards:
            shard.quarantine = self.quarantine
            shard.drift = self.drift
            shard.predictor = self.predictor
        #: Per-shard "has un-saved mutations" flags; cleared (before
        #: serialization, so a racing publish re-dirties) by :meth:`save`.
        self._dirty: List[bool] = [False] * shards

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_index(self, key: str) -> int:
        """Which shard owns a workload-class key."""
        return zlib.crc32(key.encode("utf-8")) % self.shard_count

    def _shard(self, key: str) -> SelectionStore:
        return self._shards[self.shard_index(key)]

    # ------------------------------------------------------------------
    # SelectionStore surface (delegated per key / fanned out)
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Optional[StoreEntry]:
        """See :meth:`SelectionStore.lookup` (routed to the owning shard)."""
        return self._shard(key).lookup(key)

    def peek(self, key: str) -> Optional[StoreEntry]:
        """See :meth:`SelectionStore.peek` (routed to the owning shard)."""
        return self._shard(key).peek(key)

    def publish(self, key: str, *args: object, **kwargs: object) -> StoreEntry:
        """See :meth:`SelectionStore.publish` (routed; marks shard dirty)."""
        index = self.shard_index(key)
        entry = self._shards[index].publish(key, *args, **kwargs)
        self._dirty[index] = True
        return entry

    def decay(self, key: str, grace: Optional[float] = None) -> bool:
        """See :meth:`SelectionStore.decay` (routed; marks shard dirty)."""
        index = self.shard_index(key)
        demoted = self._shards[index].decay(key, grace)
        if demoted:
            self._dirty[index] = True
        return demoted

    def invalidate_kernel(self, kernel: str) -> int:
        """See :meth:`SelectionStore.invalidate_kernel` (all shards)."""
        dropped = 0
        for index, shard in enumerate(self._shards):
            count = shard.invalidate_kernel(kernel)
            if count:
                self._dirty[index] = True
            dropped += count
        return dropped

    @property
    def stats(self) -> StoreStats:
        """Aggregate counters over every shard."""
        total = StoreStats()
        for shard in self._shards:
            total.hits += shard.stats.hits
            total.misses += shard.stats.misses
            total.expirations += shard.stats.expirations
            total.invalidations += shard.stats.invalidations
            total.puts += shard.stats.puts
            total.decays += shard.stats.decays
        return total

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: str) -> bool:
        return key in self._shard(key)

    def keys(self) -> Iterator[str]:
        """Snapshot of live keys across every shard (no TTL filtering)."""
        snapshot: List[str] = []
        for shard in self._shards:
            snapshot.extend(shard.keys())
        return iter(tuple(snapshot))

    def dirty_shards(self) -> List[int]:
        """Indices of shards with mutations since the last save."""
        return [i for i, dirty in enumerate(self._dirty) if dirty]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str, only_dirty: bool = True) -> None:
        """Checkpoint into directory ``path``.

        The meta document (shard layout + quarantine/drift/predict side
        state) is always rewritten; shard files are rewritten only when
        dirty (or missing on disk), each with the single-file store's
        temp-file + atomic-rename discipline.  Pass ``only_dirty=False``
        to force a full rewrite.
        """
        os.makedirs(path, exist_ok=True)
        meta: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "layout": "sharded",
            "shard_count": self.shard_count,
        }
        # The shards share this store's quarantine/drift/predictor, so
        # any one shard serializes the fleet-wide side state faithfully.
        meta.update(self._shards[0].side_payloads())
        _atomic_write_json(os.path.join(path, META_FILENAME), meta)
        for index, shard in enumerate(self._shards):
            target = os.path.join(path, shard_filename(index))
            # Clear-before-serialize: a publish racing this save flips
            # the flag back on and the *next* checkpoint rewrites the
            # shard, so no mutation is ever silently lost.
            was_dirty, self._dirty[index] = self._dirty[index], False
            if only_dirty and not was_dirty and os.path.exists(target):
                continue
            doc = {
                "schema_version": SCHEMA_VERSION,
                "shard_index": index,
                "shard_count": self.shard_count,
                "entries": shard.entry_payloads(),
            }
            _atomic_write_json(target, doc)

    @classmethod
    def load(
        cls,
        path: str,
        shards: Optional[int] = None,
        ttl: Optional[float] = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        clock: Optional[Callable[[], float]] = None,
        drift: Optional[DriftConfig] = None,
        decay_grace: float = DEFAULT_DECAY_GRACE,
        predict: Optional[PredictConfig] = None,
    ) -> "ShardedSelectionStore":
        """Merge-on-load a directory written by :meth:`save`.

        ``shards`` overrides the layout (defaults to the saved
        ``shard_count``); entries are re-hashed into the requested
        layout, so growing or shrinking the shard count is just a load +
        save away.  Duplicate keys across shard files — possible after a
        layout change interrupted mid-save — keep the freshest entry.

        Failure semantics, matching :meth:`SelectionStore.load`:

        * Unreadable directory / meta file → :class:`StoreError`.
        * Any shard (or the meta) declaring an incompatible schema
          version, or shards declaring **mixed** versions → structured
          :class:`StoreSchemaError` whose ``.versions`` maps every file
          to its declared version.  Version agreement is checked across
          *all* shards before a single entry is interpreted — never a
          partial load.
        * A torn shard file (unparseable JSON from a crash mid-write) is
          skipped with a warning; its classes re-profile while every
          other shard's selections survive.
        """
        try:
            names = sorted(os.listdir(path))
        except OSError as exc:
            raise StoreError(
                f"cannot read sharded selection store {path!r}: {exc}"
            )
        shard_names = [
            n
            for n in names
            if n.startswith("shard-") and n.endswith(".json")
        ]
        meta: Dict[str, object] = {}
        versions: Dict[str, object] = {}
        meta_path = os.path.join(path, META_FILENAME)
        if META_FILENAME in names:
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta_doc = json.load(handle)
            except OSError as exc:
                raise StoreError(
                    f"cannot read sharded selection store meta "
                    f"{meta_path!r}: {exc}"
                )
            except json.JSONDecodeError as exc:
                warnings.warn(
                    f"sharded store meta {meta_path!r} is empty or torn "
                    f"({exc}); quarantine/drift/predict side-state is "
                    "lost, entries will still load",
                    stacklevel=2,
                )
                meta_doc = None
            if meta_doc is not None:
                if not isinstance(meta_doc, dict) or (
                    "schema_version" not in meta_doc
                ):
                    raise StoreSchemaError(
                        f"sharded store meta {meta_path!r} has no "
                        "schema_version; refusing to interpret it"
                    )
                meta = meta_doc
                versions[meta_path] = meta_doc["schema_version"]
        # Parse every shard document *before* interpreting any entry, so
        # version agreement is judged over the whole directory.
        docs: List[tuple] = []
        for name in shard_names:
            shard_path = os.path.join(path, name)
            try:
                with open(shard_path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
            except OSError as exc:
                raise StoreError(
                    f"cannot read selection store shard {shard_path!r}: "
                    f"{exc}"
                )
            except json.JSONDecodeError as exc:
                warnings.warn(
                    f"selection store shard {shard_path!r} is torn or "
                    f"truncated ({exc}); skipping it — its workload "
                    "classes will re-profile",
                    stacklevel=2,
                )
                continue
            if not isinstance(doc, dict) or "schema_version" not in doc:
                raise StoreSchemaError(
                    f"selection store shard {shard_path!r} has no "
                    "schema_version; refusing to interpret it"
                )
            versions[shard_path] = doc["schema_version"]
            docs.append((shard_path, doc))
        accepted = set(MIGRATABLE_VERSIONS) | {SCHEMA_VERSION}
        bad = {p: v for p, v in versions.items() if v not in accepted}
        if bad:
            raise StoreSchemaError(
                f"sharded selection store {path!r} declares unsupported "
                f"schema versions {sorted(set(bad.values()), key=repr)!r}; "
                f"this build speaks {SCHEMA_VERSION} "
                f"(migratable: {list(MIGRATABLE_VERSIONS)})",
                versions=versions,
            )
        if len(set(versions.values())) > 1:
            raise StoreSchemaError(
                f"sharded selection store {path!r} mixes schema versions "
                f"{sorted(set(versions.values()))!r} across its shards; "
                "refusing the partial load — re-save the store with one "
                "build before loading it with another",
                versions=versions,
            )
        saved_count = meta.get("shard_count")
        if shards is None:
            shards = (
                saved_count
                if isinstance(saved_count, int) and saved_count >= 1
                else max(1, len(shard_names)) or DEFAULT_SHARDS
            )
        if drift is None and isinstance(meta.get("drift"), dict):
            # Same rule as the single-file store: persisted drift state
            # arms the loop with default tuning rather than being lost.
            drift = DriftConfig()
        store = cls(
            shards=shards,
            ttl=ttl,
            ewma_alpha=ewma_alpha,
            clock=clock,
            drift=drift,
            decay_grace=decay_grace,
            predict=predict,
        )
        now = store._clock()
        merged: Dict[str, StoreEntry] = {}
        for shard_path, doc in docs:
            entries = doc.get("entries")
            if not isinstance(entries, list):
                raise StoreError(
                    f"selection store shard {shard_path!r} is corrupt: "
                    f"'entries' is {type(entries).__name__}, expected a "
                    "list"
                )
            for raw in entries:
                entry = parse_entry(raw, now, shard_path)
                kept = merged.get(entry.key)
                # Merge-on-load: the freshest copy of a key wins.
                if kept is None or entry.recorded_at >= kept.recorded_at:
                    merged[entry.key] = entry
        for entry in merged.values():
            store._shard(entry.key)._entries[entry.key] = entry
        if saved_count != store.shard_count:
            # The on-disk layout no longer matches: force a full rewrite
            # at the next checkpoint so stale shard files cannot linger.
            store._dirty = [True] * store.shard_count
        load_side_state(store, meta, f"sharded store meta {meta_path!r}")
        # A snapshot predictor may have been armed: share it again.
        for shard in store._shards:
            shard.predictor = store.predictor
        return store
