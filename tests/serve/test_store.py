"""Persistent selection store: round-trip, TTL, schema rejection."""

import json

import pytest

from repro.drift import DriftConfig
from repro.errors import StoreError, StoreSchemaError
from repro.predict import PredictConfig
from repro.serve.store import SCHEMA_VERSION, SelectionStore


class FakeClock:
    """Deterministic injectable time source."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_store(**kwargs):
    clock = kwargs.pop("clock", FakeClock())
    return SelectionStore(clock=clock, **kwargs), clock


class TestLifecycle:
    def test_publish_then_lookup(self):
        store, _ = make_store()
        store.publish("k|cpu|a=1", kernel="k", selected="fast",
                      cycles_per_unit=12.5, mode="fully", flow="async")
        entry = store.lookup("k|cpu|a=1")
        assert entry is not None
        assert entry.selected == "fast"
        assert entry.cycles_per_unit == 12.5
        assert store.stats.hits == 1

    def test_miss_counts(self):
        store, _ = make_store()
        assert store.lookup("nope") is None
        assert store.stats.misses == 1

    def test_repeat_publication_folds_ewma(self):
        store, _ = make_store(ewma_alpha=0.5)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=10.0)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=20.0)
        entry = store.lookup("key")
        assert entry.cycles_per_unit == 15.0
        assert entry.samples == 2

    def test_new_winner_replaces_entry(self):
        store, _ = make_store()
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=10.0)
        store.publish("key", kernel="k", selected="other", cycles_per_unit=8.0)
        entry = store.lookup("key")
        assert entry.selected == "other"
        assert entry.cycles_per_unit == 8.0
        assert entry.samples == 1

    def test_invalidate_kernel_drops_all_classes(self):
        store, _ = make_store()
        store.publish("k|cpu|a=1", kernel="k", selected="x", cycles_per_unit=1)
        store.publish("k|cpu|a=2", kernel="k", selected="y", cycles_per_unit=1)
        store.publish("j|cpu|a=1", kernel="j", selected="z", cycles_per_unit=1)
        assert store.invalidate_kernel("k") == 2
        assert store.lookup("k|cpu|a=1") is None
        assert store.lookup("j|cpu|a=1") is not None


class TestTTL:
    def test_fresh_entry_survives(self):
        store, clock = make_store(ttl=60.0)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        clock.advance(59.0)
        assert store.lookup("key") is not None

    def test_expired_entry_evicts(self):
        store, clock = make_store(ttl=60.0)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        clock.advance(61.0)
        assert store.lookup("key") is None
        assert store.stats.expirations == 1

    def test_republication_renews_ttl(self):
        store, clock = make_store(ttl=60.0)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        clock.advance(50.0)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=2.0)
        clock.advance(50.0)
        assert store.lookup("key") is not None

    def test_invalid_ttl_rejected(self):
        with pytest.raises(StoreError):
            SelectionStore(ttl=0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(StoreError):
            SelectionStore(ewma_alpha=0.0)


class TestDecayPublishOrdering:
    """A publish landing after the decay deadline must start a fresh
    entry — resurrecting the expired EWMA/history would trust exactly
    the statistics the expiry said to distrust (satellite bugfix)."""

    def make_decayed(self, clock):
        store = SelectionStore(clock=clock)
        store.publish("key", kernel="k", selected="fast",
                      cycles_per_unit=10.0)
        store.publish("key", kernel="k", selected="fast",
                      cycles_per_unit=10.0)
        assert store.decay("key", grace=5.0)
        return store

    def test_publish_before_deadline_folds_and_clears_decay(self):
        clock = FakeClock()
        store = self.make_decayed(clock)
        clock.advance(4.0)
        store.publish("key", kernel="k", selected="fast",
                      cycles_per_unit=20.0)
        entry = store.lookup("key")
        assert entry.samples == 3
        assert entry.decay_at is None

    def test_publish_past_deadline_starts_fresh(self):
        clock = FakeClock()
        store = self.make_decayed(clock)
        clock.advance(6.0)  # past the decay deadline
        store.publish("key", kernel="k", selected="fast",
                      cycles_per_unit=20.0)
        entry = store.lookup("key")
        assert entry.samples == 1
        assert entry.cycles_per_unit == 20.0
        assert entry.decay_at is None

    def test_publish_past_ttl_starts_fresh(self):
        store, clock = make_store(ttl=60.0)
        store.publish("key", kernel="k", selected="fast",
                      cycles_per_unit=10.0)
        clock.advance(61.0)
        store.publish("key", kernel="k", selected="fast",
                      cycles_per_unit=20.0)
        entry = store.lookup("key")
        assert entry.samples == 1
        assert entry.cycles_per_unit == 20.0

    def test_concurrent_expired_lookup_and_publish(self):
        """Two threads race an expired entry: whatever the interleaving,
        the surviving entry is the freshly published one, never a
        resurrection of the expired history."""
        import threading

        for _ in range(20):
            clock = FakeClock()
            store = self.make_decayed(clock)
            clock.advance(6.0)
            barrier = threading.Barrier(2)
            seen = []

            def expire_lookup():
                barrier.wait()
                seen.append(store.lookup("key"))

            def publish_fresh():
                barrier.wait()
                store.publish("key", kernel="k", selected="fast",
                              cycles_per_unit=20.0)

            threads = [
                threading.Thread(target=expire_lookup),
                threading.Thread(target=publish_fresh),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            entry = store.lookup("key")
            assert entry is not None
            assert entry.samples == 1
            assert entry.cycles_per_unit == 20.0
            assert entry.decay_at is None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "store.json")
        store, clock = make_store()
        store.publish("k|cpu|a=1", kernel="k", selected="fast",
                      cycles_per_unit=12.5, mode="fully", flow="async")
        store.publish("k|cpu|a=2", kernel="k", selected="slow",
                      cycles_per_unit=99.0)
        store.save(path)
        loaded = SelectionStore.load(path, clock=FakeClock(5000.0))
        assert len(loaded) == 2
        entry = loaded.lookup("k|cpu|a=1")
        assert entry.selected == "fast"
        assert entry.cycles_per_unit == 12.5
        assert entry.mode == "fully"

    def test_age_survives_restart(self, tmp_path):
        """TTL accounting continues across a process boundary."""
        path = str(tmp_path / "store.json")
        store, clock = make_store(ttl=100.0)
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        clock.advance(80.0)
        store.save(path)
        # New process: different clock origin, same TTL.
        new_clock = FakeClock(123456.0)
        loaded = SelectionStore.load(path, ttl=100.0, clock=new_clock)
        assert loaded.lookup("key") is not None  # 80s old, under 100s.
        new_clock.advance(30.0)
        assert loaded.lookup("key") is None  # 110s old, over.

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "store.json")
        store, _ = make_store()
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        store.save(path)
        doc = json.loads(open(path).read())
        doc["schema_version"] = SCHEMA_VERSION + 1
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(StoreSchemaError):
            SelectionStore.load(path)

    def test_missing_version_rejected(self, tmp_path):
        path = str(tmp_path / "store.json")
        open(path, "w").write(json.dumps({"entries": []}))
        with pytest.raises(StoreSchemaError):
            SelectionStore.load(path)

    def test_truncated_json_starts_fresh(self, tmp_path):
        # Crash-mid-write recovery: a truncated file is treated like a
        # missing store (fresh + warning), not a fatal error.
        path = str(tmp_path / "store.json")
        store, _ = make_store()
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        store.save(path)
        raw = open(path).read()
        open(path, "w").write(raw[: len(raw) // 2])  # truncate mid-object
        with pytest.warns(UserWarning, match="empty or truncated"):
            loaded = SelectionStore.load(path)
        assert len(loaded) == 0

    def test_empty_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "store.json")
        open(path, "w").close()
        with pytest.warns(UserWarning, match="empty or truncated"):
            loaded = SelectionStore.load(path)
        assert len(loaded) == 0
        assert loaded.lookup("anything") is None

    def test_empty_file_keeps_caller_subsystems(self, tmp_path):
        # A fresh store over a lost snapshot still arms what the caller
        # asked for: the drift loop and the selection predictor.
        path = str(tmp_path / "store.json")
        open(path, "w").close()
        with pytest.warns(UserWarning, match="empty or truncated"):
            loaded = SelectionStore.load(
                path, drift=DriftConfig(), predict=PredictConfig()
            )
        assert loaded.drift is not None
        assert loaded.predictor is not None

    def test_corrupt_entry_rejected(self, tmp_path):
        path = str(tmp_path / "store.json")
        doc = {
            "schema_version": SCHEMA_VERSION,
            "entries": [{"key": "k", "kernel": "k"}],  # missing fields
        }
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(StoreError):
            SelectionStore.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            SelectionStore.load(str(tmp_path / "absent.json"))

    def test_save_is_atomic(self, tmp_path):
        """A save never leaves a half-written store at the target path."""
        path = str(tmp_path / "store.json")
        store, _ = make_store()
        store.publish("key", kernel="k", selected="fast", cycles_per_unit=1.0)
        store.save(path)
        store.save(path)  # overwrite in place
        loaded = SelectionStore.load(path)
        assert len(loaded) == 1
        assert not [
            p for p in tmp_path.iterdir() if p.suffix == ".tmp"
        ], "temp files must not survive a save"


class TestDeviceKindAndMigration:
    """Schema v4: denormalized device_kind + v3 migration (key rules
    unchanged since v3, so old snapshots recover it from the key)."""

    def test_publish_denormalizes_device_kind(self):
        store, _ = make_store()
        store.publish(
            "k|gpu|units^2=4", kernel="k", selected="v", cycles_per_unit=1.0
        )
        assert store.lookup("k|gpu|units^2=4").device_kind == "gpu"

    def test_non_signature_key_yields_empty_kind(self):
        store, _ = make_store()
        store.publish("bare-key", kernel="k", selected="v",
                      cycles_per_unit=1.0)
        assert store.lookup("bare-key").device_kind == ""

    def test_device_kind_from_key(self):
        from repro.serve.store import device_kind_from_key

        assert device_kind_from_key("k|cpu|units^2=4") == "cpu"
        assert device_kind_from_key("k|gpu") == "gpu"
        assert device_kind_from_key("bare") == ""

    def test_v3_snapshot_migrates_and_backfills(self, tmp_path):
        """A v3 snapshot (no device_kind field) loads and recovers the
        kind from each key."""
        path = str(tmp_path / "store.json")
        store, _ = make_store()
        store.publish("k|gpu|units^2=4", kernel="k", selected="v",
                      cycles_per_unit=2.0)
        store.save(path)
        doc = json.loads(open(path).read())
        doc["schema_version"] = 3
        for entry in doc["entries"]:
            entry.pop("device_kind", None)
        open(path, "w").write(json.dumps(doc))
        loaded = SelectionStore.load(path)
        entry = loaded.lookup("k|gpu|units^2=4")
        assert entry.selected == "v"
        assert entry.device_kind == "gpu"

    def test_v4_snapshot_persists_device_kind(self, tmp_path):
        path = str(tmp_path / "store.json")
        store, _ = make_store()
        store.publish("k|cpu|units^2=4", kernel="k", selected="v",
                      cycles_per_unit=2.0)
        store.save(path)
        doc = json.loads(open(path).read())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["entries"][0]["device_kind"] == "cpu"
