"""Fleet-level drift: detection from served traffic, exactly one
re-profile per episode (even under concurrency), store demotion, and
persistence of the drift state alongside selections."""

import threading

from repro.config import ReproConfig
from repro.core.policy import Basis
from repro.device import make_cpu
from repro.drift import DriftConfig
from repro.obs.events import EventKind
from repro.serve import (
    LaunchScheduler,
    QoSConfig,
    SelectionStore,
    ServeRequest,
)
from tests.conftest import make_axpy_args

UNITS = 512

#: Confirms on the first post-baseline exceedance; short warmup so a few
#: warm requests freeze the baseline.
QUICK = DriftConfig(warmup=2, confirm=1, cooldown=2)


def make_scheduler(config, pool, devices=1, **kwargs):
    kwargs.setdefault("store", SelectionStore(drift=QUICK))
    scheduler = LaunchScheduler(
        tuple(make_cpu(config) for _ in range(devices)), **kwargs
    )
    scheduler.register_pool(pool)
    return scheduler


def make_request(config, units=UNITS):
    return ServeRequest(
        kernel="axpy",
        args=make_axpy_args(units, config),
        workload_units=units,
    )


def warm_up(scheduler, config, requests=3):
    """Cold-profile the class, then serve enough warm traffic to freeze
    the detector baseline.  Returns the workload-class key."""
    outcomes = [
        scheduler.launch(make_request(config)) for _ in range(requests)
    ]
    assert outcomes[0].profiled
    assert all(o.store_hit for o in outcomes[1:])
    return outcomes[0].workload_class


def shift_regime(scheduler, key, factor=4.0):
    """Simulate an input-regime shift: the frozen baseline no longer
    describes current traffic (as if the selection had been learned
    under ``factor``-times-faster inputs)."""
    detector = scheduler.store.drift.monitor.detector(key)
    assert detector is not None and detector.baseline is not None
    detector.baseline /= factor


class TestDriftReselection:
    def test_confirmed_drift_triggers_one_reprofile(self, fast_slow_pool):
        config = ReproConfig(trace=True)
        scheduler = make_scheduler(config, fast_slow_pool)
        key = warm_up(scheduler, config)
        shift_regime(scheduler, key)

        # The next warm request's measurement confirms the drift and
        # demotes the stored entry (decayed, still serving).
        observed = scheduler.launch(make_request(config))
        assert observed.store_hit and not observed.profiled
        drift = scheduler.store.drift
        assert drift.confirmations == 1
        assert drift.should_rearm(key)
        assert scheduler.store.stats.decays == 1
        assert scheduler.store.peek(key).decay_at is not None

        # Exactly the next launch re-profiles; the fresh publish lifts
        # the demotion and closes the episode.
        rearmed = scheduler.launch(make_request(config))
        assert rearmed.profiled
        assert not rearmed.store_hit
        assert rearmed.lease is not None
        assert rearmed.result.reason.startswith("drift re-activation")
        assert drift.reselections == 1
        (episode,) = drift.episodes
        assert episode.completed
        assert episode.key == key
        assert scheduler.store.peek(key).decay_at is None

        # Traffic settles back onto the (re-)published selection.
        after = scheduler.launch(make_request(config))
        assert after.store_hit and not after.profiled
        assert not drift.should_rearm(key)

        kinds = [event.kind for event in scheduler.tracer.events]
        assert EventKind.DRIFT_CONFIRMED in kinds
        assert EventKind.RESELECTION in kinds

    def test_episode_survives_until_served(self, fast_slow_pool, config):
        """Small launches cannot re-profile; the episode waits for one
        that can."""
        scheduler = make_scheduler(config, fast_slow_pool)
        key = warm_up(scheduler, config)
        shift_regime(scheduler, key)
        scheduler.launch(make_request(config))  # confirms
        drift = scheduler.store.drift
        assert drift.should_rearm(key)

        small_units = max(1, config.small_workload_threshold // 2)
        small = ServeRequest(
            kernel="axpy",
            args=make_axpy_args(small_units, config),
            workload_units=small_units,
            signature=None,
        )
        outcome = scheduler.launch(small)
        assert not outcome.profiled
        # The small request is a different workload class, so the episode
        # for the drifted class is untouched.
        assert outcome.workload_class != key
        assert drift.should_rearm(key)

        served = scheduler.launch(make_request(config))
        assert served.profiled
        assert drift.reselections == 1

    def test_moot_rearm_serves_the_class_entry(self, fast_slow_pool, config):
        """A drifted class too small to profile keeps serving its own
        store entry as a store hit, publishes nothing, and leaves the
        episode claimable — it never borrows another class's winner."""
        pool = fast_slow_pool.with_initial_default("slow")
        scheduler = make_scheduler(config, pool)
        small_units = max(1, config.small_workload_threshold // 2)
        small = [
            scheduler.launch(make_request(config, small_units))
            for _ in range(3)
        ]
        key = small[0].workload_class
        assert all(o.result.selected == "slow" for o in small)
        assert scheduler.store.peek(key).selected == "slow"

        # A large class profiles and 'fast' wins: the device's selection
        # cache now holds a winner measured on a different class.
        big = scheduler.launch(make_request(config))
        assert big.profiled and big.result.selected == "fast"

        shift_regime(scheduler, key)
        scheduler.launch(make_request(config, small_units))  # confirms
        drift = scheduler.store.drift
        assert drift.should_rearm(key)

        for _ in range(2):
            outcome = scheduler.launch(make_request(config, small_units))
            assert not outcome.profiled
            assert outcome.result.selected == "slow"
            assert outcome.store_hit
            assert outcome.result.reason == (
                "profiling deactivated; pinned selection reused"
            )
            assert scheduler.store.peek(key).selected == "slow"
            assert drift.should_rearm(key)
        assert drift.reselections == 0

    def test_backpressure_defers_the_reprofile(self, fast_slow_pool, config):
        """Under backpressure a drifted class keeps serving its entry and
        the episode stays open, unclaimed, for a launch after pressure
        clears."""
        store = SelectionStore(drift=QUICK)
        scheduler = make_scheduler(config, fast_slow_pool, store=store)
        key = warm_up(scheduler, config)
        shift_regime(scheduler, key)
        scheduler.launch(make_request(config))  # confirms
        busy = make_scheduler(
            config,
            fast_slow_pool,
            store=store,
            qos=QoSConfig(defer_watermark=0.0, resume_watermark=0.0),
        )
        deferred = busy.launch(make_request(config))
        assert not deferred.profiled and deferred.store_hit
        assert deferred.result.basis is Basis.PINNED
        assert busy.stats.profiles_deferred == 1
        assert store.drift.should_rearm(key)

        rearmed = scheduler.launch(make_request(config))
        assert rearmed.profiled
        assert rearmed.result.basis is Basis.DRIFT
        assert store.drift.reselections == 1


class TestOneReprofilePerEpisode:
    def test_two_threads_race_one_reprofile(self, fast_slow_pool, config):
        """The ISSUE's concurrency clause: a drifting class served by two
        racing clients re-profiles exactly once."""
        scheduler = make_scheduler(config, fast_slow_pool)
        key = warm_up(scheduler, config)
        shift_regime(scheduler, key)
        scheduler.launch(make_request(config))  # confirms the episode
        drift = scheduler.store.drift
        assert drift.should_rearm(key)

        barrier = threading.Barrier(2)
        outcomes = []
        lock = threading.Lock()

        def client():
            request = make_request(config)
            barrier.wait()
            outcome = scheduler.launch(request)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sum(o.profiled for o in outcomes) == 1
        loser = next(o for o in outcomes if not o.profiled)
        # The loser kept serving the decayed-but-live selection.
        assert loser.store_hit
        assert drift.reselections == 1
        assert len(drift.episodes) == 1
        assert not drift.should_rearm(key)

    def test_episode_storm_still_one_reprofile(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool)
        key = warm_up(scheduler, config)
        shift_regime(scheduler, key)
        scheduler.launch(make_request(config))  # confirms
        outcomes = scheduler.serve_all(
            [make_request(config) for _ in range(8)], clients=4
        )
        assert sum(o.profiled for o in outcomes) == 1
        assert scheduler.store.drift.reselections == 1


class TestDriftPersistence:
    def test_drift_state_rides_in_store_snapshots(
        self, fast_slow_pool, config, tmp_path
    ):
        path = str(tmp_path / "store.json")
        scheduler = make_scheduler(config, fast_slow_pool)
        key = warm_up(scheduler, config)
        shift_regime(scheduler, key)
        scheduler.launch(make_request(config))  # confirms, episode open
        scheduler.store.save(path)

        # The restarted fleet remembers the open episode (auto-arming
        # drift from the snapshot) and serves the re-profile first thing.
        loaded = SelectionStore.load(path)
        assert loaded.drift is not None
        assert loaded.drift.should_rearm(key)
        warm = make_scheduler(config, fast_slow_pool, store=loaded)
        outcome = warm.launch(make_request(config))
        assert outcome.profiled
        assert loaded.drift.reselections == 1

    def test_drift_free_store_stays_drift_free(
        self, fast_slow_pool, config, tmp_path
    ):
        path = str(tmp_path / "store.json")
        scheduler = make_scheduler(
            config, fast_slow_pool, store=SelectionStore()
        )
        warm_up(scheduler, config)
        scheduler.store.save(path)
        assert SelectionStore.load(path).drift is None
