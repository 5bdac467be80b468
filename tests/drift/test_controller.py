"""Monitor and controller behaviour: per-class detectors, consume-once
claims, episode lifecycle, and persistence.  The scheduler wiring
(re-arm -> re-profile -> new winner -> episode recorded) is covered by
``test_scheduler_drift``."""

import json

import pytest

from repro.drift import (
    DriftConfig,
    DriftMonitor,
    DriftSignal,
    DriftState,
    ReselectionController,
)
from repro.errors import DriftError

#: Fast-confirming tuning for tests: 2-sample baseline, one exceedance
#: confirms, short cooldown.
QUICK = DriftConfig(warmup=2, confirm=1, cooldown=2)


def confirm_drift(controller, key, kernel="axpy", variant="fast"):
    """Drive one class from warmup straight into a confirmed episode."""
    for value in (100.0, 100.0, 200.0):
        signal = controller.observe(key, kernel, variant, value)
    assert signal is DriftSignal.CONFIRMED
    return signal


class TestMonitor:
    def test_detectors_are_created_per_key(self):
        monitor = DriftMonitor(QUICK)
        monitor.observe("a", 100.0)
        monitor.observe("b", 100.0)
        assert len(monitor) == 2
        assert "a" in monitor and "b" in monitor
        assert set(monitor.keys()) == {"a", "b"}
        assert monitor.detector("c") is None

    def test_keys_are_independent(self):
        monitor = DriftMonitor(QUICK)
        for value in (100.0, 100.0, 200.0):
            monitor.observe("hot", value)
        assert monitor.detector("hot").confirmations == 1
        monitor.observe("cold", 100.0)
        assert monitor.detector("cold").confirmations == 0

    def test_reset_and_drop(self):
        monitor = DriftMonitor(QUICK)
        monitor.observe("a", 100.0)
        assert monitor.reset("a") is True
        assert monitor.detector("a").state is DriftState.WARMUP
        assert monitor.drop("a") is True
        assert "a" not in monitor
        assert monitor.reset("a") is False
        assert monitor.drop("a") is False

    def test_payload_round_trips(self):
        monitor = DriftMonitor(QUICK)
        for value in (100.0, 100.0, 110.0):
            monitor.observe("a", value)
        payload = json.loads(json.dumps(monitor.to_payload()))
        clone = DriftMonitor(QUICK)
        clone.load_payload(payload)
        assert clone.to_payload() == monitor.to_payload()


class TestEpisodeLifecycle:
    def test_confirmation_opens_one_episode(self):
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k")
        assert controller.confirmations == 1
        assert controller.should_rearm("k")
        (episode,) = controller.open_episodes
        assert episode.key == "k"
        assert episode.stale_variant == "fast"
        assert not episode.completed
        assert controller.episodes == ()

    def test_claim_is_consume_once(self):
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k")
        assert controller.claim("k") is True
        assert controller.claim("k") is False
        assert not controller.should_rearm("k")

    def test_release_reopens_the_claim(self):
        """A failed re-profile hands the duty to the next launch."""
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k")
        assert controller.claim("k")
        assert controller.release("k") is True
        assert controller.should_rearm("k")
        assert controller.claim("k") is True

    def test_release_without_claim_is_a_noop(self):
        controller = ReselectionController(QUICK)
        assert controller.release("k") is False
        confirm_drift(controller, "k")
        assert controller.release("k") is False

    def test_complete_records_the_episode(self):
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k", variant="slow")
        controller.claim("k")
        episode = controller.complete("k", "fast")
        assert episode is not None
        assert episode.completed
        assert episode.stale_variant == "slow"
        assert episode.new_variant == "fast"
        assert episode.reselected
        assert controller.episodes == (episode,)
        assert controller.open_episodes == ()
        assert controller.reselections == 1
        assert not controller.should_rearm("k")
        # The class's detector re-warms on post-shift traffic.
        assert controller.monitor.detector("k").state is DriftState.WARMUP

    def test_complete_with_same_winner_is_not_a_reselection(self):
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k", variant="fast")
        episode = controller.complete("k", "fast")
        assert episode.completed
        assert not episode.reselected

    def test_complete_without_episode_returns_none(self):
        """Routine cold-cache profiles close nothing."""
        controller = ReselectionController(QUICK)
        assert controller.complete("never-drifted", "fast") is None
        assert controller.reselections == 0

    def test_repeat_confirmations_keep_one_episode_open(self):
        """An unserved episode is not duplicated by the next confirmation."""
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k")
        # Ride through cooldown + re-warm into a second confirmation.
        for value in (300.0, 300.0, 300.0, 300.0, 600.0):
            controller.observe("k", "axpy", "fast", value)
        assert controller.confirmations == 2
        assert len(controller.open_episodes) == 1

    def test_decay_hook_fires_once_per_episode(self):
        decayed = []
        controller = ReselectionController(QUICK, decay_hook=decayed.append)
        confirm_drift(controller, "k")
        for value in (300.0, 300.0, 300.0, 300.0, 600.0):
            controller.observe("k", "axpy", "fast", value)
        assert controller.confirmations == 2
        assert decayed == ["k"]

    def test_suspects_are_counted(self):
        controller = ReselectionController(DriftConfig(warmup=2, confirm=3))
        for value in (100.0, 100.0, 150.0, 150.0):
            controller.observe("k", "axpy", "fast", value)
        assert controller.suspects >= 1
        assert controller.confirmations == 0
        assert not controller.should_rearm("k")


class TestControllerPersistence:
    def test_payload_round_trips_through_json(self):
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "open")
        confirm_drift(controller, "closed")
        controller.complete("closed", "slow")
        payload = json.loads(json.dumps(controller.to_payload()))

        clone = ReselectionController(QUICK)
        clone.load_payload(payload)
        assert clone.should_rearm("open")
        assert [e.key for e in clone.episodes] == ["closed"]
        assert clone.episodes[0].reselected
        assert set(clone.monitor.keys()) == set(controller.monitor.keys())

    def test_claims_are_not_persisted(self):
        """A claim names an in-flight launch of a dead process; reloading
        must leave the episode unclaimed so the next launch retries."""
        controller = ReselectionController(QUICK)
        confirm_drift(controller, "k")
        assert controller.claim("k")
        payload = controller.to_payload()
        clone = ReselectionController(QUICK)
        clone.load_payload(payload)
        assert clone.should_rearm("k")
        assert clone.claim("k") is True

    @pytest.mark.parametrize(
        "payload",
        [
            {"detectors": "not-a-mapping"},
            {"detectors": {}, "pending": "nope", "episodes": []},
            {"detectors": {}, "pending": [{"key": "k"}], "episodes": []},
        ],
    )
    def test_malformed_payload_rejected(self, payload):
        controller = ReselectionController(QUICK)
        with pytest.raises(DriftError):
            controller.load_payload(payload)
