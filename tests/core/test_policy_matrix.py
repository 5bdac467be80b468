"""Exhaustive matrix over ``policy.decide``'s inputs.

Every combination of (activation flag x cache state x workload size x
pinned selection x drift re-arm x pool shape) that a launch intent can
express is checked against an independent oracle of the documented
precedence: the flag, pin and drift axes map onto one
:class:`~repro.core.policy.LaunchIntent` (``intent_for``), and the
oracle names the ``LaunchDecision.basis`` that must fire.  Combinations
no intent can express (a pin or a drift re-arm with the flag on) are not
cells.  A directed section covers the quarantine interaction (the
runtime filters barred variants *before* ``decide`` sees the pool).
"""

import itertools

import pytest

from repro.compiler.variants import VariantPool
from repro.core import policy
from repro.core.policy import Basis, IntentKind, LaunchIntent
from repro.core.runtime import DySelRuntime
from repro.core.selection import (
    SelectionCache,
    SelectionRecord,
    VariantMeasurement,
)
from repro.errors import LaunchError
from repro.modes import OrchestrationFlow, ProfilingMode
from repro.predict import Prediction
from tests.conftest import axpy_signature, make_axpy_args, make_axpy_variant

# ----------------------------------------------------------------------
# The matrix axes
# ----------------------------------------------------------------------

FLAG = (True, False)
CACHE = ("empty", "cached", "stale")
SIZE = ("small", "large")
PINNED = (None, "slow", "gone")
DRIFT = (False, True)
POOL = ("multi", "single")


def intent_for(flag, pinned, drift):
    """The intent a flag combination maps to, or ``None`` if none can."""
    if flag:
        if pinned is None and not drift:
            return LaunchIntent.profile()
        return None
    if drift:
        return LaunchIntent.reprofile(pinned)
    return LaunchIntent.replay(pinned)


MATRIX = tuple(
    cell
    for cell in itertools.product(FLAG, CACHE, SIZE, PINNED, DRIFT, POOL)
    if intent_for(cell[0], cell[3], cell[4]) is not None
)

#: The cells whose intent is a plain ``profile`` (the only intent that
#: may carry a prediction, and the one backpressure turns into ``defer``).
PROFILE_CELLS = tuple(cell for cell in MATRIX if cell[0])

#: Every basis ``decide`` can produce from the matrix.
CATEGORIES = (
    Basis.DRIFT,
    Basis.PROFILE,
    Basis.PINNED,
    Basis.CACHED,
    Basis.DEFAULT,
    Basis.SMALL_WORKLOAD,
    Basis.SINGLE_VARIANT,
)


def build_pool(shape):
    from repro.kernel import KernelSpec

    variants = (make_axpy_variant("fast"),)
    if shape == "multi":
        variants += (make_axpy_variant("slow"),)
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()), variants=variants
    )


def build_cache(state):
    cache = SelectionCache()
    if state == "empty":
        return cache
    selected = "fast" if state == "cached" else "evicted-variant"
    record = SelectionRecord(
        kernel="axpy", mode=ProfilingMode.FULLY, flow=OrchestrationFlow.SYNC
    )
    record.observe(
        VariantMeasurement(
            variant=selected,
            measured_cycles=10.0,
            profiled_units=4,
            productive=True,
        )
    )
    cache.record(record)
    return cache


def units_for(size, config):
    if size == "small":
        return max(1, config.small_workload_threshold // 4)
    return config.small_workload_threshold * 4


def decide_cell(cell, config, intent=None):
    """``decide`` on one matrix cell (``intent`` overrides the mapping)."""
    flag, cache_state, size, pinned, drift, pool_shape = cell
    return policy.decide(
        build_pool(pool_shape),
        units_for(size, config),
        intent if intent is not None else intent_for(flag, pinned, drift),
        build_cache(cache_state),
        config,
    )


def assert_reason_matches_basis(decision):
    """The user-visible reason text of each basis stays byte-stable."""
    reason = decision.reason
    exact = {
        Basis.DRIFT: "drift re-activation",
        Basis.PROFILE: "profiling activated",
        Basis.PINNED: "profiling deactivated; pinned selection reused",
        Basis.CACHED: "profiling deactivated; cached selection reused",
        Basis.SINGLE_VARIANT: "single-variant pool; nothing to select",
    }
    if decision.basis in exact:
        assert reason == exact[decision.basis]
    elif decision.basis is Basis.DEFAULT:
        assert reason.startswith("profiling deactivated;")
        assert reason.endswith("using default")
    elif decision.basis is Basis.SMALL_WORKLOAD:
        assert reason.startswith("small workload (")
    else:
        raise AssertionError(f"unexpected basis {decision.basis!r}")


def oracle(flag, cache_state, size, pinned, drift, pool_shape):
    """Independent restatement of the documented precedence order."""
    multi = pool_shape == "multi"
    large = size == "large"
    cached_valid = cache_state == "cached"
    # "slow" only exists in the multi pool; "gone" never does.
    pinned_valid = pinned == "slow" and multi
    if drift and multi and large:
        return Basis.DRIFT
    if not flag:
        if pinned_valid:
            return Basis.PINNED
        return Basis.CACHED if cached_valid else Basis.DEFAULT
    if not large:
        return Basis.SMALL_WORKLOAD
    if not multi:
        return Basis.SINGLE_VARIANT
    return Basis.PROFILE


@pytest.mark.parametrize(
    "flag,cache_state,size,pinned,drift,pool_shape", MATRIX
)
def test_matrix_cell(flag, cache_state, size, pinned, drift, pool_shape, config):
    cell = (flag, cache_state, size, pinned, drift, pool_shape)
    pool = build_pool(pool_shape)
    decision = decide_cell(cell, config)
    expected = oracle(*cell)
    assert decision.basis is expected
    assert_reason_matches_basis(decision)

    # Structural invariants of every decision.
    if decision.profile:
        assert decision.variant_name is None
    else:
        assert decision.variant_name in pool.variant_names
    assert decision.profile == (expected in (Basis.DRIFT, Basis.PROFILE))

    # Stability: the same inputs produce the same decision (fresh cache,
    # because a stale entry is evicted on first sight by design).
    assert decide_cell(cell, config) == decision


def test_matrix_reaches_every_reason_category(config):
    reached = {decide_cell(cell, config).basis for cell in MATRIX}
    assert reached == set(CATEGORIES)


class TestIntentSet:
    """Only the four intents exist; mixed flags cannot be written."""

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            (IntentKind.PROFILE, {"variant": "slow"}),
            (IntentKind.DEFER, {"variant": "slow"}),
            (IntentKind.REPLAY, {"prediction": Prediction("fast", 0.9)}),
            (IntentKind.REPROFILE, {"prediction": Prediction("fast", 0.9)}),
            (IntentKind.DEFER, {"prediction": Prediction("fast", 0.9)}),
        ],
    )
    def test_inexpressible_combinations_raise(self, kind, kwargs):
        with pytest.raises(LaunchError):
            LaunchIntent(kind, **kwargs)

    def test_profiling_requested_follows_the_paper_flag(self):
        assert LaunchIntent.profile().profiling_requested
        assert LaunchIntent.defer().profiling_requested
        assert not LaunchIntent.replay("slow").profiling_requested
        assert not LaunchIntent.reprofile("slow").profiling_requested


class TestPrecedenceEdges:
    """Directed checks of the orderings the matrix oracle encodes."""

    def test_drift_rearm_beats_pinned_and_cache(self, fast_slow_pool, config):
        decision = policy.decide(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            LaunchIntent.reprofile("slow"),
            build_cache("cached"),
            config,
        )
        assert decision.profile
        assert decision.basis is Basis.DRIFT
        assert decision.reason == "drift re-activation"

    def test_drift_rearm_never_overrides_small_workload(
        self, fast_slow_pool, config
    ):
        decision = policy.decide(
            fast_slow_pool,
            max(1, config.small_workload_threshold // 4),
            LaunchIntent.reprofile(),
            SelectionCache(),
            config,
        )
        assert not decision.profile

    def test_moot_rearm_replays_its_fallback(self, fast_slow_pool, config):
        """A moot re-profile serves its own fallback, not whatever the
        kernel-wide cache last measured."""
        decision = policy.decide(
            fast_slow_pool,
            max(1, config.small_workload_threshold // 4),
            LaunchIntent.reprofile("slow"),
            build_cache("cached"),  # caches 'fast'
            config,
        )
        assert not decision.profile
        assert decision.variant_name == "slow"
        assert decision.basis is Basis.PINNED

    def test_drift_rearm_moot_on_single_variant(self, config):
        pool = build_pool("single")
        decision = policy.decide(
            pool,
            config.small_workload_threshold * 4,
            LaunchIntent.reprofile(),
            SelectionCache(),
            config,
        )
        assert not decision.profile
        assert decision.variant_name == "fast"

    def test_stale_pinned_and_stale_cache_both_noted(
        self, fast_slow_pool, config
    ):
        cache = build_cache("stale")
        decision = policy.decide(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            LaunchIntent.replay("gone"),
            cache,
            config,
        )
        assert not decision.profile
        assert decision.variant_name == "fast"  # pool default
        assert decision.basis is Basis.DEFAULT
        assert "evicted-variant" in decision.reason
        assert "'gone'" in decision.reason
        assert cache.lookup("axpy") is None  # stale entry evicted


class TestPredictionAxis:
    """The prediction input is the weakest in the precedence order: over
    every profile cell it may only convert a would-be micro-profile into
    a profiling-off predicted run — every other gate's decision must be
    byte-identical with and without it."""

    PREDICTED = Prediction(variant="fast", confidence=0.91)

    @pytest.mark.parametrize(
        "flag,cache_state,size,pinned,drift,pool_shape", PROFILE_CELLS
    )
    def test_matrix_cell_with_prediction(
        self, flag, cache_state, size, pinned, drift, pool_shape, config
    ):
        cell = (flag, cache_state, size, pinned, drift, pool_shape)
        baseline = decide_cell(cell, config)
        decision = decide_cell(
            cell, config, LaunchIntent.profile(self.PREDICTED)
        )
        if baseline.basis is Basis.PROFILE:
            assert not decision.profile
            assert decision.variant_name == "fast"
            assert decision.basis is Basis.PREDICTED
            assert decision.reason.startswith(
                "predicted selection ('fast', confidence 0.91)"
            )
        else:
            # Every other gate — small workload, single variant — is
            # untouched by the prediction.
            assert decision == baseline

    def test_prediction_never_overrides_drift_rearm(self, config):
        """A re-profile cannot carry a prediction: the drift episode
        wants a real measurement."""
        with pytest.raises(LaunchError):
            LaunchIntent(IntentKind.REPROFILE, prediction=self.PREDICTED)
        decision = decide_cell(
            (False, "empty", "large", None, True, "multi"), config
        )
        assert decision.profile
        assert decision.reason == "drift re-activation"

    def test_predicted_variant_missing_from_pool_falls_back(
        self, fast_slow_pool, config
    ):
        decision = policy.decide(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            LaunchIntent.profile(Prediction(variant="gone", confidence=0.99)),
            SelectionCache(),
            config,
        )
        assert decision.profile
        assert "predicted 'gone' is not a profiling candidate" in (
            decision.reason
        )

    def test_prediction_only_chooses_among_dominance_survivors(
        self, config
    ):
        pool = build_pool("multi")  # fast + slow
        predicted_dominated = policy.decide(
            pool,
            config.small_workload_threshold * 4,
            LaunchIntent.profile(Prediction(variant="fast", confidence=0.99)),
            SelectionCache(),
            config,
            dominated=("fast",),
        )
        # Excluding 'fast' leaves a single survivor, which wins before
        # the prediction is even consulted.
        assert not predicted_dominated.profile
        assert predicted_dominated.variant_name == "slow"
        assert predicted_dominated.basis is Basis.SINGLE_CANDIDATE
        assert "statically dominated" in predicted_dominated.reason

    def test_prediction_notes_ride_along_with_dominance(self, config):
        from repro.kernel import KernelSpec

        pool = VariantPool(
            spec=KernelSpec(signature=axpy_signature()),
            variants=(
                make_axpy_variant("fast"),
                make_axpy_variant("slow"),
                make_axpy_variant("mid"),
            ),
        )
        decision = policy.decide(
            pool,
            config.small_workload_threshold * 4,
            LaunchIntent.profile(Prediction(variant="mid", confidence=0.88)),
            SelectionCache(),
            config,
            dominated=("slow",),
        )
        assert not decision.profile
        assert decision.variant_name == "mid"
        assert decision.reason.startswith("predicted selection ('mid'")
        assert "'slow' statically dominated" in decision.reason

    def test_quarantine_gate_beats_prediction(
        self, cpu, config, fast_slow_pool
    ):
        """A quarantined variant is filtered from the pool before
        ``decide`` runs, so predicting it falls back to profiling."""
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        for _ in range(config.faults.quarantine_threshold):
            runtime.quarantine.note_fault("axpy", "slow", "test")
        units = config.small_workload_threshold * 4
        result = runtime.launch_kernel(
            "axpy",
            make_axpy_args(units, config),
            units,
            profiling=LaunchIntent.profile(
                Prediction(variant="slow", confidence=0.99)
            ),
        )
        assert result.selected != "slow"
        assert result.basis is not Basis.PREDICTED
        assert not result.reason.startswith("predicted selection")


class TestPlacementAxis:
    """Matrix over ``policy.decide_placement``'s device-kind dimension.

    Fleet shape x placement policy x pinned kind x store warmth, checked
    against an independent oracle of the documented precedence.  The
    candidate loads/costs are chosen so the cold (projected load) and
    warm (store-measured EWMA) winners *differ*, proving the basis is
    actually consulted rather than the reason merely relabelled.  A
    "bare" cell (a fleet that has served nothing) bids exactly like a
    "cold" one: no class measurement exists on any kind.
    """

    FLEET = ("cpu-only", "gpu-only", "mixed", "gpu-quarantined")
    POLICY = ("cost-model", "dynamic-load")
    PIN = (None, "cpu", "gpu", "tpu")
    WARMTH = ("bare", "cold", "warm")

    PLACEMENT_MATRIX = tuple(
        itertools.product(FLEET, POLICY, PIN, WARMTH)
    )

    PLACEMENT_CATEGORIES = (
        "pinned", "single", "dynamic", "measured"
    )

    def build_candidates(self, fleet, warmth):
        def bid(kind, load, measured, quarantined=False):
            return policy.PlacementCandidate(
                device_kind=kind,
                load_cycles=load,
                measured_cycles=measured if warmth == "warm" else None,
                quarantined=quarantined,
            )

        # gpu is least loaded; gpu wins cold (load), cpu wins warm
        # (measured) — the EWMA contradicts the load order on purpose.
        cpu = bid("cpu", load=100.0, measured=50.0)
        gpu = bid(
            "gpu",
            load=40.0,
            measured=300.0,
            quarantined=fleet == "gpu-quarantined",
        )
        if fleet == "cpu-only":
            return [cpu]
        if fleet == "gpu-only":
            return [gpu]
        return [cpu, gpu]

    @staticmethod
    def categorize(reason):
        for prefix, category in (
            ("pinned device kind", "pinned"),
            ("single eligible device kind", "single"),
            ("dynamic load placement", "dynamic"),
            ("store-measured placement", "measured"),
        ):
            if reason.startswith(prefix):
                return category
        raise AssertionError(f"unrecognized placement reason {reason!r}")

    @staticmethod
    def oracle(fleet, placement_policy, pinned, warmth):
        """Independent restatement of the placement precedence."""
        eligible = {
            "cpu-only": {"cpu"},
            "gpu-only": {"gpu"},
            "mixed": {"cpu", "gpu"},
            "gpu-quarantined": {"cpu"},
        }[fleet]
        if pinned in eligible:
            return "pinned", pinned
        if len(eligible) == 1:
            return "single", next(iter(eligible))
        if placement_policy == "dynamic-load":
            return "dynamic", "gpu"  # load 40 < 100
        if warmth in ("bare", "cold"):
            return "dynamic", "gpu"  # cost-model degrades to load
        return "measured", "cpu"  # 100+50 < 40+300

    @pytest.mark.parametrize(
        "fleet,placement_policy,pinned,warmth", PLACEMENT_MATRIX
    )
    def test_matrix_cell(self, fleet, placement_policy, pinned, warmth):
        candidates = self.build_candidates(fleet, warmth)
        decision = policy.decide_placement(
            "axpy", candidates, policy=placement_policy, pinned_kind=pinned
        )
        category, kind = self.oracle(fleet, placement_policy, pinned, warmth)
        assert self.categorize(decision.reason) == category
        assert decision.device_kind == kind
        # Projected map covers exactly the eligible kinds.
        assert set(decision.projected) == {
            c.device_kind for c in candidates if not c.quarantined
        }
        # Quarantined kinds are always noted, never chosen.
        if fleet == "gpu-quarantined":
            assert decision.device_kind != "gpu"
            assert "'gpu' quarantined (excluded from placement)" in (
                decision.reason
            )
        # Stability.
        again = policy.decide_placement(
            "axpy", candidates, policy=placement_policy, pinned_kind=pinned
        )
        assert again == decision

    def test_matrix_reaches_every_reason_category(self):
        reached = set()
        for fleet, placement_policy, pinned, warmth in (
            self.PLACEMENT_MATRIX
        ):
            decision = policy.decide_placement(
                "axpy",
                self.build_candidates(fleet, warmth),
                policy=placement_policy,
                pinned_kind=pinned,
            )
            reached.add(self.categorize(decision.reason))
        assert reached == set(self.PLACEMENT_CATEGORIES)

    def test_pinned_quarantined_kind_ignored_with_note(self):
        decision = policy.decide_placement(
            "axpy",
            self.build_candidates("gpu-quarantined", "warm"),
            pinned_kind="gpu",
        )
        assert decision.device_kind == "cpu"
        assert "pinned device kind 'gpu' is quarantined (ignored)" in (
            decision.reason
        )

    def test_pinned_unknown_kind_ignored_with_note(self):
        decision = policy.decide_placement(
            "axpy",
            self.build_candidates("mixed", "warm"),
            pinned_kind="tpu",
        )
        assert "pinned device kind 'tpu' is unknown (ignored)" in (
            decision.reason
        )
        assert self.categorize(decision.reason) == "measured"

    def test_all_kinds_quarantined_raises(self):
        from repro.errors import LaunchError

        candidates = [
            policy.PlacementCandidate(device_kind=k, quarantined=True)
            for k in ("cpu", "gpu")
        ]
        with pytest.raises(LaunchError, match="placement impossible"):
            policy.decide_placement("axpy", candidates)

    def test_no_candidates_raises(self):
        from repro.errors import LaunchError

        with pytest.raises(LaunchError, match="no device-kind candidates"):
            policy.decide_placement("axpy", [])

    def test_unknown_policy_raises(self):
        from repro.errors import LaunchError

        with pytest.raises(LaunchError, match="unknown placement policy"):
            policy.decide_placement(
                "axpy",
                self.build_candidates("mixed", "warm"),
                policy="round-robin",
            )

    def test_projected_tie_breaks_lexicographically(self):
        candidates = [
            policy.PlacementCandidate(device_kind=k, load_cycles=10.0)
            for k in ("gpu", "cpu")
        ]
        decision = policy.decide_placement("axpy", candidates)
        assert decision.device_kind == "cpu"


class TestQuarantineInteraction:
    """The runtime bars quarantined variants before ``decide`` runs, so
    the policy sees a restricted pool (and stale winners self-evict)."""

    def quarantine(self, runtime, variant):
        for _ in range(runtime.config.faults.quarantine_threshold):
            runtime.quarantine.note_fault("axpy", variant, "test")
        assert runtime.quarantine.is_quarantined("axpy", variant)

    def test_quarantined_winner_is_not_replayed(
        self, cpu, config, fast_slow_pool
    ):
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        units = config.small_workload_threshold * 4
        first = runtime.launch_kernel(
            "axpy", make_axpy_args(units, config), units
        )
        assert first.profiled
        self.quarantine(runtime, first.selected)
        replay = runtime.launch_kernel(
            "axpy", make_axpy_args(units, config), units, profiling=False
        )
        assert replay.selected != first.selected

    def test_quarantine_to_single_variant_stops_profiling(
        self, cpu, config, fast_slow_pool
    ):
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        self.quarantine(runtime, "slow")
        units = config.small_workload_threshold * 4
        result = runtime.launch_kernel(
            "axpy", make_axpy_args(units, config), units
        )
        assert not result.profiled
        assert result.selected == "fast"
        assert "single-variant pool" in result.reason


class TestBackpressureAxis:
    """The serving layer's ``defer`` intent (profiling backpressure,
    :mod:`repro.serve.qos`) may only convert a would-be micro-profile
    into a profiling-off launch on the best-known variant.  Every
    profile cell that was not going to profile anyway must be
    byte-identical with and without it."""

    @pytest.mark.parametrize(
        "flag,cache_state,size,pinned,drift,pool_shape", PROFILE_CELLS
    )
    def test_matrix_cell_with_backpressure(
        self, flag, cache_state, size, pinned, drift, pool_shape, config
    ):
        cell = (flag, cache_state, size, pinned, drift, pool_shape)
        baseline = decide_cell(cell, config)
        decision = decide_cell(cell, config, LaunchIntent.defer())
        if baseline.basis is not Basis.PROFILE:
            # Small workload, single variant: neither profiles, so
            # backpressure changes nothing.
            assert decision == baseline
            return
        assert not decision.profile
        assert decision.basis is Basis.DEFERRED
        assert decision.reason.startswith(
            "micro-profile deferred by backpressure;"
        )
        # The fallback basis is oracle-checked, not just relabelled:
        # a valid cached selection serves; anything else (empty or
        # stale cache) drops to the pool default.
        if cache_state == "cached":
            assert "using cached selection" in decision.reason
        else:
            assert "using pool default" in decision.reason
        if cache_state == "stale":
            assert "evicted-variant" in decision.reason
        pool = build_pool(pool_shape)
        assert decision.variant_name in pool.variant_names

    def test_matrix_reaches_the_deferred_basis(self, config):
        reached = {
            decide_cell(cell, config, LaunchIntent.defer()).basis
            for cell in PROFILE_CELLS
        }
        assert Basis.DEFERRED in reached

    def test_deferral_unused_when_dominance_leaves_one_survivor(
        self, config
    ):
        decision = policy.decide(
            build_pool("multi"),
            units_for("large", config),
            LaunchIntent.defer(),
            SelectionCache(),
            config,
            dominated=("fast",),
        )
        assert not decision.profile
        assert decision.variant_name == "slow"
        assert "statically dominated" in decision.reason
        assert "deferred" not in decision.reason

    def test_deferred_cold_class_exact_reason(self, config):
        decision = policy.decide(
            build_pool("multi"),
            units_for("large", config),
            LaunchIntent.defer(),
            SelectionCache(),
            config,
        )
        assert decision.reason == (
            "micro-profile deferred by backpressure; using pool default"
        )
        assert decision.variant_name == "fast"
