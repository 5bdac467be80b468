"""The rule registry: one authoritative catalog every emission obeys."""

import pytest

from repro.analyze.manager import PassManager
from repro.analyze.passes import PoolContext
from repro.analyze.registry import (
    RULE_IDS,
    RULES,
    explain,
    find_rule,
)
from repro.config import AnalyzeSettings

from .conftest import make_pool
from tests.conftest import make_axpy_variant


class TestCatalog:
    def test_rule_ids_are_unique(self):
        assert len(RULE_IDS) == len(set(RULE_IDS)) == len(RULES)

    def test_new_cost_and_dominance_rules_registered(self):
        for rule_id in (
            "DYSEL-COST-001",
            "DYSEL-COST-002",
            "DYSEL-COST-003",
            "DYSEL-DOM-001",
            "DYSEL-DOM-002",
        ):
            assert rule_id in RULE_IDS

    def test_every_rule_has_summary_and_remedy(self):
        for rule in RULES:
            assert rule.summary
            assert rule.remedy
            assert rule.rule_id.startswith("DYSEL-")

    def test_as_dict_is_json_ready(self):
        doc = RULES[0].as_dict()
        assert set(doc) == {
            "id",
            "pass",
            "severity",
            "summary",
            "remedy",
        }

    def test_find_rule_and_explain(self):
        rule = find_rule("DYSEL-DOM-001")
        assert rule is not None
        assert explain("DYSEL-DOM-001") is rule
        assert find_rule("DYSEL-NOPE-999") is None

    def test_explain_unknown_id_suggests_by_prefix(self):
        with pytest.raises(KeyError) as excinfo:
            explain("DYSEL-DOM-999")
        assert "DYSEL-DOM-001" in str(excinfo.value)

    def test_format_renders_summary_and_remedy(self):
        text = find_rule("DYSEL-COST-003").format()
        assert "DYSEL-COST-003" in text
        assert "summary" in text
        assert "remedy" in text


class TestEmissionsMatchRegistry:
    def _diagnostics(self, pool, settings=None):
        ctx = PoolContext(
            pool=pool,
            compute_units=4,
            workload_units=4096,
            settings=settings or AnalyzeSettings(),
        )
        return PassManager().run(ctx).diagnostics

    def test_all_emitted_rule_ids_are_registered(
        self, clean_pool, atomic_pool, no_output_pool
    ):
        for pool in (clean_pool, atomic_pool, no_output_pool):
            for diagnostic in self._diagnostics(pool):
                assert diagnostic.rule_id in RULE_IDS, diagnostic.rule_id

    def test_emitted_severities_match_registry_defaults(self, atomic_pool):
        # Without overrides or configured adjustments, every finding
        # carries its registry default severity.
        for diagnostic in self._diagnostics(atomic_pool):
            rule = find_rule(diagnostic.rule_id)
            assert diagnostic.severity is rule.severity, diagnostic.rule_id

    def test_dominance_rules_stay_silent_with_infinite_margin(self):
        pool = make_pool(
            make_axpy_variant("fast", flops_per_trip=64.0),
            make_axpy_variant("slow", flops_per_trip=64000.0),
        )
        default = {d.rule_id for d in self._diagnostics(pool)}
        assert {"DYSEL-COST-001", "DYSEL-DOM-001"} <= default
        unpruned = {
            d.rule_id
            for d in self._diagnostics(
                pool, AnalyzeSettings(dominance_margin=float("inf"))
            )
        }
        assert "DYSEL-COST-001" in unpruned
        assert not any(rid.startswith("DYSEL-DOM-") for rid in unpruned)
