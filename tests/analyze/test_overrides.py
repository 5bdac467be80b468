"""Configured severity adjustments and the pyproject loader."""

import pytest

from repro.analyze.diagnostics import Diagnostic, Severity
from repro.analyze.overrides import (
    apply_adjustments,
    load_pyproject_settings,
    tomllib,
    validate_settings,
)
from repro.config import AnalyzeSettings, RuleAdjustment
from repro.errors import ConfigurationError


def finding(rule_id="DYSEL-MODE-001", severity=Severity.ERROR):
    return Diagnostic(
        rule_id=rule_id, severity=severity, message="finding"
    )


class TestValidateSettings:
    def test_known_ids_pass_through(self):
        settings = AnalyzeSettings(
            rules=(RuleAdjustment("DYSEL-MODE-001"),)
        )
        assert validate_settings(settings) is settings

    def test_unknown_id_raises_and_is_named(self):
        settings = AnalyzeSettings(
            rules=(RuleAdjustment("DYSEL-TYPO-001"),)
        )
        with pytest.raises(ConfigurationError) as excinfo:
            validate_settings(settings)
        assert "DYSEL-TYPO-001" in str(excinfo.value)


class TestApplyAdjustments:
    def test_no_rules_is_identity(self):
        found = (finding(),)
        assert apply_adjustments(found, "axpy", AnalyzeSettings()) == found

    def test_suppress_drops_the_finding(self):
        settings = AnalyzeSettings(
            rules=(RuleAdjustment("DYSEL-MODE-001", action="suppress"),)
        )
        assert apply_adjustments((finding(),), "axpy", settings) == ()

    def test_pool_substring_scopes_the_adjustment(self):
        settings = AnalyzeSettings(
            rules=(
                RuleAdjustment(
                    "DYSEL-MODE-001", action="suppress", pools=("sgemm",)
                ),
            )
        )
        kept = apply_adjustments((finding(),), "axpy/schedules", settings)
        dropped = apply_adjustments((finding(),), "sgemm/mixed", settings)
        assert len(kept) == 1
        assert dropped == ()

    def test_downgrade_turns_error_into_warning(self):
        settings = AnalyzeSettings(
            rules=(RuleAdjustment("DYSEL-MODE-001", action="downgrade"),)
        )
        (adjusted,) = apply_adjustments((finding(),), "axpy", settings)
        assert adjusted.severity is Severity.WARNING
        assert "[overridden: configured downgrade]" in adjusted.message

    def test_downgrade_leaves_non_error_untouched(self):
        settings = AnalyzeSettings(
            rules=(RuleAdjustment("DYSEL-MODE-001", action="downgrade"),)
        )
        warning = finding(severity=Severity.WARNING)
        (adjusted,) = apply_adjustments((warning,), "axpy", settings)
        assert adjusted is warning

    def test_other_rule_ids_are_untouched(self):
        settings = AnalyzeSettings(
            rules=(RuleAdjustment("DYSEL-SIG-001", action="suppress"),)
        )
        assert len(apply_adjustments((finding(),), "axpy", settings)) == 1


needs_tomllib = pytest.mark.skipif(
    tomllib is None, reason="tomllib requires Python >= 3.11"
)


class TestLoadPyprojectSettings:
    def test_missing_file_returns_base(self, tmp_path):
        base = AnalyzeSettings(dominance_margin=2.0)
        loaded = load_pyproject_settings(
            tmp_path / "pyproject.toml", base=base
        )
        assert loaded is base

    @needs_tomllib
    def test_missing_table_returns_base(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text("[tool.other]\nx = 1\n")
        assert load_pyproject_settings(path) == AnalyzeSettings()

    @needs_tomllib
    def test_full_table_parses(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[tool.repro.analyze]\n"
            "dominance_margin = 1.5\n"
            "data_trip_bounds = [1, 2048]\n"
            "[[tool.repro.analyze.rules]]\n"
            'id = "DYSEL-MODE-001"\n'
            'action = "downgrade"\n'
            'pools = ["axpy"]\n'
        )
        loaded = load_pyproject_settings(path)
        assert loaded.dominance_margin == 1.5
        assert loaded.data_trip_bounds == (1.0, 2048.0)
        assert loaded.rules == (
            RuleAdjustment(
                "DYSEL-MODE-001", action="downgrade", pools=("axpy",)
            ),
        )

    @needs_tomllib
    def test_unknown_table_key_raises(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text("[tool.repro.analyze]\ndominence = true\n")
        with pytest.raises(ConfigurationError) as excinfo:
            load_pyproject_settings(path)
        assert "dominence" in str(excinfo.value)

    @needs_tomllib
    def test_removed_dominance_switch_is_an_unknown_key(self, tmp_path):
        # Pruning is always on; the old on/off switch must not be
        # silently accepted (``dominance_margin = inf`` turns it off).
        path = tmp_path / "pyproject.toml"
        path.write_text("[tool.repro.analyze]\ndominance = false\n")
        with pytest.raises(ConfigurationError) as excinfo:
            load_pyproject_settings(path)
        assert "['dominance']" in str(excinfo.value)

    @needs_tomllib
    def test_infinite_margin_parses(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text("[tool.repro.analyze]\ndominance_margin = inf\n")
        assert load_pyproject_settings(path).dominance_margin == float("inf")

    @needs_tomllib
    def test_rule_entry_without_id_raises(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[[tool.repro.analyze.rules]]\naction = \"suppress\"\n"
        )
        with pytest.raises(ConfigurationError):
            load_pyproject_settings(path)

    @needs_tomllib
    def test_rule_entry_unknown_key_raises(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[[tool.repro.analyze.rules]]\n"
            'id = "DYSEL-MODE-001"\nseverity = "warning"\n'
        )
        with pytest.raises(ConfigurationError) as excinfo:
            load_pyproject_settings(path)
        assert "severity" in str(excinfo.value)

    @needs_tomllib
    def test_unknown_rule_id_raises(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[[tool.repro.analyze.rules]]\nid = \"DYSEL-NOPE-123\"\n"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            load_pyproject_settings(path)
        assert "DYSEL-NOPE-123" in str(excinfo.value)

    @needs_tomllib
    def test_malformed_trip_bounds_raise(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[tool.repro.analyze]\ndata_trip_bounds = [1, 2, 3]\n"
        )
        with pytest.raises(ConfigurationError):
            load_pyproject_settings(path)
