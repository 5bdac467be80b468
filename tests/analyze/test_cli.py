"""CLI tests: ``python -m repro.analyze`` exit codes and rendering."""

import json

import pytest

from repro.analyze.cli import run
from repro.analyze.registry import RULES


class TestCli:
    def test_list_names_catalog_pools(self, capsys):
        assert run(["--list"]) == 0
        out = capsys.readouterr().out
        assert "histogram/swap" in out
        assert "sgemm/vectorization" in out

    def test_legal_pool_verifies_clean(self, capsys):
        assert run(["--pool", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "== kmeans/schedules ==" in out
        assert "OK: 1 pool(s) verified" in out
        # The matrix still flags the one universally illegal combo.
        assert "ILLEGAL (DYSEL-ASYNC-001)" in out

    def test_illegal_pool_is_flagged_but_defaults_demote(self, capsys):
        # histogram is the known-illegal pool (global atomics): fully and
        # hybrid are ILLEGAL in the matrix, but swap_sync is legal, so the
        # pool still verifies with exit 0 — the verifier's job is to
        # surface the facts the gate demotes on.
        assert run(["--pool", "histogram"]) == 0
        out = capsys.readouterr().out
        assert "DYSEL-MODE-001" in out
        assert "default launch: swap_sync" in out

    def test_requested_illegal_combo_fails(self, capsys):
        assert run(
            ["--pool", "histogram", "--mode", "fully", "--flow", "sync"]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "fully_sync is illegal" in out
        assert "DYSEL-MODE-001" in out

    def test_swap_async_illegal_everywhere(self, capsys):
        assert run(
            ["--pool", "kmeans", "--mode", "swap", "--flow", "async"]
        ) == 1
        out = capsys.readouterr().out
        assert "swap_async is illegal (DYSEL-ASYNC-001)" in out

    def test_mode_requires_flow(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--pool", "kmeans", "--mode", "fully"])
        assert excinfo.value.code == 2
        assert "together" in capsys.readouterr().err

    def test_unmatched_filter_is_usage_error(self, capsys):
        assert run(["--pool", "no-such-pool"]) == 2

    def test_unmatched_filter_named_even_when_others_match(self, capsys):
        # A matching filter must not mask a typo'd one.
        assert run(["--pool", "kmeans", "--pool", "nope"]) == 2
        err = capsys.readouterr().err
        assert "'nope'" in err
        assert "kmeans" not in err
        assert "--list" in err

    def test_verbose_includes_info_findings(self, capsys):
        run(["--pool", "kmeans", "--verbose"])
        out = capsys.readouterr().out
        assert "DYSEL-SANDBOX-003" in out

    def test_override_atomics_relaxes_histogram(self, capsys):
        # With the programmer override, the atomics findings downgrade;
        # what keeps fully illegal for histogram is the non-overridable
        # overlap/uniformity facts — they must survive the override.
        assert run(
            [
                "--pool",
                "histogram",
                "--override-atomics",
                "--mode",
                "hybrid",
                "--flow",
                "sync",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "overridden" in out  # downgraded findings stay visible
        assert "DYSEL-MODE-002" in out  # overlap still blocks hybrid


class TestDominanceFlag:
    """Every pool's dominance verdict is always reported."""

    def test_dominance_renders_interval_table(self, capsys):
        assert run(["--pool", "sgemm"]) == 0
        out = capsys.readouterr().out
        assert "cost bounds" in out
        assert "PRUNED" in out

    def test_dominance_json_embeds_verdicts(self, capsys):
        assert run(["--all-examples", "--strict", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        verdicts = [p["dominance"] for p in doc["pools"]]
        assert all("pruned" in v and "survivors" in v for v in verdicts)
        # The synthetic catalog has at least one statically hopeless
        # variant somewhere, or the analysis is not exercising anything.
        assert any(v["pruned"] for v in verdicts)

    def test_removed_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--pool", "sgemm", "--dominance"])
        assert excinfo.value.code == 2
        assert "--dominance" in capsys.readouterr().err


class TestExplain:
    def test_explain_known_rule(self, capsys):
        assert run(["--explain", "DYSEL-DOM-001"]) == 0
        out = capsys.readouterr().out
        assert "DYSEL-DOM-001" in out
        assert "remedy" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert run(["--explain", "DYSEL-DOM-999"]) == 2
        # The error suggests nearby registered ids.
        assert "DYSEL-DOM-001" in capsys.readouterr().err

    def test_explain_json_round_trips(self, capsys):
        assert run(["--explain", "DYSEL-COST-002", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == "DYSEL-COST-002"
        assert set(doc) == {"id", "pass", "severity", "summary", "remedy"}


class TestJsonReport:
    def test_document_carries_the_rule_catalog(self, capsys):
        assert run(["--all-examples", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checked"] == len(doc["pools"])
        assert len(doc["rules"]) == len(RULES)
        ids = {r["id"] for r in doc["rules"]}
        assert "DYSEL-DOM-001" in ids

    def test_strict_run_is_clean(self, capsys):
        assert run(["--all-examples", "--strict"]) == 0
