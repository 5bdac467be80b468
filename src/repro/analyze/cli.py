"""Command line interface: ``python -m repro.analyze``.

Verifies kernel pools before any launch and renders the legality matrix
with structured rule-id diagnostics.  Exit status:

* ``0`` — every verified pool can launch with its defaults (and with the
  explicitly requested ``--mode``/``--flow`` combination, when given);
* ``1`` — at least one pool has blocking ERROR findings for the checked
  combination(s);
* ``2`` — usage error, including ``--pool`` filters that match nothing.

Per-combination ERROR findings on combinations a pool does not launch by
default (e.g. a global-atomic kernel under ``fully``) are *flagged* in
the matrix but do not fail the run — they are exactly what the verifier
exists to surface, and the runtime gate demotes or refuses them.

Beyond verification the CLI renders the rule catalog
(``--explain DYSEL-<PASS>-<NNN>``), each pool's static cost intervals
with its dominance-pruned candidate set, and a machine-readable report
(``--format json``).  Configured severity adjustments from
``[tool.repro.analyze]`` in ``pyproject.toml`` apply unless ``--strict``
ignores them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import AnalyzeSettings, ReproConfig
from ..errors import ConfigurationError
from ..modes import OrchestrationFlow, ProfilingMode
from .catalog import example_entries
from .diagnostics import VerificationReport
from .dominance import policy_from_settings, pool_cost_bounds
from .manager import PoolVerifier
from .overrides import load_pyproject_settings
from .passes import VerifyOverrides
from .registry import RULES, explain as explain_rule


def _parse_combo(
    mode: Optional[str], flow: Optional[str]
) -> Optional[Tuple[ProfilingMode, OrchestrationFlow]]:
    """Resolve --mode/--flow flags into one combo (both or neither)."""
    if mode is None and flow is None:
        return None
    if mode is None or flow is None:
        print("--mode and --flow must be given together", file=sys.stderr)
        raise SystemExit(2)
    try:
        return ProfilingMode(mode), OrchestrationFlow(flow)
    except ValueError:
        print(
            f"unknown mode/flow {mode!r}/{flow!r}; modes: "
            f"{[m.value for m in ProfilingMode]}, flows: "
            f"{[f.value for f in OrchestrationFlow]}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Statically verify DySel kernel pools before launch.",
    )
    parser.add_argument(
        "--all-examples",
        action="store_true",
        help="verify every example/workload pool (default when no filter "
        "is given)",
    )
    parser.add_argument(
        "--pool",
        action="append",
        default=[],
        metavar="SUBSTRING",
        help="verify only pools whose label contains SUBSTRING "
        "(repeatable; a SUBSTRING matching no pool is a usage error)",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ProfilingMode],
        help="additionally require this profiling mode to be legal",
    )
    parser.add_argument(
        "--flow",
        choices=[f.value for f in OrchestrationFlow],
        help="orchestration flow for --mode",
    )
    parser.add_argument(
        "--override-atomics",
        action="store_true",
        help="apply the programmer override: assert global atomics are "
        "race-free across work-groups (downgrades DYSEL-MODE-001)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE_ID",
        help="print the registry entry for one rule id "
        "(e.g. DYSEL-MODE-001) and exit",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format; json emits one machine-readable document "
        "including the full rule catalog",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="ignore configured [tool.repro.analyze] severity "
        "adjustments (suppressions/downgrades) from pyproject.toml",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="include INFO findings in the output",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list catalog pool labels and exit",
    )
    return parser


def _resolve_settings(args: argparse.Namespace) -> AnalyzeSettings:
    """Settings from pyproject + the ``--strict`` flag."""
    try:
        settings = load_pyproject_settings()
    except ConfigurationError as exc:
        print(f"invalid [tool.repro.analyze] configuration: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if args.strict and settings.rules:
        settings = dataclasses.replace(settings, rules=())
    return settings


def _report_dict(
    label: str,
    report: VerificationReport,
    verbose: bool,
) -> Dict[str, object]:
    """JSON-ready rendering of one pool's report."""
    combo = report.default_combo
    diagnostics = [
        {
            "rule_id": d.rule_id,
            "severity": d.severity.value,
            "variant": d.variant,
            "message": d.message,
            "hint": d.hint,
        }
        for d in report.diagnostics
        if verbose or d.severity.value != "info"
    ]
    return {
        "label": label,
        "kernel": report.pool,
        "ok": report.ok,
        "default_launch": (
            f"{combo[0].value}_{combo[1].value}" if combo else None
        ),
        "diagnostics": diagnostics,
    }


def _filter_entries(entries, filters: Sequence[str]):
    """Apply --pool filters; ``None`` (after reporting to stderr) when
    any SUBSTRING matches nothing — each unmatched filter is named, even
    when other filters did match."""
    unmatched = [
        sub
        for sub in filters
        if not any(sub in label for label, _entry in entries)
    ]
    if unmatched:
        named = ", ".join(repr(sub) for sub in unmatched)
        print(
            f"--pool filter(s) matched no catalog pool: {named}; "
            "use --list to see available labels",
            file=sys.stderr,
        )
        return None
    return [
        (label, entry)
        for label, entry in entries
        if any(sub in label for sub in filters)
    ]


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)

    if args.explain is not None:
        try:
            rule = explain_rule(args.explain)
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(rule.as_dict(), indent=2, sort_keys=True))
        else:
            print(rule.format())
        return 0

    config = ReproConfig()
    entries = example_entries(config)
    if args.list:
        for label, entry in entries:
            print(f"{label}  ({entry.case.pool.name}, "
                  f"{len(entry.case.pool.variants)} variants)")
        return 0
    if args.pool:
        filtered = _filter_entries(entries, args.pool)
        if filtered is None:
            return 2
        entries = filtered

    combo = _parse_combo(args.mode, args.flow)
    overrides = VerifyOverrides(atomics_race_free=args.override_atomics)
    settings = _resolve_settings(args)
    verifier = PoolVerifier()
    failures: List[str] = []
    pool_docs: List[Dict[str, object]] = []

    for label, entry in entries:
        report = verifier.verify(
            entry.case.pool,
            compute_units=entry.compute_units,
            workload_units=entry.case.workload_units,
            overrides=overrides,
            device_kind=entry.device_kind,
            settings=settings,
        )
        doc = _report_dict(label, report, verbose=args.verbose)
        if args.format == "text":
            print(f"== {label} ==")
            print(report.format(verbose=args.verbose))
        verdict = pool_cost_bounds(
            entry.case.pool,
            entry.device_kind,
            policy=policy_from_settings(settings),
            margin=settings.dominance_margin,
            workload_units=entry.case.workload_units,
        )
        doc["dominance"] = verdict.as_dict()
        if args.format == "text":
            print(verdict.format_table())
        pool_docs.append(doc)
        if not report.ok:
            failures.append(f"{label}: no legal launch with pool defaults")
        if combo is not None and not report.is_legal(*combo):
            rules = ",".join(
                sorted({d.rule_id for d in report.blocking(*combo)})
            )
            failures.append(
                f"{label}: {combo[0].value}_{combo[1].value} is illegal "
                f"({rules})"
            )
        if args.format == "text":
            print()

    checked = len(entries)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "checked": checked,
                    "ok": not failures,
                    "failures": failures,
                    "pools": pool_docs,
                    "rules": [rule.as_dict() for rule in RULES],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if failures else 0
    if failures:
        print(f"FAIL: {len(failures)} blocking finding(s) over "
              f"{checked} pool(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"OK: {checked} pool(s) verified")
    return 0


def main() -> None:
    """Console entry (exits the process)."""
    raise SystemExit(run())
