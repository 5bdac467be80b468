"""Configured rule-severity adjustments and the pyproject loader.

The suppression baseline lives in two equivalent places:

* programmatically, as :class:`~repro.config.RuleAdjustment` entries on
  ``ReproConfig.analyze.rules``;
* declaratively, as a ``[tool.repro.analyze]`` table in ``pyproject.toml``::

      [tool.repro.analyze]
      dominance_margin = 1.5     # inf profiles every variant
      data_trip_bounds = [0, 4096]

      [[tool.repro.analyze.rules]]
      id = "DYSEL-SIG-004"
      action = "suppress"        # or "downgrade"
      pools = ["axpy"]           # label substrings; omit for all pools

Unknown rule ids are configuration errors (validated against
:mod:`repro.analyze.registry`), so a typo cannot silently suppress
nothing.  Parsing needs :mod:`tomllib` (Python ≥ 3.11); on older
interpreters the loader degrades to the programmatic settings and reports
why.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Sequence, Tuple

from ..config import AnalyzeSettings, RuleAdjustment
from ..errors import ConfigurationError
from .diagnostics import Diagnostic, Severity
from .registry import RULE_IDS, find_rule

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised on 3.10 CI only
    tomllib = None


def validate_settings(settings: AnalyzeSettings) -> AnalyzeSettings:
    """Check every configured adjustment names a registered rule.

    Returns the settings unchanged on success; raises
    :class:`~repro.errors.ConfigurationError` naming every unknown id.
    """
    unknown = sorted(
        {adj.rule_id for adj in settings.rules if find_rule(adj.rule_id) is None}
    )
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s) in analyze settings: {unknown}; "
            f"registered ids: {list(RULE_IDS)}"
        )
    return settings


def apply_adjustments(
    diagnostics: Sequence[Diagnostic],
    pool_label: str,
    settings: AnalyzeSettings,
) -> Tuple[Diagnostic, ...]:
    """Apply configured suppressions/downgrades to a pool's findings.

    Suppressed diagnostics are dropped; downgrades turn ERROR findings
    into WARNING (non-ERROR findings are left alone — there is nothing
    below to demote them to that the verbosity filter does not already
    handle).
    """
    if not settings.rules:
        return tuple(diagnostics)
    adjusted = []
    for diagnostic in diagnostics:
        keep = diagnostic
        for adjustment in settings.rules:
            if adjustment.rule_id != diagnostic.rule_id:
                continue
            if not adjustment.matches(pool_label):
                continue
            if adjustment.action == "suppress":
                keep = None
                break
            if keep.severity is Severity.ERROR:
                keep = keep.downgraded("configured downgrade")
        if keep is not None:
            adjusted.append(keep)
    return tuple(adjusted)


def load_pyproject_settings(
    pyproject: Optional[Path] = None,
    base: Optional[AnalyzeSettings] = None,
) -> AnalyzeSettings:
    """Settings from ``[tool.repro.analyze]``, merged over ``base``.

    Missing file, missing table, or a pre-3.11 interpreter (no
    :mod:`tomllib`; this repo adds no third-party TOML dependency) all
    return ``base`` unchanged.  A present table is validated strictly:
    unknown keys, malformed entries and unknown rule ids raise
    :class:`~repro.errors.ConfigurationError`.
    """
    settings = base if base is not None else AnalyzeSettings()
    path = pyproject if pyproject is not None else Path("pyproject.toml")
    if tomllib is None or not path.is_file():
        return settings
    with path.open("rb") as handle:
        document = tomllib.load(handle)
    table = document.get("tool", {}).get("repro", {}).get("analyze")
    if table is None:
        return settings

    known = {"dominance_margin", "data_trip_bounds", "rules"}
    unknown_keys = sorted(set(table) - known)
    if unknown_keys:
        raise ConfigurationError(
            f"[tool.repro.analyze] has unknown key(s) {unknown_keys}; "
            f"known keys: {sorted(known)}"
        )

    changes = {}
    if "dominance_margin" in table:
        changes["dominance_margin"] = float(table["dominance_margin"])
    if "data_trip_bounds" in table:
        bounds = table["data_trip_bounds"]
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ConfigurationError(
                "[tool.repro.analyze] data_trip_bounds must be a "
                f"two-element list, got {bounds!r}"
            )
        changes["data_trip_bounds"] = (float(bounds[0]), float(bounds[1]))
    if "rules" in table:
        adjustments = []
        for entry in table["rules"]:
            if not isinstance(entry, dict) or "id" not in entry:
                raise ConfigurationError(
                    "[[tool.repro.analyze.rules]] entries need an 'id' "
                    f"key, got {entry!r}"
                )
            extra = sorted(set(entry) - {"id", "action", "pools"})
            if extra:
                raise ConfigurationError(
                    f"rule adjustment {entry['id']!r} has unknown "
                    f"key(s) {extra}"
                )
            adjustments.append(
                RuleAdjustment(
                    rule_id=str(entry["id"]),
                    action=str(entry.get("action", "suppress")),
                    pools=tuple(str(p) for p in entry.get("pools", ())),
                )
            )
        changes["rules"] = settings.rules + tuple(adjustments)

    merged = dataclasses.replace(settings, **changes)
    return validate_settings(merged)
