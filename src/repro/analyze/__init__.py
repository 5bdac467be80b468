"""Static kernel-pool verification (the repo's correctness-tooling layer).

DySel's safety rests on static facts the paper states but never checks
end-to-end: fully-productive profiling needs regular workloads with
disjoint per-slice outputs, hybrid mode needs enough declared sandboxes,
and global atomics or overlapping output ranges force swap-based
profiling, which cannot run asynchronously (paper §2.2–§2.3, Table 1).
This package lints a registered pool **before any launch**:

* :mod:`~repro.analyze.passes` — the legality rules (mode eligibility,
  sandbox capacity, async legality, signature/footprint consistency,
  safe-point feasibility, write-set races), each yielding structured
  findings;
* :mod:`~repro.analyze.costbound` — sound static cost intervals per
  (variant, device kind) via abstract interpretation of the IR;
* :mod:`~repro.analyze.dominance` — dominance pruning of micro-profiling
  candidate sets from those intervals (``DYSEL-COST-*``/``DYSEL-DOM-*``);
* :mod:`~repro.analyze.registry` — the authoritative machine-readable
  rule catalog (``--explain``, JSON export);
* :mod:`~repro.analyze.overrides` — configured severity adjustments
  (``[tool.repro.analyze]`` in ``pyproject.toml``);
* :mod:`~repro.analyze.diagnostics` — rule ids, severities, fix hints,
  and the per-(mode, flow) legality matrix;
* :mod:`~repro.analyze.manager` — the pass manager and the cached
  :class:`PoolVerifier` the runtime's launch gate uses;
* :mod:`~repro.analyze.gate` — strict/warn/off gating and auto-demotion
  to the cheapest legal mode (``ReproConfig.verify``);
* :mod:`~repro.analyze.cli` — ``python -m repro.analyze``.
"""

from .costbound import (
    Interval,
    VariantCostBound,
    WideningPolicy,
    ir_hash,
    variant_cost_bound,
)
from .diagnostics import (
    ALL_COMBOS,
    Diagnostic,
    Severity,
    VerificationReport,
    combos,
)
from .dominance import (
    DEFAULT_MARGIN,
    CostBoundPass,
    DominancePass,
    DominanceVerdict,
    pool_cost_bounds,
    prune_pool,
)
from .gate import GateDecision, VerificationWarning, gate_launch
from .manager import FULL_PASSES, PassManager, PoolVerifier, verify_pool
from .overrides import (
    apply_adjustments,
    load_pyproject_settings,
    validate_settings,
)
from .passes import (
    DEFAULT_PASSES,
    PoolContext,
    VerifierPass,
    VerifyOverrides,
)
from .registry import RULE_IDS, RULES, Rule, explain, find_rule

__all__ = [
    "ALL_COMBOS",
    "DEFAULT_MARGIN",
    "DEFAULT_PASSES",
    "CostBoundPass",
    "Diagnostic",
    "DominancePass",
    "DominanceVerdict",
    "FULL_PASSES",
    "GateDecision",
    "Interval",
    "PassManager",
    "PoolContext",
    "PoolVerifier",
    "RULES",
    "RULE_IDS",
    "Rule",
    "Severity",
    "VariantCostBound",
    "VerificationReport",
    "VerificationWarning",
    "VerifierPass",
    "VerifyOverrides",
    "WideningPolicy",
    "apply_adjustments",
    "combos",
    "explain",
    "find_rule",
    "gate_launch",
    "ir_hash",
    "load_pyproject_settings",
    "pool_cost_bounds",
    "prune_pool",
    "validate_settings",
    "variant_cost_bound",
    "verify_pool",
]
