"""Golden refresh guard: the analytic drain changes no output.

``test_differential`` checks each launch against ``goldens.json`` under
whatever path the engine picks by default.  This guard removes the
"whatever the engine picks": every catalog case × mode × flow runs twice
— once with the analytic drain forced *on* for all batch sizes, once
with it forced *off* (pure event machinery) — and the two output
digests must agree with each other and with the recorded golden.  A
divergence here is the exact regression a drain change could introduce:
a schedule change that moves a slice boundary or flips a winner while
each individual run still looks self-consistent.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.runtime import DySelRuntime
from repro.device import engine as engine_mod

from .catalog import CATALOG
from .test_differential import (
    FLOWS,
    MODES,
    REGEN,
    _load_goldens,
    build_case,
    output_digest,
)

#: FAST_BATCH_THRESHOLD forcings under test.
FORCINGS = {
    "drain-on": 1,
    "drain-off": 10**9,
}


def _launch_digest(case_id, mode, flow, threshold):
    saved = engine_mod.FAST_BATCH_THRESHOLD
    engine_mod.FAST_BATCH_THRESHOLD = threshold
    try:
        case, device, config = build_case(case_id)
        runtime = DySelRuntime(device, config)
        runtime.register_pool(case.pool)
        args = case.fresh_args()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = runtime.launch_kernel(
                case.pool.name,
                args,
                case.workload_units,
                mode=mode,
                flow=flow,
            )
        assert case.validate(args), (
            f"{case_id} diverges from its reference with "
            f"threshold={threshold}"
        )
        return output_digest(case, args), result.selected
    finally:
        engine_mod.FAST_BATCH_THRESHOLD = saved


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.value)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case_id", sorted(CATALOG))
def test_forced_paths_agree_with_each_other_and_the_golden(
    case_id, mode, flow
):
    if REGEN:
        pytest.skip("golden regeneration runs the primary suite only")
    digests = {
        label: _launch_digest(case_id, mode, flow, threshold)
        for label, threshold in FORCINGS.items()
    }
    on_digest, on_selected = digests["drain-on"]
    off_digest, off_selected = digests["drain-off"]
    assert on_digest == off_digest, (
        f"{case_id}/{mode.value}/{flow.value}: analytic drain changed "
        "the committed output composition"
    )
    assert on_selected == off_selected, (
        f"{case_id}/{mode.value}/{flow.value}: analytic drain changed "
        f"the selection ({on_selected!r} vs {off_selected!r})"
    )
    key = f"{case_id}/{mode.value}/{flow.value}"
    goldens = _load_goldens()
    assert key in goldens, f"no golden for {key}"
    assert on_digest == goldens[key], (
        f"{key}: forced-path digest disagrees with the recorded golden"
    )
