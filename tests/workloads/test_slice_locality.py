"""Property: every catalog evaluator is local to the units it is asked for.

Loop-bound evaluators, footprint hints and stride evaluators read only
the data of the units they price, so a profiling slice costs what the
slice costs, not what the whole input does.  That is safe only if an
evaluation over any unit slice equals the same slice of the whole-range
evaluation, bit for bit; this suite draws slices over every data-dependent
evaluator the replay catalog's pools (and the GPU-kind spmv-csr pools)
declare and checks exactly that.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from repro.config import ReproConfig  # noqa: E402
from repro.traffic import DEFAULT_WORKLOADS  # noqa: E402
from repro.traffic.replay import TrafficReplayer  # noqa: E402
from repro.workloads import spmv_csr  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

BUCKETS = (256, 2048)


def _evaluators(pool):
    """``(label, evaluator)`` for every data-dependent callable a pool's
    IRs declare, once per callable."""
    found = {}
    for variant in pool.variants:
        ir = variant.ir
        for loop in ir.loops:
            if loop.bound.evaluator is not None:
                found.setdefault(
                    id(loop.bound.evaluator),
                    (f"{variant.name}:loop:{loop.name}", loop.bound.evaluator),
                )
        for access in ir.accesses:
            for kind in ("footprint_hint", "stride_evaluator"):
                evaluator = getattr(access, kind)
                if evaluator is not None:
                    found.setdefault(
                        id(evaluator),
                        (f"{variant.name}:{kind}:{access.buffer}", evaluator),
                    )
    return list(found.values())


@functools.lru_cache(maxsize=None)
def catalog():
    """``(case label, units, args, evaluator label, evaluator, whole)``
    for every evaluator of every case, with its whole-range result."""
    config = ReproConfig()
    replayer = TrafficReplayer(config)
    cases = [
        (f"{workload}@{bucket}", replayer.case_for(workload, bucket))
        for workload in DEFAULT_WORKLOADS
        for bucket in BUCKETS
    ] + [
        (
            f"spmv-csr/gpu/{kind}",
            spmv_csr.input_dependent_case("gpu", kind, 1024, config),
        )
        for kind in ("random", "diagonal")
    ]
    entries = []
    for case_label, case in cases:
        args = case.fresh_args()
        units = case.workload_units
        whole_ids = np.arange(units, dtype=np.int64)
        for label, evaluator in _evaluators(case.pool):
            whole = np.asarray(evaluator(args, whole_ids), dtype=float)
            entries.append(
                (case_label, units, args, label, evaluator, whole)
            )
    return tuple(entries)


def test_catalog_declares_every_evaluator_kind():
    """The catalog reaches loop bounds, footprint hints and stride
    evaluators on every data-dependent workload."""
    entries = catalog()
    labels = {entry[3].split(":")[1] for entry in entries}
    assert labels == {"loop", "footprint_hint", "stride_evaluator"}
    workloads = {entry[0].split("@")[0] for entry in entries}
    assert {
        "spmv-csr/random",
        "spmv-csr/diagonal",
        "spmv-jds",
        "spmv-jds/schedule",
        "histogram",
        "particle-filter",
    } <= workloads


@chaos_seed
@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(min_value=0),
    start=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    length=st.integers(min_value=1, max_value=64),
)
def test_slice_equals_slice_of_whole_range(index, start, length):
    entries = catalog()
    case_label, units, args, label, evaluator, whole = entries[
        index % len(entries)
    ]
    first = int(start * units)
    last = min(units, first + length)
    ids = np.arange(first, last, dtype=np.int64)
    got = np.asarray(evaluator(args, ids), dtype=float)
    want = whole[first:last]
    assert got.shape == want.shape, (case_label, label, first, last)
    assert got.tobytes() == want.tobytes(), (case_label, label, first, last)


@pytest.mark.parametrize("where", ["head", "middle", "tail", "single"])
def test_fixed_slices_equal_slice_of_whole_range(where):
    for case_label, units, args, label, evaluator, whole in catalog():
        first, last = {
            "head": (0, min(units, 4)),
            "middle": (units // 2, min(units, units // 2 + 7)),
            "tail": (max(0, units - 5), units),
            "single": (units // 3, units // 3 + 1),
        }[where]
        ids = np.arange(first, last, dtype=np.int64)
        got = np.asarray(evaluator(args, ids), dtype=float)
        assert got.tobytes() == whole[first:last].tobytes(), (
            case_label,
            label,
            first,
            last,
        )
