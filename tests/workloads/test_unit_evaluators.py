"""Vectorized per-unit evaluators equal their per-unit loops, bit for bit.

``histogram._contention``, ``particle_filter._search_trips`` and
``spmv_jds._diag_trips`` price data-dependent loops for every unit a
launch covers.  They are vectorized over units; each reference below is
the per-unit Python loop they replaced, kept here as the specification.
Comparisons are exact (``array_equal``): the sums involved are
integer-valued, so summing then dividing reproduces ``np.mean``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.kernel.buffers import Buffer
from repro.workloads import histogram, particle_filter, spmv_jds


def reference_contention(args, unit_ids):
    data = args["data"].data
    factors = np.ones(len(unit_ids))
    for index, unit in enumerate(np.asarray(unit_ids)):
        e0 = int(unit) * histogram.ELEMS_PER_UNIT
        e1 = min(e0 + histogram.ELEMS_PER_UNIT, len(data))
        if e1 <= e0:
            continue
        counts = np.bincount(data[e0:e1], minlength=histogram.BINS)
        factors[index] = 1.0 + 31.0 * float(counts.max()) / (e1 - e0)
    return factors


def reference_search_trips(args, unit_ids):
    cdf = args["cdf"].data
    u = args["u"].data
    trips = np.zeros(len(unit_ids))
    positions = np.searchsorted(cdf, u)
    for index, unit in enumerate(np.asarray(unit_ids)):
        p0 = int(unit) * particle_filter.PARTICLES_PER_UNIT
        p1 = min(p0 + particle_filter.PARTICLES_PER_UNIT, len(u))
        trips[index] = float(np.mean(positions[p0:p1])) if p1 > p0 else 0.0
    return np.maximum(trips, 1.0)


def reference_diag_trips(args, unit_ids):
    matrix = args["matrix"]
    sums = np.zeros(len(unit_ids))
    for index, unit in enumerate(np.asarray(unit_ids)):
        lo = int(unit) * spmv_jds.ROWS_PER_UNIT
        hi = min(lo + spmv_jds.ROWS_PER_UNIT, matrix.rows)
        sums[index] = float(np.mean(matrix.row_nnz[lo:hi])) if hi > lo else 0.0
    return np.maximum(sums, 1.0)


def _histogram_args(distribution, elems):
    config = ReproConfig()
    return histogram.swap_case(distribution, elems, config).fresh_args()


def _unit_id_sets(units):
    """Full range, profiling slices at offsets, non-contiguous ids, and
    ids past the end (empty units)."""
    return {
        "full": np.arange(units, dtype=np.int64),
        "head-slice": np.arange(0, 3, dtype=np.int64),
        "offset-slice": np.arange(units // 2, units // 2 + 5, dtype=np.int64),
        "tail-slice": np.arange(units - 4, units, dtype=np.int64),
        "non-contiguous": np.array([units - 1, 0, 7, 3, 3], dtype=np.int64),
        "past-the-end": np.array([units - 1, units, units + 2], dtype=np.int64),
        "empty": np.zeros(0, dtype=np.int64),
    }


# (label, args factory, unit count, evaluator, reference).  Sizes that are
# not a multiple of the unit size leave a partial last unit.
CASES = [
    (
        "histogram-uniform-partial",
        lambda: _histogram_args("uniform", 20 * histogram.ELEMS_PER_UNIT + 300),
        21,
        histogram._contention,
        reference_contention,
    ),
    (
        "histogram-skewed-full",
        lambda: _histogram_args("skewed", 1 << 16),
        64,
        histogram._contention,
        reference_contention,
    ),
    (
        "particle-filter-partial",
        lambda: particle_filter.placement_case(4000, ReproConfig()).fresh_args(),
        -(-4000 // particle_filter.PARTICLES_PER_UNIT),
        particle_filter._search_trips,
        reference_search_trips,
    ),
    (
        "spmv-jds-full",
        lambda: spmv_jds.vectorization_case(2048, ReproConfig()).fresh_args(),
        2048 // spmv_jds.ROWS_PER_UNIT,
        spmv_jds._diag_trips,
        reference_diag_trips,
    ),
    (
        "spmv-jds-partial",
        lambda: spmv_jds.vectorization_case(2000, ReproConfig()).fresh_args(),
        -(-2000 // spmv_jds.ROWS_PER_UNIT),
        spmv_jds._diag_trips,
        reference_diag_trips,
    ),
]


@pytest.mark.parametrize(
    "label, make_args, units, evaluator, reference",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_vectorized_evaluator_matches_reference_loop(
    label, make_args, units, evaluator, reference
):
    args = make_args()
    for name, ids in _unit_id_sets(units).items():
        got = evaluator(args, ids)
        want = reference(args, ids)
        assert got.shape == ids.shape, (label, name)
        assert np.array_equal(got, want), (label, name)


def test_contention_rejects_out_of_range_bins_like_the_executor():
    """A bin value >= BINS must raise, not alias into the next unit's
    counts; the executor's bincount-into-``hist`` rejects it the same way."""
    data = np.zeros(3 * histogram.ELEMS_PER_UNIT, dtype=np.int32)
    data[histogram.ELEMS_PER_UNIT + 5] = histogram.BINS
    args = {
        "data": Buffer("data", data, writable=False),
        "hist": Buffer("hist", np.zeros(histogram.BINS, dtype=np.int64)),
    }
    with pytest.raises(ValueError):
        histogram._executor(args, 0, 3)
    with pytest.raises(ValueError):
        histogram._contention(args, np.arange(3, dtype=np.int64))
    data[histogram.ELEMS_PER_UNIT + 5] = -1
    with pytest.raises(ValueError):
        histogram._contention(args, np.arange(3, dtype=np.int64))
