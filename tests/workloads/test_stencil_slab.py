"""stencil's slab executor equals its per-row loop, bit for bit.

``stencil._executor`` computes every z-block's run of units as one slab.
The per-row loop it replaced is kept here as the specification: each
output row is either a halo copy or one float32 Jacobi step in a fixed
operand order, so comparisons are exact (``array_equal``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.workloads import stencil


def reference_row_step(src, dst, z, y, nz, ny):
    """One output row; boundary cells copy through (Parboil's halo)."""
    if z == 0 or z == nz - 1 or y == 0 or y == ny - 1:
        dst[z, y, :] = src[z, y, :]
        return
    row = src[z, y, 1:-1]
    dst[z, y, 1:-1] = stencil.C0 * row + stencil.C1 * (
        src[z, y, :-2]
        + src[z, y, 2:]
        + src[z, y - 1, 1:-1]
        + src[z, y + 1, 1:-1]
        + src[z - 1, y, 1:-1]
        + src[z + 1, y, 1:-1]
    )
    dst[z, y, 0] = src[z, y, 0]
    dst[z, y, -1] = src[z, y, -1]


def reference_executor(args, unit_start, unit_end):
    _nx, ny, nz = args["grid"]
    src = args["a_in"].data
    dst = args["a_out"].data
    y_blocks = ny // stencil.UNIT_Y
    for unit in range(unit_start, unit_end):
        zb, yb = divmod(unit, y_blocks)
        for dz in range(stencil.UNIT_Z):
            for dy in range(stencil.UNIT_Y):
                reference_row_step(
                    src,
                    dst,
                    zb * stencil.UNIT_Z + dz,
                    yb * stencil.UNIT_Y + dy,
                    nz,
                    ny,
                )


GRID = (16, 32, 8)  # 4 y-blocks x 4 z-blocks = 16 units


@pytest.mark.parametrize(
    "start, end",
    [(0, 16), (3, 11), (0, 1), (5, 16), (7, 9), (4, 8), (15, 16)],
)
def test_slab_matches_per_row_loop(start, end):
    case = stencil.schedule_case(GRID, ReproConfig())
    assert case.workload_units == 16
    slab_args = case.fresh_args()
    row_args = case.fresh_args()
    # Pre-fill the outputs so untouched rows must stay untouched.
    slab_args["a_out"].data[...] = -7.0
    row_args["a_out"].data[...] = -7.0
    stencil._executor(slab_args, start, end)
    reference_executor(row_args, start, end)
    assert np.array_equal(slab_args["a_out"].data, row_args["a_out"].data)


def test_whole_range_passes_the_case_check():
    case = stencil.schedule_case(GRID, ReproConfig())
    args = case.fresh_args()
    stencil._executor(args, 0, case.workload_units)
    assert case.validate(args)
