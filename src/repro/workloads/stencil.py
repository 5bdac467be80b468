"""stencil: 3-D 7-point Jacobi iteration (Parboil).

A regular, bandwidth-bound kernel — the canonical fully-productive
profiling target (paper §2.3 names stencil alongside BLAS).  It appears
in:

* **Fig 8** — LC scheduling on CPU: 6 loop orders of (wi_z, wi_y, wi_x);
  orders ending in the x-row are unit-stride streams, orders ending in y
  or z stride by a row or a plane.
* **Fig 10** — mixed optimizations: Parboil ships three versions — base,
  2-D scratchpad tiling + x-coarsening, and z-coarsening — with work
  assignment factors of 64× and 128× relative to base (paper §4.3).  On
  Kepler, z-coarsening wins and tiling adds nothing on top; on CPU the
  base version wins.

The **workload unit** is a block of UNIT_Y×UNIT_Z x-rows (16 rows), so
the loop nest has real extent in every dimension and schedule
permutations are meaningful; iterative solvers launch the kernel once per
time step and profile only the first (§3.1).  The base work-group covers
one unit, so Parboil's 64×/128× work assignment factors relative to a
row-sized work-group become 4×/8× relative to ours — the same physical
coverage.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import numpy as np

from ..compiler.transforms.coarsen import coarsen
from ..compiler.transforms.schedule import enumerate_schedules
from ..compiler.transforms.tile import tile_scratchpad
from ..compiler.transforms.vectorize import auto_vectorize
from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer
from ..kernel.ir import (
    AccessPattern,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase

#: Default grid (nx, ny, nz): Parboil's default is 512×512×64; we keep the
#: same plane shape at a quarter the depth for simulation speed.
DEFAULT_GRID = (256, 256, 32)

#: Rows per unit along y and planes per unit along z.
UNIT_Y = 8
UNIT_Z = 2

#: Jacobi coefficients (central, face neighbours).
C0 = np.float32(0.5)
C1 = np.float32(1.0 / 12.0)


def stencil_signature() -> KernelSignature:
    """The kernel contract every stencil variant implements."""
    return KernelSignature(
        "stencil",
        (
            ArgSpec("grid", is_buffer=False),
            ArgSpec("a_in"),
            ArgSpec("a_out", is_output=True),
        ),
    )


def _row_step(src, dst, z: int, y: int, nz: int, ny: int) -> None:
    """One output row; boundary cells copy through (Parboil's halo)."""
    if z == 0 or z == nz - 1 or y == 0 or y == ny - 1:
        dst[z, y, :] = src[z, y, :]
        return
    row = src[z, y, 1:-1]
    dst[z, y, 1:-1] = (
        C0 * row
        + C1
        * (
            src[z, y, :-2]
            + src[z, y, 2:]
            + src[z, y - 1, 1:-1]
            + src[z, y + 1, 1:-1]
            + src[z - 1, y, 1:-1]
            + src[z + 1, y, 1:-1]
        )
    )
    dst[z, y, 0] = src[z, y, 0]
    dst[z, y, -1] = src[z, y, -1]


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """Units are UNIT_Y×UNIT_Z row blocks in (z-block, y-block) order."""
    nx, ny, nz = args["grid"]  # type: ignore[misc]
    src = args["a_in"].data  # type: ignore[union-attr]
    dst = args["a_out"].data  # type: ignore[union-attr]
    y_blocks = ny // UNIT_Y
    for unit in range(unit_start, unit_end):
        zb, yb = divmod(unit, y_blocks)
        for dz in range(UNIT_Z):
            for dy in range(UNIT_Y):
                _row_step(src, dst, zb * UNIT_Z + dz, yb * UNIT_Y + dy, nz, ny)


def base_variant(grid, device_kind: str) -> KernelVariant:
    """Parboil's base stencil: one work-item per output cell.

    The canonical nest over a unit is (wi_z, wi_y, wi_x) with only wi_x
    actually iterating (a unit is one row); the stride metadata spans the
    full grid so schedule permutations change the walking order.
    """
    nx, ny, _nz = grid
    row_bytes = 4 * nx
    plane_bytes = row_bytes * ny
    window_bytes = float(3 * row_bytes + 2 * plane_bytes)

    loops = (
        Loop("wi_z", LoopBound(static_trips=UNIT_Z), is_work_item_loop=True),
        Loop("wi_y", LoopBound(static_trips=UNIT_Y), is_work_item_loop=True),
        Loop("wi_x", LoopBound(static_trips=nx), is_work_item_loop=True),
    )
    stream = (
        AccessPattern.COALESCED
        if device_kind == "gpu"
        else AccessPattern.UNIT_STRIDE
    )
    accesses = (
        # Seven reads per cell; the three x-adjacent ones share lines, so
        # the fresh traffic is ~3 rows (center plane row + z neighbours)
        # reflected in the footprint window.
        MemoryAccess(
            "a_in",
            False,
            stream,
            7 * 4.0,
            loop="wi_x",
            scope=("wi_z", "wi_y", "wi_x"),
            strides_by_loop=(
                ("wi_x", 4),
                ("wi_y", row_bytes),
                ("wi_z", plane_bytes),
            ),
            footprint_bytes=window_bytes,
        ),
        MemoryAccess(
            "a_out",
            True,
            stream,
            4.0,
            loop="wi_x",
            scope=("wi_z", "wi_y", "wi_x"),
            strides_by_loop=(
                ("wi_x", 4),
                ("wi_y", row_bytes),
                ("wi_z", plane_bytes),
            ),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=8.0,
        divergence=0.0,
        work_group_threads=nx,
        notes=("base 7-point stencil (one work-item per cell)",),
    )
    return KernelVariant(
        name="base",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=nx,
        description="row-per-work-group Jacobi step",
    )


def tiled_variant(grid, device_kind: str) -> KernelVariant:
    """Parboil's 2-D tiled version: scratchpad tile + x-coarsening, wa 64×.

    Stages a 2-D plane tile in scratchpad so y/z-neighbour reads hit
    on-chip memory, cutting input traffic ~2×; covers 64 rows per
    work-group.
    """
    nx, _ny, _nz = grid
    base = base_variant(grid, device_kind)
    scale = 64 // (UNIT_Y * UNIT_Z)
    # Staged volume: the tile is reloaded per z-step, so the staging
    # traffic tracks the halved input volume of the whole work-group.
    staged = int(scale * 7 * 4 * nx * UNIT_Y * UNIT_Z * 0.5)
    return tile_scratchpad(
        base,
        scratchpad_bytes=staged,
        traffic_scale={"a_in": 0.5},
        wa_factor_scale=scale,
        label="tiled2d",
    )


def coarsened_variant(grid, device_kind: str) -> KernelVariant:
    """Parboil's z-coarsened version: 128 rows (several planes) per
    work-group, reusing z-neighbour planes in registers (input traffic
    ~5/7: the z-neighbours are already loaded)."""
    base = base_variant(grid, device_kind)
    if device_kind == "gpu":
        # Registers carry both z-neighbour planes and the y-halo rows of
        # the marching window: input traffic roughly halves.
        bytes_scale = 0.5
        flops_scale = 1.0
    else:
        # On the CPU the cache window already captured that reuse, and
        # keeping several planes live spills registers.
        bytes_scale = 1.0
        flops_scale = 1.2
    return coarsen(
        base,
        factor=128 // (UNIT_Y * UNIT_Z),
        flops_scale=flops_scale,
        bytes_scale={"a_in": bytes_scale},
        label="coarsen-z",
    )


def make_args_factory(
    grid, config: ReproConfig = DEFAULT_CONFIG
) -> Callable[[], Dict[str, object]]:
    """Argument factory with a fixed random input grid."""
    nx, ny, nz = grid
    rng = config.rng("stencil", grid)
    a0 = rng.standard_normal((nz, ny, nx)).astype(np.float32)

    def make_args() -> Dict[str, object]:
        return {
            "grid": grid,
            "a_in": Buffer("a_in", a0.copy(), writable=False),
            "a_out": Buffer("a_out", np.zeros_like(a0)),
        }

    return make_args


def make_checker(grid, config: ReproConfig = DEFAULT_CONFIG):
    """Output validator: one Jacobi step against a vectorized reference."""
    nx, ny, nz = grid
    rng = config.rng("stencil", grid)
    src = rng.standard_normal((nz, ny, nx)).astype(np.float32)
    expected = src.copy()
    expected[1:-1, 1:-1, 1:-1] = C0 * src[1:-1, 1:-1, 1:-1] + C1 * (
        src[1:-1, 1:-1, :-2]
        + src[1:-1, 1:-1, 2:]
        + src[1:-1, :-2, 1:-1]
        + src[1:-1, 2:, 1:-1]
        + src[:-2, 1:-1, 1:-1]
        + src[2:, 1:-1, 1:-1]
    )

    def check(args: Mapping[str, object]) -> bool:
        out = args["a_out"].data  # type: ignore[union-attr]
        return bool(np.allclose(out, expected, rtol=1e-4, atol=1e-4))

    return check


def workload_units(grid) -> int:
    """Row blocks of one launch."""
    _nx, ny, nz = grid
    return (ny // UNIT_Y) * (nz // UNIT_Z)


def schedule_case(
    grid=DEFAULT_GRID,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 8: all 6 loop orders of the base kernel on the CPU."""
    base = base_variant(grid, "cpu")
    variants = tuple(
        auto_vectorize(variant) for _, variant in enumerate_schedules(base)
    )
    pool = VariantPool(
        spec=KernelSpec(signature=stencil_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="stencil/cpu/schedules",
        pool=pool,
        make_args=make_args_factory(grid, config),
        workload_units=workload_units(grid),
        iterations=iterations,
        check=make_checker(grid, config) if iterations == 1 else None,
        notes="Case Study I: LC scheduling, CPU",
    )


def schedule_family(grid=DEFAULT_GRID):
    """(order, variant) pairs for the LC heuristic baseline."""
    return [
        (order, auto_vectorize(variant))
        for order, variant in enumerate_schedules(base_variant(grid, "cpu"))
    ]


def mixed_case(
    device_kind: str,
    grid=DEFAULT_GRID,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 10: Parboil's three versions (base, tiled 64×, z-coarsened 128×)."""
    variants = (
        base_variant(grid, device_kind),
        tiled_variant(grid, device_kind),
        coarsened_variant(grid, device_kind),
    )
    pool = VariantPool(
        spec=KernelSpec(signature=stencil_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name=f"stencil/{device_kind}/mixed",
        pool=pool,
        make_args=make_args_factory(grid, config),
        workload_units=workload_units(grid),
        iterations=iterations,
        check=make_checker(grid, config) if iterations == 1 else None,
        notes="Case Study III: mixed compile-time optimizations",
    )
