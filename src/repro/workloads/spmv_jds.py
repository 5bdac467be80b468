"""spmv-jds: sparse matrix-vector multiply on JDS (Parboil).

The jagged-diagonal format stores the j-th nonzeros of all (length-sorted)
rows contiguously, so walking rows at a fixed diagonal is unit-stride —
the layout GPUs coalesce and CPU vectorizers stream.  It appears in:

* **Fig 1** — Intel vectorizer width choice: the kernel exercises control
  divergence (rows drop out of long diagonals), so the heuristic goes
  8-wide while narrower code wins by ~1.24×.
* **Fig 8** — LC scheduling on CPU: 2 schedules (diagonal-major "DFO" vs
  row-major "BFO").
* **Fig 10** — mixed optimizations: four GPU versions crossing
  {unroll+prefetch} × {texture placement of x}; texture-only is best on
  Kepler and unroll+prefetch is redundant on top of it (DySel picks the
  second-best at 0.8% cost, the paper's one imperfect selection).  The two
  CPU versions are the base kernel and a port of the GPU-optimized one,
  whose layout assumptions collapse on the cache hierarchy.

The **workload unit** is a block of 32 sorted rows.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping

import numpy as np

from ..compiler.transforms.placement import place
from ..compiler.transforms.prefetch import add_prefetch
from ..compiler.transforms.schedule import reorder_loops
from ..compiler.transforms.unroll import unroll
from ..compiler.transforms.vectorize import auto_vectorize, vectorize
from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer, MemorySpace
from ..kernel.ir import (
    GATHER_STRIDE,
    AccessPattern,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase, per_unit_mean
from .matrices import JdsMatrix, csr_to_jds, random_csr

#: Rows per workload unit.
ROWS_PER_UNIT = 32
#: Default matrix dimension (random 1% CSR converted to JDS).
DEFAULT_SIZE = 4096


def jds_signature() -> KernelSignature:
    """The kernel contract every spmv-jds variant implements."""
    return KernelSignature(
        "spmv_jds",
        (
            ArgSpec("matrix", is_buffer=False),
            ArgSpec("data"),
            ArgSpec("col"),
            ArgSpec("x"),
            ArgSpec("y", is_output=True),
        ),
    )


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """y[original rows] = A[sorted rows in range] · x."""
    matrix: JdsMatrix = args["matrix"]  # type: ignore[assignment]
    data = args["data"].data  # type: ignore[union-attr]
    col = args["col"].data  # type: ignore[union-attr]
    x = args["x"].data  # type: ignore[union-attr]
    y = args["y"].data  # type: ignore[union-attr]
    r0 = unit_start * ROWS_PER_UNIT
    r1 = min(unit_end * ROWS_PER_UNIT, matrix.rows)
    if r0 >= r1:
        return
    accum = np.zeros(r1 - r0, dtype=np.float32)
    max_nnz = int(matrix.row_nnz[r0]) if r0 < len(matrix.row_nnz) else 0
    for j in range(max_nnz):
        rows_in_diag = int(matrix.diag_rows[j])
        if rows_in_diag <= r0:
            break
        hi = min(rows_in_diag, r1)
        lo_off = int(matrix.diag_ptr[j])
        seg = slice(lo_off + r0, lo_off + hi)
        accum[: hi - r0] += (data[seg] * x[col[seg]]).astype(np.float32)
    y[matrix.perm[r0:r1]] = accum


def _diag_trips(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Mean diagonals (nonzeros) per row of each unit's rows."""
    matrix: JdsMatrix = args["matrix"]  # type: ignore[assignment]
    means = per_unit_mean(matrix.row_nnz[: matrix.rows], unit_ids, ROWS_PER_UNIT)
    return np.maximum(means, 1.0)


def _nnz_footprint(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Bytes of data/col a unit touches."""
    matrix: JdsMatrix = args["matrix"]  # type: ignore[assignment]
    return 4.0 * ROWS_PER_UNIT * _diag_trips(args, unit_ids)


def base_variant(device_kind: str) -> KernelVariant:
    """Parboil's base JDS kernel: one work-item per (sorted) row.

    The canonical order is (jd, wi_r): walk diagonals outermost, rows
    innermost — the layout's intended streaming order, coalesced on GPU
    and unit-stride on CPU.
    """
    loops = (
        Loop(
            "jd",
            LoopBound(evaluator=_diag_trips, description="jagged diagonals"),
        ),
        Loop("wi_r", LoopBound(static_trips=ROWS_PER_UNIT), is_work_item_loop=True),
    )
    stream = (
        AccessPattern.COALESCED
        if device_kind == "gpu"
        else AccessPattern.UNIT_STRIDE
    )
    accesses = (
        MemoryAccess(
            "data",
            False,
            stream,
            4.0,
            loop="wi_r",
            scope=("jd", "wi_r"),
            strides_by_loop=(("jd", GATHER_STRIDE), ("wi_r", 4)),
            footprint_hint=_nnz_footprint,
        ),
        MemoryAccess(
            "col",
            False,
            stream,
            4.0,
            loop="wi_r",
            scope=("jd", "wi_r"),
            strides_by_loop=(("jd", GATHER_STRIDE), ("wi_r", 4)),
            footprint_hint=_nnz_footprint,
        ),
        MemoryAccess(
            "x",
            False,
            AccessPattern.GATHER,
            4.0,
            loop="wi_r",
            scope=("jd", "wi_r"),
            strides_by_loop=(("jd", GATHER_STRIDE), ("wi_r", GATHER_STRIDE)),
            working_set_hint="x",
        ),
        MemoryAccess(
            "y",
            True,
            stream,
            4.0,
            loop="wi_r",
            scope=("wi_r",),
            strides_by_loop=(("jd", 0), ("wi_r", 4)),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=2.0,
        # Rows drop out of long diagonals: divergence among work-items.
        divergence=0.3,
        work_group_threads=ROWS_PER_UNIT,
        notes=("base JDS spmv (one work-item per sorted row)",),
    )
    return KernelVariant(
        name="base",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=ROWS_PER_UNIT,
        description="diagonal-major JDS walk",
    )


_MATRIX_CACHE: Dict[int, JdsMatrix] = {}


def get_matrix(size: int, config: ReproConfig = DEFAULT_CONFIG) -> JdsMatrix:
    """Random 1% CSR converted to JDS, cached per size."""
    if size not in _MATRIX_CACHE:
        _MATRIX_CACHE[size] = csr_to_jds(random_csr(size, size, 0.01, config))
    return _MATRIX_CACHE[size]


def make_args_factory(
    matrix: JdsMatrix, config: ReproConfig = DEFAULT_CONFIG
) -> Callable[[], Dict[str, object]]:
    """Argument factory binding a JDS matrix and a fresh output vector."""
    rng = config.rng("spmv_jds_x", matrix.label)
    x_data = rng.standard_normal(matrix.shape[1]).astype(np.float32)

    def make_args() -> Dict[str, object]:
        return {
            "matrix": matrix,
            "data": Buffer("data", matrix.data, writable=False),
            "col": Buffer("col", matrix.indices, writable=False),
            "x": Buffer("x", x_data, writable=False),
            "y": Buffer("y", np.zeros(matrix.rows, dtype=np.float32)),
        }

    return make_args


def make_checker(matrix: JdsMatrix, config: ReproConfig = DEFAULT_CONFIG):
    """Output validator against the JDS reference multiply."""
    rng = config.rng("spmv_jds_x", matrix.label)
    x_data = rng.standard_normal(matrix.shape[1]).astype(np.float32)
    expected = matrix.multiply(x_data)

    def check(args: Mapping[str, object]) -> bool:
        y = args["y"].data  # type: ignore[union-attr]
        return bool(np.allclose(y, expected, rtol=1e-4, atol=1e-4))

    return check


def workload_units(matrix: JdsMatrix) -> int:
    """Row blocks of one launch."""
    return (matrix.rows + ROWS_PER_UNIT - 1) // ROWS_PER_UNIT


def vectorization_case(
    size: int = DEFAULT_SIZE, config: ReproConfig = DEFAULT_CONFIG
) -> BenchmarkCase:
    """Fig 1: scalar / 4-way / 8-way on the CPU (divergent kernel)."""
    matrix = get_matrix(size, config)
    base = base_variant("cpu")
    variants = tuple(vectorize(base, width) for width in (1, 4, 8))
    pool = VariantPool(
        spec=KernelSpec(signature=jds_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="spmv-jds/cpu/vectorization",
        pool=pool,
        make_args=make_args_factory(matrix, config),
        workload_units=workload_units(matrix),
        check=make_checker(matrix, config),
        notes="Fig 1: Intel vectorizer width study",
    )


def schedule_family(size: int = DEFAULT_SIZE, config: ReproConfig = DEFAULT_CONFIG):
    """The 2 schedules (diagonal-major vs row-major) for LC."""
    base = base_variant("cpu")
    return [
        (
            ("jd", "wi_r"),
            auto_vectorize(reorder_loops(base, ("jd", "wi_r"), label="BFO")),
        ),
        (
            ("wi_r", "jd"),
            auto_vectorize(reorder_loops(base, ("wi_r", "jd"), label="DFO")),
        ),
    ]


def schedule_case(
    size: int = DEFAULT_SIZE,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 8: the 2 schedules on the CPU."""
    matrix = get_matrix(size, config)
    variants = tuple(variant for _, variant in schedule_family(size, config))
    pool = VariantPool(
        spec=KernelSpec(signature=jds_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="spmv-jds/cpu/schedules",
        pool=pool,
        make_args=make_args_factory(matrix, config),
        workload_units=workload_units(matrix),
        iterations=iterations,
        check=make_checker(matrix, config),
        notes="Case Study I: LC scheduling, CPU",
    )


def gpu_mixed_variants() -> List[KernelVariant]:
    """The four Parboil GPU versions: {u+p} × {texture} off the base."""
    base = base_variant("gpu")
    with_up = add_prefetch(unroll(base, 2, label="unroll2"), label="prefetch")
    with_tex = place(base, {"x": MemorySpace.TEXTURE}, label="texture")
    with_all = place(
        add_prefetch(unroll(base, 2, label="unroll2"), label="prefetch"),
        {"x": MemorySpace.TEXTURE},
        label="texture",
    )
    return [base, with_up, with_tex, with_all]


def cpu_mixed_variants() -> List[KernelVariant]:
    """The two CPU versions: base, and the GPU-optimized port.

    The port keeps the GPU version's warp-striped layout walk, which
    lowers to a strided traversal on the CPU, plus its scratchpad staging
    — the combination behind Fig 10a's large spmv-jds slowdown.
    """
    base = auto_vectorize(base_variant("cpu"))
    port = base_variant("cpu")
    accesses = []
    for access in port.ir.accesses:
        if access.buffer in ("data", "col"):
            accesses.append(
                dataclasses.replace(
                    access,
                    pattern=AccessPattern.STRIDED,
                    stride_bytes=128,
                )
            )
        else:
            accesses.append(access)
    port_ir = port.ir.with_(
        accesses=tuple(accesses),
        scratchpad_bytes=4 * ROWS_PER_UNIT * 4,
        uses_barrier=True,
    ).with_note("GPU-optimized port (warp-striped walk + scratchpad)")
    port = dataclasses.replace(port, name="gpu-port", ir=port_ir)
    return [base, port]


def mixed_case(
    device_kind: str,
    size: int = DEFAULT_SIZE,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 10: Parboil's version pools (2 on CPU, 4 on GPU)."""
    matrix = get_matrix(size, config)
    if device_kind == "gpu":
        variants = tuple(gpu_mixed_variants())
    else:
        variants = tuple(cpu_mixed_variants())
    pool = VariantPool(
        spec=KernelSpec(signature=jds_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name=f"spmv-jds/{device_kind}/mixed",
        pool=pool,
        make_args=make_args_factory(matrix, config),
        workload_units=workload_units(matrix),
        iterations=iterations,
        check=make_checker(matrix, config),
        notes="Case Study III: mixed compile-time optimizations",
    )
