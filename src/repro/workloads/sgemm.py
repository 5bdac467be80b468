"""sgemm: dense single-precision matrix multiply (Parboil).

Appears in three experiments:

* **Fig 1** — the Intel vectorizer's width choice: the divergence-free
  kernel gets 4-way vectors from the heuristic while 8-way is ~2× faster.
* **Fig 8** — locality-centric scheduling: 6 loop orders (3! permutations
  of two work-item loops and the reduction loop); the worst order strides
  through B with a full row between touches, the paper's pathological
  117× case.
* **Fig 10** — mixed optimizations: Parboil ships a base version and a
  scratchpad-tiled + 16×-coarsened version; tiling wins on GPU and loses
  on CPU (staging copies through a uniform memory space).

The **workload unit** is one 16×16 tile of C.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import numpy as np

from ..compiler.heuristics.intel_vec import intel_vector_width
from ..compiler.transforms.schedule import enumerate_schedules, reorder_loops
from ..compiler.transforms.tile import tile_scratchpad
from ..compiler.transforms.vectorize import auto_vectorize, vectorize
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

#: C-tile edge (work-group shape is TILE×TILE work-items).
TILE = 16
#: Default matrix dimension (kept moderate for simulation speed; the
#: paper's regime — B too big for L2, slab reuse in L1 — is preserved).
DEFAULT_N = 384


def sgemm_signature() -> KernelSignature:
    """The kernel contract every sgemm variant implements."""
    return KernelSignature(
        "sgemm",
        (
            ArgSpec("n", is_buffer=False),
            ArgSpec("a"),
            ArgSpec("b"),
            ArgSpec("c", is_output=True),
        ),
    )


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """C tiles [unit_start, unit_end) = A · B (row-major tile order)."""
    n: int = args["n"]  # type: ignore[assignment]
    a = args["a"].data  # type: ignore[union-attr]
    b = args["b"].data  # type: ignore[union-attr]
    c = args["c"].data  # type: ignore[union-attr]
    tiles_per_row = n // TILE
    for unit in range(unit_start, unit_end):
        ti, tj = divmod(unit, tiles_per_row)
        rows = slice(ti * TILE, (ti + 1) * TILE)
        cols = slice(tj * TILE, (tj + 1) * TILE)
        c[rows, cols] = a[rows, :] @ b[:, cols]


def base_variant(n: int, device_kind: str) -> KernelVariant:
    """Parboil's base sgemm: one work-item per C element, k-loop inside.

    The canonical nest is (wi_i, wi_j, k) — the depth-first order a naive
    lowering produces.  Stride metadata lets the schedule transform derive
    all six orders for the LC case study.
    """
    slab_bytes = float(TILE * n * 4)

    loops = (
        Loop("wi_i", LoopBound(static_trips=TILE), is_work_item_loop=True),
        Loop("wi_j", LoopBound(static_trips=TILE), is_work_item_loop=True),
        Loop("k", LoopBound(static_trips=n)),
    )
    if device_kind == "cpu":
        a_pattern, b_pattern = AccessPattern.UNIT_STRIDE, AccessPattern.STRIDED
        b_stride = 4 * n
    else:
        # GPU base kernel: A[i,k] broadcasts across the j-threads of a
        # warp; B[k,j] is coalesced across them.
        a_pattern, b_pattern = AccessPattern.BROADCAST, AccessPattern.COALESCED
        b_stride = 0
    accesses = (
        MemoryAccess(
            "a",
            False,
            a_pattern,
            4.0,
            loop="k",
            scope=("wi_i", "wi_j", "k"),
            strides_by_loop=(("wi_i", 4 * n), ("wi_j", 0), ("k", 4)),
            footprint_bytes=slab_bytes,
        ),
        MemoryAccess(
            "b",
            False,
            b_pattern,
            4.0,
            loop="k",
            scope=("wi_i", "wi_j", "k"),
            stride_bytes=b_stride,
            strides_by_loop=(("wi_i", 0), ("wi_j", 4), ("k", 4 * n)),
            footprint_bytes=slab_bytes,
        ),
        MemoryAccess(
            "c",
            True,
            AccessPattern.COALESCED
            if device_kind == "gpu"
            else AccessPattern.UNIT_STRIDE,
            4.0,
            loop="wi_j",
            scope=("wi_i", "wi_j"),
            strides_by_loop=(("wi_i", 4 * n), ("wi_j", 4), ("k", 0)),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=2.0,
        divergence=0.0,
        work_group_threads=TILE * TILE,
        notes=("base sgemm (one work-item per C element)",),
    )
    return KernelVariant(
        name="base",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=TILE * TILE,
        description="naive tile kernel, k-loop per work-item",
    )


def tiled_variant(n: int, device_kind: str) -> KernelVariant:
    """Parboil's optimized sgemm: scratchpad tiling + 16× coarsening.

    A work-group stages A and B tiles through scratchpad and computes a
    64×64 block of C (16 units), cutting global traffic 16× — a win where
    scratchpad is real silicon, a copy-cost loss where it lowers to the
    cache hierarchy (Fig 10a vs 10b).  ``scratchpad_bytes`` carries the
    *staged volume* per work-group.
    """
    base = base_variant(n, device_kind)
    staged = 2 * 4 * TILE * 4 * n  # A-slab + B-slab for a 64-wide block
    return tile_scratchpad(
        base,
        scratchpad_bytes=staged,
        traffic_scale={"a": 1.0 / TILE, "b": 1.0 / TILE},
        wa_factor_scale=16,
        label="tiled16x,coarsened",
    )


def make_args_factory(
    n: int, config: ReproConfig = DEFAULT_CONFIG
) -> Callable[[], Dict[str, object]]:
    """Argument factory with fixed random inputs and a fresh output."""
    rng = config.rng("sgemm", n)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)

    def make_args() -> Dict[str, object]:
        return {
            "n": n,
            "a": Buffer("a", a, writable=False),
            "b": Buffer("b", b, writable=False),
            "c": Buffer("c", np.zeros((n, n), dtype=np.float32)),
        }

    return make_args


def make_checker(n: int, config: ReproConfig = DEFAULT_CONFIG):
    """Output validator against numpy matmul."""
    rng = config.rng("sgemm", n)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    expected = a @ b

    def check(args: Mapping[str, object]) -> bool:
        c = args["c"].data  # type: ignore[union-attr]
        return bool(np.allclose(c, expected, rtol=1e-3, atol=1e-3))

    return check


def workload_units(n: int) -> int:
    """C tiles of one launch."""
    return (n // TILE) ** 2


def vectorization_case(
    n: int = DEFAULT_N, config: ReproConfig = DEFAULT_CONFIG
) -> BenchmarkCase:
    """Fig 1: scalar / 4-way / 8-way vector code on the CPU.

    Variants share the vectorizer-friendly loop order (work-items
    innermost so lanes map to adjacent C columns); only the width
    differs.  :func:`heuristic_width` tells the experiment which bar the
    Intel heuristic picks.
    """
    base = base_variant(n, "cpu")
    friendly = reorder_loops(base, ("k", "wi_i", "wi_j"), label="vecorder")
    variants = tuple(
        vectorize(friendly, width) for width in (1, 4, 8)
    )
    pool = VariantPool(
        spec=KernelSpec(signature=sgemm_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="sgemm/cpu/vectorization",
        pool=pool,
        make_args=make_args_factory(n, config),
        workload_units=workload_units(n),
        check=make_checker(n, config),
        notes="Fig 1: Intel vectorizer width study",
    )


def heuristic_width(n: int = DEFAULT_N) -> int:
    """The width the Intel heuristic picks for sgemm (4: divergence-free)."""
    return intel_vector_width(base_variant(n, "cpu").ir)


def schedule_case(
    n: int = DEFAULT_N, config: ReproConfig = DEFAULT_CONFIG
) -> BenchmarkCase:
    """Fig 8: all 6 loop orders of the base kernel on the CPU."""
    base = base_variant(n, "cpu")
    variants = tuple(
        auto_vectorize(variant) for _, variant in enumerate_schedules(base)
    )
    pool = VariantPool(
        spec=KernelSpec(signature=sgemm_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="sgemm/cpu/schedules",
        pool=pool,
        make_args=make_args_factory(n, config),
        workload_units=workload_units(n),
        check=make_checker(n, config),
        notes="Case Study I: LC scheduling, CPU",
    )


def schedule_family(n: int = DEFAULT_N):
    """(order, variant) pairs for the LC heuristic baseline.

    Matches the pool: each scheduled variant passes through icc's
    auto-vectorizer model.
    """
    return [
        (order, auto_vectorize(variant))
        for order, variant in enumerate_schedules(base_variant(n, "cpu"))
    ]


def mixed_case(
    device_kind: str,
    n: int = DEFAULT_N,
    config: ReproConfig = DEFAULT_CONFIG,
) -> BenchmarkCase:
    """Fig 10: Parboil's two versions (base, tiled+coarsened).

    On the CPU, the base version's simple structure lets the compiler
    reschedule and fully vectorize it ("the greatest flexibility for the
    compiler in planning how to serialize execution of work-items",
    paper §4.3), while the tiled version's barriers pin its structure:
    the caches already capture the reuse the tile stages, so it keeps
    only the staging copies and a narrower profitable vector width.
    """
    if device_kind == "cpu":
        base = auto_vectorize(
            reorder_loops(
                base_variant(n, "cpu"), ("wi_i", "k", "wi_j"), label="lc"
            )
        )
        tiled = vectorize(
            tile_scratchpad(
                reorder_loops(
                    base_variant(n, "cpu"), ("wi_i", "k", "wi_j"), label="lc"
                ),
                scratchpad_bytes=2 * 4 * TILE * 4 * n,
                traffic_scale={"a": 1.0, "b": 1.0},
                wa_factor_scale=16,
                label="tiled16x,coarsened",
            ),
            4,
            label="4-way",
        )
        variants = (base, tiled)
    else:
        variants = (
            base_variant(n, device_kind),
            tiled_variant(n, device_kind),
        )
    pool = VariantPool(
        spec=KernelSpec(signature=sgemm_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name=f"sgemm/{device_kind}/mixed",
        pool=pool,
        make_args=make_args_factory(n, config),
        workload_units=workload_units(n),
        check=make_checker(n, config),
        notes="Case Study III: mixed compile-time optimizations",
    )
