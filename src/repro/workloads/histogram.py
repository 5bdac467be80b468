"""histogram: binning with overlapping outputs (swap-mode showcase).

Not one of the paper's measured benchmarks, but the canonical member of
the class §2.3 reserves for swap-based partial-productive profiling:
every work-group writes the *same* 256-bin output through global atomics,
so side effect analysis restricts profiling to swap mode and the
asynchronous flow is unavailable (Table 1).

Two classic variants compete, and the winner is input dependent:

* **atomic** — one global atomic add per element; cheap bookkeeping, but
  skewed inputs serialize on hot bins.
* **privatized** — per-work-group private histogram merged at the end;
  fixed merge overhead, contention-free (the privatization optimization
  §2.3 lists under swap-based profiling).

The **workload unit** is a block of 1024 input elements.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import numpy as np

from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer
from ..kernel.ir import (
    AccessPattern,
    AtomicKind,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase, per_unit_reduce

#: Elements per workload unit and histogram bins.
ELEMS_PER_UNIT = 1024
BINS = 256
#: Default input size.
DEFAULT_ELEMS = 1 << 20


def histogram_signature() -> KernelSignature:
    """The kernel contract every histogram variant implements."""
    return KernelSignature(
        "histogram",
        (
            ArgSpec("data"),
            ArgSpec("hist", is_output=True),
        ),
    )


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """Accumulate the unit range's elements into the shared histogram."""
    data = args["data"].data  # type: ignore[union-attr]
    hist = args["hist"].data  # type: ignore[union-attr]
    e0 = unit_start * ELEMS_PER_UNIT
    e1 = min(unit_end * ELEMS_PER_UNIT, len(data))
    if e0 >= e1:
        return
    hist += np.bincount(data[e0:e1], minlength=BINS).astype(hist.dtype)


def _contention(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Serialization factor of atomic updates per unit.

    Proportional to the collision probability of the unit's elements —
    the maximum bin share within the block.  Uniform data ≈ 1/BINS hot
    share; skewed data concentrates updates and serializes them.
    """
    data = args["data"].data  # type: ignore[union-attr]
    hottest, lengths = per_unit_reduce(
        data, unit_ids, ELEMS_PER_UNIT, _hottest_bin_counts
    )
    share = np.divide(
        31.0 * hottest, lengths, out=np.zeros_like(hottest), where=lengths > 0
    )
    return 1.0 + share


#: Units per ``np.bincount`` call: bounds the offset-key temporary.
_CONTENTION_CHUNK = 64


def _hottest_bin_counts(block: np.ndarray) -> np.ndarray:
    """Largest bin count per row, binning rows together at offsets
    ``r * BINS``; out-of-range values would alias into a neighbour's
    counts, so they raise like the executor's bincount does."""
    if block.size and (block.min() < 0 or block.max() >= BINS):
        raise ValueError(f"histogram data outside [0, {BINS})")
    hottest = np.empty(len(block))
    for r0 in range(0, len(block), _CONTENTION_CHUNK):
        chunk = block[r0 : r0 + _CONTENTION_CHUNK]
        rows = len(chunk)
        keys = chunk + (np.arange(rows, dtype=np.int64) * BINS)[:, None]
        counts = np.bincount(keys.ravel(), minlength=rows * BINS)
        hottest[r0 : r0 + rows] = counts.reshape(rows, BINS).max(axis=1)
    return hottest


def atomic_variant() -> KernelVariant:
    """One global atomic add per element."""
    loops = (
        Loop("wi_e", LoopBound(static_trips=ELEMS_PER_UNIT), is_work_item_loop=True),
        Loop(
            "contention",
            LoopBound(evaluator=_contention, description="hot-bin serialization"),
        ),
    )
    accesses = (
        MemoryAccess(
            "data",
            False,
            AccessPattern.COALESCED,
            4.0 * ELEMS_PER_UNIT / ELEMS_PER_UNIT,
            loop="wi_e",
            scope=("wi_e",),
        ),
        MemoryAccess(
            "hist",
            True,
            AccessPattern.GATHER,
            4.0,
            loop="contention",
            scope=("wi_e", "contention"),
            atomic=AtomicKind.GLOBAL,
            working_set_hint="hist",
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=1.0,
        divergence=0.1,
        output_ranges_overlap=True,
        work_group_threads=256,
        notes=("global-atomic histogram",),
    )
    return KernelVariant(
        name="atomic",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=256,
        description="atomic add per element",
    )


def privatized_variant() -> KernelVariant:
    """Per-work-group private histogram with a final merge."""
    loops = (
        Loop("wi_e", LoopBound(static_trips=ELEMS_PER_UNIT), is_work_item_loop=True),
        Loop("merge", LoopBound(static_trips=BINS)),
    )
    accesses = (
        MemoryAccess(
            "data",
            False,
            AccessPattern.COALESCED,
            4.0,
            loop="wi_e",
            scope=("wi_e",),
        ),
        # Private updates land in scratchpad (local atomics are cheap);
        # the merge writes BINS global atomics per work-group.
        MemoryAccess(
            "hist",
            True,
            AccessPattern.COALESCED,
            4.0,
            loop="merge",
            scope=("merge",),
            atomic=AtomicKind.GLOBAL,
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=1.5,
        divergence=0.1,
        scratchpad_bytes=BINS * 4,
        uses_barrier=True,
        output_ranges_overlap=True,
        work_group_threads=256,
        notes=("privatized histogram",),
    )
    return KernelVariant(
        name="privatized",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=256,
        description="scratchpad-private histogram + merge",
    )


def make_args_factory(
    distribution: str = "uniform",
    elems: int = DEFAULT_ELEMS,
    config: ReproConfig = DEFAULT_CONFIG,
) -> Callable[[], Dict[str, object]]:
    """Argument factory; ``distribution`` is ``"uniform"`` or ``"skewed"``."""
    rng = config.rng("histogram", distribution, elems)
    if distribution == "uniform":
        data = rng.integers(0, BINS, size=elems).astype(np.int32)
    elif distribution == "skewed":
        # 80% of the mass in 4 hot bins.
        hot = rng.integers(0, 4, size=elems).astype(np.int32)
        cold = rng.integers(0, BINS, size=elems).astype(np.int32)
        data = np.where(rng.uniform(size=elems) < 0.8, hot, cold)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")

    def make_args() -> Dict[str, object]:
        return {
            "data": Buffer("data", data, writable=False),
            "hist": Buffer("hist", np.zeros(BINS, dtype=np.int64)),
        }

    return make_args


def make_checker(
    distribution: str = "uniform",
    elems: int = DEFAULT_ELEMS,
    config: ReproConfig = DEFAULT_CONFIG,
):
    """Output validator against one-shot bincount."""
    data = make_args_factory(distribution, elems, config)()["data"].data

    def check(args: Mapping[str, object]) -> bool:
        hist = args["hist"].data  # type: ignore[union-attr]
        return bool(
            np.array_equal(hist, np.bincount(data, minlength=BINS))
        )

    return check


def swap_case(
    distribution: str = "uniform",
    elems: int = DEFAULT_ELEMS,
    config: ReproConfig = DEFAULT_CONFIG,
) -> BenchmarkCase:
    """Swap-mode selection between atomic and privatized binning."""
    pool = VariantPool(
        spec=KernelSpec(signature=histogram_signature()),
        variants=(atomic_variant(), privatized_variant()),
    )
    return BenchmarkCase(
        name=f"histogram/{distribution}",
        pool=pool,
        make_args=make_args_factory(distribution, elems, config),
        workload_units=(elems + ELEMS_PER_UNIT - 1) // ELEMS_PER_UNIT,
        check=make_checker(distribution, elems, config),
        notes="swap-based profiling showcase (atomics, overlapping output)",
    )
