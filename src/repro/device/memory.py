"""Cache hierarchy and access-pattern cost model.

This module supplies the *mechanistic* part of the simulator: the cost of a
memory access site is derived from its :class:`~repro.kernel.ir.AccessPattern`,
its useful byte volume, the buffer's placement and working-set size, and the
device's cache hierarchy — not from per-benchmark lookup tables.  Concrete
devices (:mod:`~repro.device.cpu`, :mod:`~repro.device.gpu`) subclass
:class:`MemoryModel` to encode their architecture's rules (SIMD
packing/masking on CPU, warp coalescing and texture paths on GPU).

All byte volumes and working sets are **per workload unit** and evaluated
as numpy arrays over units, so data-dependent workloads (spmv) are priced
vectorized and *locally*: a unit whose slice of the data fits in L1 is
cheap even if the whole buffer is DRAM-sized — the mechanism that makes
the diagonal-matrix experiments input-sensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DeviceError
from ..kernel.buffers import Buffer, MemorySpace
from ..kernel.ir import AccessPattern, KernelIR, MemoryAccess

#: Element size assumed for stride amplification.  All reproduction
#: workloads use float32 / int32 data.
ELEM_BYTES = 4.0

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class CacheLevel:
    """One level of the memory hierarchy.

    ``bytes_per_cycle`` is the streaming bandwidth a single compute unit
    sees when its working set resides at this level; ``latency_cycles`` is
    the unloaded access latency.
    """

    name: str
    size_bytes: float
    line_bytes: int
    latency_cycles: float
    bytes_per_cycle: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise DeviceError(f"cache level {self.name!r} has non-positive size")
        if self.latency_cycles < 0 or self.bytes_per_cycle <= 0:
            raise DeviceError(f"cache level {self.name!r} has invalid timing")


@dataclass(frozen=True)
class AccessCost:
    """Cost of one access site, split into overlappable and exposed parts.

    ``bandwidth_cycles`` overlaps with compute (roofline); ``latency_cycles``
    is exposed serialization (pointer-chasing gathers, atomics).  Both are
    arrays over workload units, except that a site exposing no latency
    (a prefetched stream) reports a plain ``0.0``.
    """

    bandwidth_cycles: np.ndarray
    latency_cycles: ArrayLike


class MemoryModel:
    """Base memory model: a cache hierarchy terminated by DRAM.

    Subclasses implement :meth:`access_cost` with architecture-specific
    rules; this base provides the shared machinery — level selection by
    working set, stride amplification, and gather hit-rate estimation —
    all vectorized over per-unit working sets.
    """

    def __init__(self, levels: Sequence[CacheLevel], dram: CacheLevel) -> None:
        if not levels:
            raise DeviceError("memory model needs at least one cache level")
        sizes = [level.size_bytes for level in levels]
        if sizes != sorted(sizes):
            raise DeviceError(
                "cache levels must be ordered smallest (closest) first; got "
                f"sizes {sizes}"
            )
        self.levels: Tuple[CacheLevel, ...] = tuple(levels)
        self.dram = dram
        #: Level tables.  ``_bounds`` leads with a zero bound (nothing
        #: hits before the first level), so ``_bounds[i + 1]`` bounds level
        #: ``i``; ``_bandwidths`` ends with DRAM's, for working sets no
        #: level holds.
        self._bounds = np.array([0.0] + sizes, dtype=float)
        self._bandwidths = np.array(
            [level.bytes_per_cycle for level in self.levels]
            + [dram.bytes_per_cycle]
        )
        self._latencies = np.array(
            [level.latency_cycles for level in self.levels]
        )

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    @property
    def line_bytes(self) -> int:
        """Cache line size (taken from the innermost level)."""
        return self.levels[0].line_bytes

    def stream_bandwidth(self, working_set_bytes: ArrayLike) -> np.ndarray:
        """Streaming bandwidth (bytes/cycle) for per-unit working sets.

        A stream is served by the closest level that holds its working
        set; larger sets (and NaN) fall through to DRAM.  One binary
        search into the level table: ``side="left"`` finds the first
        level with ``working_set <= size``.
        """
        return self._bandwidths[
            np.searchsorted(self._bounds[1:], working_set_bytes, side="left")
        ]

    def stride_amplification(self, stride_bytes: int) -> float:
        """Traffic amplification of a constant-stride walk.

        Each useful element drags ``min(stride, line)`` bytes through the
        hierarchy; unit stride has amplification 1.
        """
        if stride_bytes <= 0:
            raise DeviceError(f"stride must be positive, got {stride_bytes}")
        return max(
            1.0, min(float(stride_bytes), float(self.line_bytes)) / ELEM_BYTES
        )

    def gather_latency(self, working_set_bytes: ArrayLike) -> np.ndarray:
        """Average per-element latency of data-dependent gathers.

        Estimated by the hit pyramid: a random access within the working
        set hits each level with probability ``level_size / working_set``
        (clamped); the residual miss fraction pays DRAM latency.  Levels
        are ordered by size, so the hit fractions grow level by level and
        each level serves exactly the increment over the one before it.
        All levels are evaluated as one ``(levels, *units)`` array.
        """
        ws = np.maximum(np.asarray(working_set_bytes, dtype=float), 1.0)
        column = (-1,) + (1,) * ws.ndim
        hits = np.minimum(1.0, self._bounds.reshape(column) / ws)
        fresh = hits[1:] - hits[:-1]
        latency = np.add.reduce(fresh * self._latencies.reshape(column), axis=0)
        return latency + (1.0 - hits[-1]) * self.dram.latency_cycles

    def working_set(
        self,
        access: MemoryAccess,
        args,
        unit_ids: np.ndarray,
        buffer: Optional[Buffer],
        hint_buffer: Optional[Buffer],
    ) -> np.ndarray:
        """Per-unit working set relevant to an access's locality.

        Precedence: the access's ``footprint_bytes`` or ``footprint_hint``
        (true per-unit locality), then the resolved ``working_set_hint``
        buffer's size, then the accessed buffer's own footprint, then
        "DRAM-sized".
        """
        if access.footprint_bytes is not None:
            return np.full(unit_ids.shape, float(access.footprint_bytes))
        if access.footprint_hint is not None:
            ws = np.asarray(
                access.footprint_hint(args, unit_ids), dtype=float
            )
            if ws.shape != unit_ids.shape:
                raise DeviceError(
                    f"footprint_hint for {access.buffer!r} returned shape "
                    f"{ws.shape}, expected {unit_ids.shape}"
                )
            return ws
        target = hint_buffer if hint_buffer is not None else buffer
        if target is not None:
            return np.full(unit_ids.shape, float(target.nbytes))
        return np.full(unit_ids.shape, math.inf)

    def gather_latency_mixed(
        self,
        useful_bytes: np.ndarray,
        working_set: np.ndarray,
        buffer_bytes: float,
        fresh_discount: float = 0.5,
    ) -> np.ndarray:
        """Per-element gather latency, distinguishing fresh from resident.

        Gathered bytes are *fresh* (first touch, missing all the way to
        wherever the buffer lives) only when the unit's traffic matches
        its footprint.  Both a footprint much larger than the traffic (a
        shared resident structure, e.g. spmv's dense vector) and traffic
        much larger than the footprint (intra-unit re-touches, e.g.
        cutcp's bins) are served at the footprint's cache level.  Fresh
        misses get a discount for the partial prefetchability of
        jagged-but-forward traversals.
        """
        ws = np.maximum(np.asarray(working_set, dtype=float), 1.0)
        useful = np.maximum(np.asarray(useful_bytes, dtype=float), 1.0)
        # The source level rides along as one more element of the same
        # evaluation.
        latency = self.gather_latency(np.append(ws, min(buffer_bytes, 1e18)))
        resident, source = latency[:-1].reshape(ws.shape), latency[-1]
        fresh_frac = np.minimum(useful, ws) / np.maximum(useful, ws)
        fresh = np.maximum(source * fresh_discount, resident)
        return fresh_frac * fresh + (1.0 - fresh_frac) * resident

    def stream_cycles(
        self,
        useful_bytes: np.ndarray,
        working_set: np.ndarray,
        buffer_bytes: float,
        amplification: float = 1.0,
    ) -> np.ndarray:
        """Bandwidth cycles of a streaming access, reuse-aware.

        A unit's *fresh* bytes (up to its working-set footprint) stream
        from wherever the whole buffer resides — typically DRAM for large
        inputs; bytes beyond the footprint are re-touches served at the
        footprint's cache level.  This distinction is what makes a small
        per-unit footprint mean "cheap" only when the unit actually
        *reuses* it (sgemm tiles) and not when data is streamed once
        (spmv's val/col arrays).
        """
        useful = np.asarray(useful_bytes, dtype=float)
        footprint = np.asarray(working_set, dtype=float)
        if amplification != 1.0:
            useful = useful * amplification
            footprint = footprint * amplification
        fresh = np.minimum(useful, footprint)
        reused = useful - fresh
        source_bw = self.stream_bandwidth(
            min(buffer_bytes * amplification, 1e18)
        )
        cache_bw = self.stream_bandwidth(footprint)
        return fresh / source_bw + reused / cache_bw

    # ------------------------------------------------------------------
    # Architecture-specific entry point
    # ------------------------------------------------------------------

    def access_cost(
        self,
        access: MemoryAccess,
        useful_bytes: np.ndarray,
        working_set: np.ndarray,
        buffer_bytes: float,
        ir: KernelIR,
        space: MemorySpace,
        dynamic_stride=None,
    ) -> AccessCost:
        """Cost of one access site over an array of workload units.

        Parameters
        ----------
        access:
            The IR access descriptor.
        useful_bytes:
            Useful bytes moved per unit (volume × trip counts).
        working_set:
            Per-unit working set in bytes (see :meth:`working_set`).
        buffer_bytes:
            Total size of the accessed buffer (source level for fresh
            streams); ``inf`` when unknown.
        ir:
            The enclosing variant IR (for vector width / divergence /
            prefetch rules).
        space:
            Memory space serving the access (after placement).
        dynamic_stride:
            Per-unit element stride in bytes when the access declares a
            ``stride_evaluator`` (data-dependent coalescing quality).
        """
        raise NotImplementedError
