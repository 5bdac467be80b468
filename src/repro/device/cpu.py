"""Simulated multicore CPU (modeled after the paper's Intel i7-3820).

Architecture rules encoded here, with their paper correlates:

* **SIMD masking / packing** — under control divergence, wider vectors pay
  growing mask, pack and unpack overhead on both compute and memory ops
  (paper §1, Fig 1: the Intel vectorizer's width choice can lose 2.13×).
* **Work-item scheduling sensitivity** — access patterns produced by the
  chosen work-item/kernel-loop schedule decide whether streams hit the
  prefetched unit-stride path or pay strided line amplification (Fig 8's
  up-to-117× spread across LC schedules).
* **Uniform memory space** — scratchpad is lowered to ordinary cached
  memory, so tiling buys no latency and costs copies (Fig 10a's 1.23×
  average tiling slowdown on CPU).
* **Task dispatch overhead** — every work-group is a TBB task; tiny tasks
  expose the dispatch spin cost (§5.2's 88% overhead pathology).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import MemorySpace
from ..kernel.ir import AccessPattern, KernelIR, MemoryAccess
from .base import Device, DeviceSpec
from .memory import ELEM_BYTES, AccessCost, CacheLevel, MemoryModel


@dataclass(frozen=True)
class CpuSpec(DeviceSpec):
    """CPU-specific tuning knobs on top of the common spec.

    ``simd_mask_overhead`` scales the per-lane divergence penalty on
    compute; ``simd_pack_overhead`` scales the penalty vectorization adds
    to irregular (gather/divergent) memory ops; ``gather_mlp`` is the
    memory-level parallelism the out-of-order core extracts from
    independent gathers.
    """

    simd_mask_overhead: float = 0.15
    simd_pack_overhead: float = 0.08
    gather_mlp: float = 6.0


class CpuMemoryModel(MemoryModel):
    """Cache-hierarchy cost rules for the CPU."""

    def __init__(self, spec: CpuSpec, levels, dram) -> None:
        super().__init__(levels, dram)
        self._spec = spec

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
        """Cycles one variant's access stream costs on this memory system."""
        useful_bytes = np.asarray(useful_bytes, dtype=float)
        pattern = access.pattern

        # Vectorization penalty on irregular memory ops: masked/packed
        # lanes cost extra scalar work proportional to width (paper Fig 1).
        width = ir.vector_width
        irregular = pattern is AccessPattern.GATHER or ir.divergence > 0
        if width > 1 and irregular:
            pack = 1.0 + self._spec.simd_pack_overhead * (width - 1) * (
                0.5 + ir.divergence
            )
        else:
            pack = 1.0

        if pattern in (AccessPattern.UNIT_STRIDE, AccessPattern.COALESCED):
            # Prefetched streaming: fresh bytes come from wherever the
            # buffer lives, re-touches from the footprint's level.  On
            # CPU, "coalesced across work-items" lowers to unit-stride
            # inner loops after work-item serialization/vectorization.
            cycles = self.stream_cycles(useful_bytes, working_set, buffer_bytes)
            return AccessCost(cycles * pack, 0.0)

        if pattern is AccessPattern.STRIDED:
            amp = self.stride_amplification(access.stride_bytes)
            cycles = self.stream_cycles(
                useful_bytes, working_set, buffer_bytes, amplification=amp
            )
            # A stride of a full line or more also defeats the adjacent
            # line prefetcher, exposing part of the access latency.
            if access.stride_bytes >= self.line_bytes:
                elems = useful_bytes / ELEM_BYTES
                latency = self.gather_latency(working_set * amp) / (
                    2.0 * self._spec.gather_mlp
                )
                exposed = elems * latency * pack
            else:
                exposed = 0.0
            return AccessCost(cycles * pack, exposed)

        if pattern is AccessPattern.GATHER:
            elems = useful_bytes / ELEM_BYTES
            latency = self.gather_latency_mixed(
                useful_bytes, working_set, buffer_bytes
            ) / self._spec.gather_mlp
            bandwidth = self.stream_bandwidth(working_set)
            return AccessCost(
                useful_bytes * pack / bandwidth, elems * latency * pack
            )

        if pattern is AccessPattern.BROADCAST:
            # Register/L1-resident after the first touch.
            l1 = self.levels[0]
            return AccessCost(
                useful_bytes / (4.0 * l1.bytes_per_cycle), 0.0
            )

        raise AssertionError(f"unhandled access pattern {pattern!r}")


class CpuDevice(Device):
    """Multicore CPU with SIMD datapaths and a three-level cache."""

    kind = "cpu"

    def __init__(
        self,
        spec: CpuSpec,
        memory: CpuMemoryModel,
        config: ReproConfig,
    ) -> None:
        super().__init__(spec, memory, config)
        self._cpu_spec = spec

    def compute_cycles(
        self, ir: KernelIR, flops: np.ndarray, work_group_size: int
    ) -> np.ndarray:
        """Arithmetic cycles per work group for one variant's flops."""
        flops = np.asarray(flops, dtype=float)
        width = min(ir.vector_width, self.spec.max_vector_width)
        throughput = self.spec.flops_per_cycle * width
        if width > 1 and ir.divergence > 0:
            # Divergent lanes execute both paths plus mask management;
            # overhead grows with datapath width (paper §1).
            penalty = 1.0 + ir.divergence * self._cpu_spec.simd_mask_overhead * width
        else:
            penalty = 1.0
        return flops * penalty / throughput

    def scratchpad_cycles_per_group(self, ir: KernelIR) -> float:
        """Staging + barrier cycles the scratchpad costs per work group."""
        if ir.scratchpad_bytes == 0:
            return 0.0
        # Scratchpad lowers to ordinary cached memory: the staging copies
        # are pure overhead (in + out through L1), and barriers serialize
        # the work-item loops (Fig 10a: tiling hurts on CPU).
        l1 = self.memory.levels[0]
        copy = 2.0 * ir.scratchpad_bytes / l1.bytes_per_cycle
        barrier = 200.0 if ir.uses_barrier else 0.0
        return copy + barrier

    def atomic_cycles_per_op(self) -> float:
        """Cycles one global atomic operation costs."""
        # Locked cacheline round-trip between cores.
        return 25.0


def make_cpu(config: ReproConfig = DEFAULT_CONFIG) -> CpuDevice:
    """Build the default CPU model (i7-3820-like: 4 cores, AVX, 10MB LLC)."""
    spec = CpuSpec(
        name="cpu-i7",
        compute_units=4,
        clock_ghz=3.6,
        flops_per_cycle=2.0,
        max_vector_width=8,
        workgroup_dispatch_overhead=900.0,
        kernel_launch_overhead=6000.0,
        host_query_latency=100.0,
        loop_overhead_cycles=1.0,
        loop_setup_cycles=10.0,
    )
    levels = (
        CacheLevel("L1", 32 * 1024, 64, 4.0, 48.0),
        CacheLevel("L2", 256 * 1024, 64, 12.0, 16.0),
        CacheLevel("L3", 10 * 1024 * 1024, 64, 36.0, 8.0),
    )
    dram = CacheLevel("DRAM", float("inf"), 64, 200.0, 4.0)
    memory = CpuMemoryModel(spec, levels, dram)
    return CpuDevice(spec, memory, config)
