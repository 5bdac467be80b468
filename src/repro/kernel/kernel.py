"""Kernel variants: IR plus a real functional implementation.

A :class:`KernelVariant` is one compiled implementation of a kernel.  It
pairs the declarative IR (what analyses and the cost model see) with an
*executor* — a numpy function that actually computes the variant's share of
the output.  Because executors really write the output buffers, DySel's
productive profiling is testable end-to-end: profiled slices must land in
the final output bit-exactly, sandboxed slices must not.

Work is measured in **workload units**: the finest-grained decomposition of
a launch (e.g. one output tile of sgemm, one row-block of spmv).  A variant
packs ``wa_factor`` units into each of its work-groups — the *work
assignment factor* of the paper's registration API (Fig 6a), produced by
coarsening/tiling transforms.  Safe point analysis normalizes profiling
slices across variants using these factors (paper §3.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

from ..errors import KernelError, NDRangeError
from .ir import KernelIR
from .signature import KernelSignature

#: Executor signature: (args, unit_start, unit_end) -> None.  Computes the
#: output contribution of workload units [unit_start, unit_end), writing
#: into the output buffers found in ``args``.
Executor = Callable[[Mapping[str, object], int, int], None]


@dataclass(frozen=True)
class WorkRange:
    """A half-open range [start, end) of workload units."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise NDRangeError(
                f"invalid WorkRange [{self.start}, {self.end})"
            )

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        """True when the range covers no units."""
        return self.end == self.start

    def take(self, count: int) -> Tuple["WorkRange", "WorkRange"]:
        """Split into (first ``count`` units, remainder).

        ``count`` is clamped to the available length.
        """
        cut = min(self.start + max(count, 0), self.end)
        return WorkRange(self.start, cut), WorkRange(cut, self.end)

    def intersect(self, other: "WorkRange") -> "WorkRange":
        """Intersection with another range (possibly empty)."""
        start = max(self.start, other.start)
        end = max(start, min(self.end, other.end))
        return WorkRange(start, end)

    def __repr__(self) -> str:
        return f"WorkRange({self.start}, {self.end})"


@dataclass(frozen=True)
class KernelVariant:
    """One implementation of a kernel, registered into a DySel pool.

    Parameters
    ----------
    name:
        Variant name, unique within its pool (e.g. ``"vector,BFO"``).
    ir:
        Declarative IR used by analyses and the device cost model.
    executor:
        Real numpy implementation over workload-unit ranges.
    wa_factor:
        Work assignment factor: workload units packed per work-group.
        Coarsened/tiled variants have larger factors (Fig 6a).
    work_group_size:
        Work-items per work-group (affects SIMD/warp efficiency).
    description:
        Human-readable provenance ("scratchpad-tiled 16x16 + 4x coarsened").
    """

    name: str
    ir: KernelIR
    executor: Executor
    wa_factor: int = 1
    work_group_size: int = 64
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise KernelError("variant name must be non-empty")
        if self.wa_factor < 1:
            raise KernelError(
                f"variant {self.name!r}: wa_factor must be >= 1, "
                f"got {self.wa_factor}"
            )
        if self.work_group_size < 1:
            raise KernelError(
                f"variant {self.name!r}: work_group_size must be >= 1, "
                f"got {self.work_group_size}"
            )

    # ------------------------------------------------------------------
    # Unit / work-group geometry
    # ------------------------------------------------------------------

    def num_groups(self, workload_units: int) -> int:
        """Work-groups this variant launches to cover ``workload_units``."""
        if workload_units < 0:
            raise KernelError(
                f"workload_units must be >= 0, got {workload_units}"
            )
        return math.ceil(workload_units / self.wa_factor)

    def units_for_groups(
        self, group_start: int, group_end: int, workload_units: int
    ) -> WorkRange:
        """Workload units covered by variant work-groups [start, end)."""
        start = min(group_start * self.wa_factor, workload_units)
        end = min(group_end * self.wa_factor, workload_units)
        return WorkRange(start, end)

    def groups_for_units(self, units: WorkRange) -> Tuple[int, int]:
        """Variant work-group range covering a unit range.

        The unit range must be aligned to ``wa_factor`` (except at the tail
        of the workload); productive profiling always hands out aligned
        ranges, which safe point analysis guarantees by construction.
        """
        if units.start % self.wa_factor != 0:
            raise KernelError(
                f"variant {self.name!r}: unit range {units} is not aligned "
                f"to wa_factor {self.wa_factor}"
            )
        group_start = units.start // self.wa_factor
        group_end = math.ceil(units.end / self.wa_factor)
        return group_start, group_end

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, args: Mapping[str, object], units: WorkRange) -> None:
        """Run the variant over a unit range, writing real output."""
        if units.empty:
            return
        self.executor(args, units.start, units.end)


@dataclass(frozen=True)
class KernelSpec:
    """The kernel contract a pool of variants implements.

    Carries the shared signature plus an optional *reference executor* used
    by tests and examples to validate that every variant computes the same
    function (the substitutability contract DySel's registration API
    assumes).
    """

    signature: KernelSignature
    reference: Optional[Executor] = None
    #: Which output arguments sandboxing / swapping applies to, by name.
    #: Mirrors ``sandbox_index`` in the paper's registration API; defaults
    #: to every declared output.
    sandbox_outputs: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        declared = set(self.signature.output_names)
        for name in self.sandbox_outputs:
            if name not in declared:
                raise KernelError(
                    f"kernel {self.signature.name!r}: sandbox output "
                    f"{name!r} is not a declared output "
                    f"(outputs: {sorted(declared)})"
                )

    @property
    def effective_sandbox_outputs(self) -> Tuple[str, ...]:
        """Outputs subject to sandbox/swap handling."""
        if self.sandbox_outputs:
            return self.sandbox_outputs
        return self.signature.output_names
