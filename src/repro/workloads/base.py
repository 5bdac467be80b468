"""Benchmark case container consumed by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..compiler.variants import VariantPool
from ..errors import WorkloadError

#: Builds a fresh argument mapping (fresh output buffers) for one run.
ArgsFactory = Callable[[], Dict[str, object]]

#: Validates the outputs in an argument mapping against the reference.
Checker = Callable[[Mapping[str, object]], bool]


def freeze(*inputs: object) -> None:
    """Make case inputs read-only: arrays directly, any other object
    through every array attribute it holds.

    A frozen input is what the cost memo and workload signatures key by
    identity (:func:`repro.device.cost.memoize_per_input`), and a later
    write raises ``ValueError`` instead of leaving a stale entry behind.
    """
    for value in inputs:
        arrays = (value,) if isinstance(value, np.ndarray) else vars(value).values()
        for array in arrays:
            if isinstance(array, np.ndarray):
                array.setflags(write=False)


def unit_span(
    values: np.ndarray, unit_ids: np.ndarray, per_unit: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(span, ids)``: the contiguous slice of ``values`` the units own,
    and the ids re-based to its first unit.

    An evaluator that transforms ``values`` element by element transforms
    ``span`` instead and reduces with the re-based ids, so it costs what
    the asked units cost, not what the whole input does.
    """
    ids = np.asarray(unit_ids, dtype=np.int64)
    if ids.size == 0:
        return values[:0], ids
    first, last = int(ids.min()), int(ids.max())
    return values[first * per_unit : (last + 1) * per_unit], ids - first


def per_unit_reduce(
    values: np.ndarray,
    unit_ids: np.ndarray,
    per_unit: int,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-unit ``(reduced, lengths)`` of ``values`` without a unit loop.

    Unit ``u`` owns ``values[u * per_unit:(u + 1) * per_unit]`` (clipped
    at the end).  ``reduce`` maps a ``(units, elems)`` reshape of the ids'
    contiguous span to one value per row; empty units get zeros.
    """
    span, ids = unit_span(values, unit_ids, per_unit)
    if ids.size == 0:
        return np.zeros(0), np.zeros(0)
    units = int(ids.max()) + 1
    full, tail = divmod(len(span), per_unit)
    reduced = np.zeros(units)
    lengths = np.zeros(units)
    if full:
        reduced[:full] = reduce(span[: full * per_unit].reshape(full, per_unit))
        lengths[:full] = per_unit
    if tail:
        reduced[full] = reduce(span[full * per_unit :].reshape(1, tail))[0]
        lengths[full] = tail
    return reduced[ids], lengths[ids]


def per_unit_mean(
    values: np.ndarray, unit_ids: np.ndarray, per_unit: int
) -> np.ndarray:
    """Mean of each unit's block of integer ``values`` (0 when empty).

    Integer sums are exact, so sum-then-divide is bit-identical to each
    unit's ``np.mean``.
    """
    sums, lengths = per_unit_reduce(
        values, unit_ids, per_unit, lambda block: block.sum(axis=1)
    )
    return np.divide(sums, lengths, out=np.zeros_like(sums), where=lengths > 0)


@dataclass
class BenchmarkCase:
    """One benchmark × device × case-study configuration.

    Parameters
    ----------
    name:
        Case label used in reports (e.g. ``"sgemm/cpu/schedules"``).
    pool:
        The variant pool DySel selects from.
    make_args:
        Factory producing fresh arguments (so repeated runs with different
        selectors don't share output buffers).
    workload_units:
        Units per launch.
    iterations:
        Launches per run; > 1 marks iterative applications (stencil,
        kmeans, spmv in CG) that profile only their first iteration.
    check:
        Output validator against a reference implementation.
    """

    name: str
    pool: VariantPool
    make_args: ArgsFactory
    workload_units: int
    iterations: int = 1
    check: Optional[Checker] = None
    notes: str = ""

    def __post_init__(self) -> None:
        if self.workload_units < 1:
            raise WorkloadError(
                f"case {self.name!r}: workload_units must be >= 1"
            )
        if self.iterations < 1:
            raise WorkloadError(f"case {self.name!r}: iterations must be >= 1")

    def fresh_args(self) -> Dict[str, object]:
        """Build a fresh argument mapping for one run."""
        return self.make_args()

    def validate(self, args: Mapping[str, object]) -> bool:
        """Check outputs against the reference (True when no checker)."""
        if self.check is None:
            return True
        return self.check(args)
