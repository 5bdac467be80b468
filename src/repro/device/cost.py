"""Mechanistic cost model: per-unit pricing, per-work-group aggregation.

:class:`CostModel` interprets a variant's IR against a device.  All IR
quantities (trip counts, byte volumes, flops) are defined **per workload
unit** — the finest decomposition of the launch.  A variant packs
``wa_factor`` units into each work-group, so the model:

1. evaluates per-unit compute, bandwidth and latency cycles (vectorized,
   honoring data-dependent loop bounds for exactly the units covered);
2. sums each component over every work-group's units;
3. combines with a roofline — bandwidth traffic overlaps compute; exposed
   latency (gathers, atomics), loop bookkeeping, scratchpad staging and
   the per-work-group dispatch overhead add on top.

Because per-unit quantities are evaluated for the *specific* units a
work-group covers, profiling a slice reflects that slice's data — the
property DySel's productive profiling relies on (paper §2.1), and the
reason profiling can be misled only by genuine workload irregularity, not
by model artifacts.

The DySel runtime never calls this module; it only observes measured
execution times from the engine — the same information asymmetry the real
system has.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import astuple, dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np

from ..kernel.buffers import Buffer, MemorySpace
from ..kernel.ir import AtomicKind, KernelIR, MemoryAccess
from ..kernel.kernel import KernelVariant, WorkRange
from .base import Device
from .memory import ELEM_BYTES

T = TypeVar("T")


def _once_per_ir(ir: KernelIR, attr: str, compute: Callable[[KernelIR], T]) -> T:
    """``compute(ir)``, evaluated once per IR object and kept on it.

    ``KernelIR`` is a frozen dataclass, so an ``lru_cache`` lookup re-hashes
    every field on every call.  The result lives in the instance
    ``__dict__`` instead; it is not a dataclass field, so equality, repr and
    ``dataclasses.replace`` never see it.
    """
    try:
        return ir.__dict__[attr]
    except KeyError:
        return ir.__dict__.setdefault(attr, compute(ir))


def ir_hash(ir: KernelIR) -> str:
    """Stable structural hash of an IR.

    Callables (data-dependent evaluators) are replaced by a fixed marker:
    static analyses never look through them, so two IRs differing only in
    evaluator bodies hash identically — which is exactly why the
    cost-kernel memo keys a data-dependent IR on its identity as well
    (:func:`statically_priced`).
    """
    return _once_per_ir(ir, "_ir_hash", _structural_hash)


def _structural_hash(ir: KernelIR) -> str:
    parts = []
    for loop in ir.loops:
        bound = (
            f"static:{loop.bound.static_trips}"
            if loop.bound.static_trips is not None
            else "dynamic"
        )
        parts.append(
            f"loop:{loop.name}:{bound}:{loop.is_work_item_loop}:{loop.has_early_exit}"
        )
    for access in ir.accesses:
        parts.append(
            "access:" + ":".join(
                str(x)
                for x in (
                    access.buffer,
                    access.is_write,
                    access.pattern.value,
                    access.bytes_per_trip,
                    access.loop,
                    access.scope,
                    access.stride_bytes,
                    access.atomic.value,
                    access.working_set_hint,
                    access.stride_evaluator is not None,
                    access.footprint_hint is not None,
                    access.footprint_bytes,
                    access.strides_by_loop,
                )
            )
        )
    parts.append(
        "scalars:" + ":".join(
            str(x)
            for x in (
                ir.flops_per_trip,
                ir.flops_fixed,
                ir.vector_width,
                ir.divergence,
                ir.scratchpad_bytes,
                ir.uses_barrier,
                ir.unroll_factor,
                ir.prefetch,
                ir.placements,
                ir.work_group_threads,
            )
        )
    )
    digest = hashlib.blake2b("\n".join(parts).encode(), digest_size=16)
    return digest.hexdigest()


def statically_priced(ir: KernelIR) -> bool:
    """True when an IR's pricing cannot depend on runtime data.

    An IR is statically priced when no loop bound, stride, or footprint is
    evaluator-driven: every per-unit cost term is then a function of IR
    constants (a constant ``footprint_bytes`` included) and buffer shapes
    only, identical across units.  The memo then keys it on the range
    *length*; any other IR is keyed on its identity, its exact range and
    the identity of every frozen input its evaluators may read.
    """
    return _once_per_ir(ir, "_statically_priced", _no_evaluators)


def _no_evaluators(ir: KernelIR) -> bool:
    if any(loop.bound.evaluator is not None for loop in ir.loops):
        return False
    return all(
        access.stride_evaluator is None and access.footprint_hint is None
        for access in ir.accesses
    )


def _placed_sites(
    ir: KernelIR,
) -> Tuple[Tuple[MemoryAccess, Optional[MemorySpace]], ...]:
    """Each access site with the space an IR placement binds it to
    (None: the bound buffer's own space)."""
    placements = dict(ir.placements)
    return tuple(
        (
            access,
            MemorySpace(placements[access.buffer])
            if access.buffer in placements
            else None,
        )
        for access in ir.accesses
    )


def _space(placed: Optional[MemorySpace], buffer: Optional[Buffer]) -> MemorySpace:
    """The space serving a site: its placement, else its buffer's space."""
    if placed is not None:
        return placed
    return buffer.space if buffer is not None else MemorySpace.GLOBAL


# ----------------------------------------------------------------------
# Cost-kernel memo
# ----------------------------------------------------------------------
#
# For a statically priced IR, ``workgroup_cycles`` depends only on the IR
# structure, the device, the variant's packing factor, the *length* of the
# unit range (starts are wa-aligned, so group partitioning is position
# independent) and the shapes/placements of the buffers bound to each
# access.  One entry therefore serves every launch of the same workload
# class — repeated serving launches, profiling slices of equal length,
# eager chunks — and the cached array is returned as-is (read-only), so a
# warm launch derives nothing.
#
# A data-dependent IR is cached per *frozen input*: its key adds the IR's
# identity, the exact range and the identity of every input its
# evaluators may read (:func:`_input_key`).  Such an entry holds weak
# references to the objects its key names by identity, and dies with the
# first of them, so a recycled ``id()`` never meets a stale entry.

_MEMO_LOCK = threading.Lock()
#: key -> (cached value, weak references to the objects the key names by
#: identity).  Cost-array keys start with the IR hash, so invalidation by
#: hash covers both kinds of entry.
_COST_MEMO: Dict[Tuple, Tuple[object, Tuple[weakref.ref, ...]]] = {}
_MEMO_HITS = 0
_MEMO_MISSES = 0
#: Invalidation generation: a computation begun under an older generation
#: must not repopulate the memo after an invalidation raced past it.
_MEMO_GEN = 0
#: Keys whose identity-keyed objects died.  A weakref callback may run
#: inside a locked region (when the cyclic collector fires there), so it
#: only appends here; every lookup drops these keys under the lock first.
_DEAD_KEYS: List[Tuple] = []

#: Argument values keyed by value (with their type, so ``1`` and ``1.0``
#: never share an entry).
_SCALARS = (bool, int, float, complex, str, bytes, type(None), np.generic)


def _drop_dead_keys() -> None:
    """Drop the entries whose keyed objects died (memo lock held)."""
    while _DEAD_KEYS:
        _COST_MEMO.pop(_DEAD_KEYS.pop(), None)


def _frozen(array: np.ndarray) -> bool:
    """True when neither ``array`` nor any array it views is writeable,
    and the memory at the bottom is an array's own (not a ``bytearray``
    or a memory map that could change beneath it)."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


def _input_key(value: object, holders: List[object]) -> Optional[Hashable]:
    """Memo-key component of one input an evaluator may read.

    A read-only :class:`Buffer` over a frozen array is keyed by the
    array's identity; scalars and tuples by value; any other object (a
    sparse matrix) by its identity and its arrays', only when every array
    it holds is frozen.  Objects keyed by identity are appended to
    ``holders``.  Returns None for an input that is not frozen: the
    launch is then priced uncached.
    """
    if isinstance(value, Buffer):
        if value.writable or not _frozen(value.data):
            return None
        holders.append(value.data)
        return id(value.data)
    if isinstance(value, _SCALARS):
        return (type(value), value)
    if isinstance(value, tuple):
        parts = tuple(_input_key(item, holders) for item in value)
        return None if None in parts else parts
    identity = [id(value)]
    for item in getattr(value, "__dict__", {}).values():
        if isinstance(item, np.ndarray):
            if not _frozen(item):
                return None
            holders.append(item)
            identity.append(id(item))
    if len(identity) == 1:
        return None
    holders.append(value)
    return tuple(identity)


def _weak_refs(key: Tuple, holders: List[object]) -> Tuple[weakref.ref, ...]:
    """Weak references that evict ``key`` when any holder dies."""

    def died(_ref: weakref.ref) -> None:
        _DEAD_KEYS.append(key)

    unique = {id(holder): holder for holder in holders}
    return tuple(weakref.ref(holder, died) for holder in unique.values())


def _memoized(
    key: Optional[Tuple],
    holders: List[object],
    compute: Callable[[], T],
    counted: bool,
) -> T:
    """The one memo path: the entry under ``key``, else ``compute()``,
    inserted unless an invalidation raced past it.  A None key computes
    uncached.  ``counted`` calls tally once each as a hit or a miss."""
    global _MEMO_HITS, _MEMO_MISSES
    generation = None
    if key is not None:
        with _MEMO_LOCK:
            _drop_dead_keys()
            entry = _COST_MEMO.get(key)
            if entry is not None:
                _MEMO_HITS += counted
                return entry[0]  # type: ignore[return-value]
            generation = _MEMO_GEN
    result = compute()
    refs = _weak_refs(key, holders) if key is not None else ()
    with _MEMO_LOCK:
        _MEMO_MISSES += counted
        if key is not None and _MEMO_GEN == generation:
            _COST_MEMO.setdefault(key, (result, refs))
    return result


def memoize_per_input(tag: str, value: object, compute: Callable[[], T]) -> T:
    """``compute()``, cached in the cost memo per frozen input ``value``.

    The same identity rule (:func:`_input_key`) and the same eviction as
    data-dependent cost arrays; an input that is not frozen, or that
    names no object by identity, is computed on every call.  Serving
    uses it for the features of a frozen sparse matrix.
    """
    holders: List[object] = []
    identity = _input_key(value, holders)
    key = (tag, identity) if identity is not None and holders else None
    return _memoized(key, holders, compute, counted=False)


def cost_memo_stats() -> Dict[str, int]:
    """Current memo size and hit/miss counters (monotonic until cleared).

    Every ``workgroup_cycles`` call that prices a non-empty range counts
    once: a hit, or a miss when it computes (cached afterwards or not).
    """
    with _MEMO_LOCK:
        _drop_dead_keys()
        return {
            "entries": len(_COST_MEMO),
            "hits": _MEMO_HITS,
            "misses": _MEMO_MISSES,
        }


def clear_cost_memo() -> None:
    """Drop every memo entry (signature features included) and reset the
    hit/miss counters."""
    global _MEMO_HITS, _MEMO_MISSES, _MEMO_GEN
    with _MEMO_LOCK:
        _COST_MEMO.clear()
        _DEAD_KEYS.clear()
        _MEMO_HITS = 0
        _MEMO_MISSES = 0
        _MEMO_GEN += 1


def invalidate_cost_memo(ir_hashes: Optional[Iterable[str]] = None) -> int:
    """Drop memo entries for the given IR hashes (all entries when None).

    Returns the number of entries dropped.  Runs under the memo lock and
    bumps the generation counter, so a cost evaluation already in flight
    on another thread cannot re-insert a doomed entry after this returns
    (the pool re-registration race).
    """
    global _MEMO_GEN
    with _MEMO_LOCK:
        _MEMO_GEN += 1
        _drop_dead_keys()
        if ir_hashes is None:
            dropped = len(_COST_MEMO)
            _COST_MEMO.clear()
            return dropped
        doomed_hashes = set(ir_hashes)
        doomed = [key for key in _COST_MEMO if key[0] in doomed_hashes]
        for key in doomed:
            del _COST_MEMO[key]
        return len(doomed)


@dataclass(frozen=True)
class UnitCostBreakdown:
    """Per-unit cost components (arrays over units)."""

    compute_cycles: np.ndarray
    bandwidth_cycles: np.ndarray
    exposed_cycles: np.ndarray  # latency + atomics + loop overhead


class CostModel:
    """Prices work-groups of a variant on one device."""

    def __init__(self, device: Device) -> None:
        self.device = device
        #: Memo key component identifying the pricing-relevant device
        #: state: the field values of the spec, cache levels and DRAM row,
        #: so equal devices (fleet replicas) share entries.  Plain tuples
        #: hash in C; the frozen dataclasses would re-hash field by field
        #: in Python on every lookup.
        self._device_key = (
            type(device).__qualname__,
            astuple(device.spec),
            tuple(astuple(level) for level in device.memory.levels),
            astuple(device.memory.dram),
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def workgroup_cycles(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> np.ndarray:
        """True (noise-free) cycles for each work-group covering ``units``.

        ``units`` must be aligned to the variant's ``wa_factor`` (safe
        point analysis guarantees this for profiling slices; whole-launch
        ranges start at zero and are trivially aligned).

        Memoized (see :meth:`_memo_key`): repeated launches of the same
        workload class, or of the same frozen input, return the cached
        (read-only) array without re-deriving anything.  The memo is a
        pure cache — hits are bit-identical to the computation they skip.
        """
        if units.empty:
            return np.zeros(0)
        holders: List[object] = []
        key = self._memo_key(variant, args, units, holders)

        def compute() -> np.ndarray:
            result = self._workgroup_cycles_uncached(variant, args, units)
            if key is not None:
                result.setflags(write=False)
            return result

        return _memoized(key, holders, compute, counted=True)

    def _memo_key(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
        holders: Optional[List[object]] = None,
    ) -> Optional[Tuple]:
        """Memo key for a launch, or None when it must not be cached.

        Only wa-aligned ranges qualify: alignment makes the group
        partition (and therefore the cost array) a function of the range
        *length* alone, so a statically priced IR's profiling slices at
        different offsets share one entry.  A misaligned range falls
        through to the uncached path (which rejects it the same way it
        always has).

        A data-dependent IR's slices see different data, so its key holds
        the exact range, the IR's identity (``ir_hash`` is blind to
        evaluator bodies) and every non-output argument
        (:func:`_input_key`); written buffers contribute only their shape,
        dtype and space, because no evaluator reads an output.  The
        objects named by identity are appended to ``holders``; an
        argument that is not frozen makes the launch uncacheable.
        """
        if holders is None:
            holders = []
        ir = variant.ir
        if units.start % variant.wa_factor != 0:
            return None
        fingerprint = []
        for access, placed in _once_per_ir(ir, "_sites", _placed_sites):
            buffer = self._buffer_arg(args, access.buffer)
            space = _space(placed, buffer).value
            hint = (
                self._buffer_arg(args, access.working_set_hint)
                if access.working_set_hint
                else None
            )
            fingerprint.append(
                (
                    float(buffer.nbytes) if buffer is not None else None,
                    space,
                    float(hint.nbytes) if hint is not None else None,
                )
            )
        head = (ir_hash(ir), self._device_key, variant.wa_factor)
        if statically_priced(ir):
            return head + (len(units), tuple(fingerprint))
        written = _once_per_ir(
            ir, "_written", lambda ir: frozenset(ir.written_buffers)
        )
        inputs = []
        for name, value in args.items():
            if name in written and isinstance(value, Buffer):
                part: Hashable = (value.shape, value.dtype.str, value.space.value)
            else:
                part = _input_key(value, holders)
                if part is None:
                    return None
            inputs.append((name, part))
        holders.append(ir)
        return head + (
            (units.start, units.end),
            tuple(fingerprint),
            id(ir),
            tuple(inputs),
        )

    def _workgroup_cycles_uncached(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> np.ndarray:
        """Full cost derivation (the memo's fill path)."""
        unit_ids = np.arange(units.start, units.end, dtype=np.int64)
        breakdown = self.unit_costs(variant.ir, args, unit_ids)

        group_start, group_end = variant.groups_for_units(units)
        factor = variant.wa_factor
        compute = breakdown.compute_cycles
        bandwidth = breakdown.bandwidth_cycles
        exposed = breakdown.exposed_cycles
        # A one-unit group's sums are its unit's own.
        if factor > 1:
            offsets = (
                np.arange(group_start, group_end, dtype=np.int64) * factor
                - units.start
            )
            compute = np.add.reduceat(compute, offsets)
            bandwidth = np.add.reduceat(bandwidth, offsets)
            exposed = np.add.reduceat(exposed, offsets)

        per_group_fixed = (
            self.device.scratchpad_cycles_per_group(variant.ir)
            + self.device.spec.workgroup_dispatch_overhead
        )
        return np.maximum(compute, bandwidth) + exposed + per_group_fixed

    def unit_costs(
        self,
        ir: KernelIR,
        args: Mapping[str, object],
        unit_ids: np.ndarray,
    ) -> UnitCostBreakdown:
        """Evaluate per-unit cost components for the given unit ids."""
        ids = np.asarray(unit_ids, dtype=np.int64)
        trips_by_loop = ir.loop_trips(args, ids)
        flops = ir.total_flops(args, ids, trips_by_loop)
        compute = self.device.compute_cycles(ir, flops, self._wg_size(ir))

        # Running sums over the sites; a pure stream's latency is 0.0.
        bandwidth = latency = atomic_cycles = 0.0
        memory = self.device.memory
        for access, placed in _once_per_ir(ir, "_sites", _placed_sites):
            trips = ir.access_trips(access, args, ids, trips_by_loop)
            useful_bytes = access.bytes_per_trip * trips
            buffer = self._buffer_arg(args, access.buffer)
            hint = (
                self._buffer_arg(args, access.working_set_hint)
                if access.working_set_hint
                else None
            )
            working_set = memory.working_set(access, args, ids, buffer, hint)
            dynamic_stride = (
                np.asarray(access.stride_evaluator(args, ids), dtype=float)
                if access.stride_evaluator is not None
                else None
            )
            cost = memory.access_cost(
                access,
                useful_bytes,
                working_set,
                float(buffer.nbytes) if buffer is not None else float("inf"),
                ir,
                _space(placed, buffer),
                dynamic_stride=dynamic_stride,
            )
            bandwidth = bandwidth + cost.bandwidth_cycles
            latency = latency + cost.latency_cycles
            if access.atomic is AtomicKind.GLOBAL:
                ops = useful_bytes / ELEM_BYTES
                atomic_cycles = (
                    atomic_cycles + ops * self.device.atomic_cycles_per_op()
                )
        if not ir.accesses:
            bandwidth = np.zeros(ids.size)

        bookkeeping = self._loop_bookkeeping(ir, trips_by_loop, ids.size)
        return UnitCostBreakdown(
            compute_cycles=compute,
            bandwidth_cycles=bandwidth,
            exposed_cycles=latency + atomic_cycles + bookkeeping,
        )

    def _loop_bookkeeping(
        self,
        ir: KernelIR,
        trips_by_loop: Mapping[str, np.ndarray],
        count: int,
    ) -> np.ndarray:
        """Per-unit loop setup and trip bookkeeping cycles.

        Every loop charges a setup cost per *instance* (once per iteration
        of its enclosing loops) and a per-trip branch cost; only the
        innermost loop's trips are amortized by unrolling.  Short
        data-dependent inner loops are therefore setup-dominated, which is
        what makes loop order matter for irregular inputs (paper §4.4's
        DFO/BFO crossover).
        """
        if not ir.loops:
            return np.zeros(count)
        spec = self.device.spec
        bookkeeping = 0.0
        instances = 1.0  # one instance of the outermost loop per unit
        for index, loop in enumerate(ir.loops):
            iterations = instances * trips_by_loop[loop.name]
            per_trip = spec.loop_overhead_cycles
            if index == len(ir.loops) - 1:
                # The innermost loop's bookkeeping amortizes over both
                # unrolling and SIMD lanes (a vectorized loop takes 1/w
                # as many trips).
                per_trip /= ir.unroll_factor * max(1, ir.vector_width)
                if ir.prefetch:
                    # Prefetch instructions occupy an issue slot per trip.
                    per_trip += 0.6
            bookkeeping += instances * spec.loop_setup_cycles
            bookkeeping += iterations * per_trip
            instances = iterations
        return bookkeeping

    def launch_cycles(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> float:
        """Total serialized cycles if the work-groups ran on one unit.

        Convenience for tests and analytical baselines; the engine computes
        actual makespans with concurrency.
        """
        return float(np.sum(self.workgroup_cycles(variant, args, units)))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _wg_size(ir: KernelIR) -> int:
        """Work-group thread count hint used by compute-efficiency rules."""
        return ir.work_group_threads

    @staticmethod
    def _buffer_arg(
        args: Mapping[str, object], name: Optional[str]
    ) -> Optional[Buffer]:
        """Resolve an argument to a Buffer, or None for scalars/missing."""
        if name is None:
            return None
        value = args.get(name)
        return value if isinstance(value, Buffer) else None
