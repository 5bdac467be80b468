"""Uncached pricing equals its pre-table reference, bit for bit.

The memory model looks streaming bandwidth up in a per-model level
table (one binary search), evaluates the gather hit pyramid for every
level at once, prices a gather's source level in the same evaluation as
its resident levels, and skips multiplications by one.  The pricing pass
resolves each site's placement once per IR, starts trip products and
loop bookkeeping from the first term instead of ones and zeros, adds no
zero latency for a pure stream and sums no one-unit groups.  None of that may move a cycle.
The per-level ``np.where`` chain, the per-level latency loop and the
pricing pass they replaced are kept here as the specification, and every
replay-catalog case is priced both ways on both devices.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from repro.config import ReproConfig  # noqa: E402
from repro.device import make_cpu, make_gpu  # noqa: E402
from repro.device.cost import CostModel  # noqa: E402
from repro.device.memory import ELEM_BYTES, MemoryModel  # noqa: E402
from repro.kernel import MemorySpace, WorkRange  # noqa: E402
from repro.kernel.ir import AtomicKind  # noqa: E402
from repro.traffic import DEFAULT_WORKLOADS  # noqa: E402
from repro.traffic.replay import TrafficReplayer  # noqa: E402
from tests.conftest import make_axpy_args, make_axpy_variant  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

#: The replay catalog's clamp ends: every workload at its smallest and
#: its largest served size.
BUCKETS = (256, 2048)
KINDS = ("cpu", "gpu")


# ----------------------------------------------------------------------
# Reference: the memory formulas and the pricing pass before the tables
# ----------------------------------------------------------------------


def reference_stream_bandwidth(self, working_set_bytes):
    ws = np.asarray(working_set_bytes, dtype=float)
    bandwidth = np.full(ws.shape, self.dram.bytes_per_cycle)
    for level in reversed(self.levels):
        bandwidth = np.where(
            ws <= level.size_bytes, level.bytes_per_cycle, bandwidth
        )
    return bandwidth


def reference_gather_latency(self, working_set_bytes):
    ws = np.maximum(np.asarray(working_set_bytes, dtype=float), 1.0)
    latency = np.zeros(ws.shape)
    covered = np.zeros(ws.shape)
    for level in self.levels:
        hit = np.minimum(1.0, level.size_bytes / ws)
        fresh = np.maximum(0.0, hit - covered)
        latency = latency + fresh * level.latency_cycles
        covered = np.maximum(covered, hit)
    latency = latency + (1.0 - covered) * self.dram.latency_cycles
    return latency


def reference_gather_latency_mixed(
    self, useful_bytes, working_set, buffer_bytes, fresh_discount=0.5
):
    ws = np.maximum(np.asarray(working_set, dtype=float), 1.0)
    useful = np.maximum(np.asarray(useful_bytes, dtype=float), 1.0)
    resident = self.gather_latency(ws)
    source = self.gather_latency(min(buffer_bytes, 1e18))
    fresh_frac = np.minimum(useful, ws) / np.maximum(useful, ws)
    fresh = np.maximum(source * fresh_discount, resident)
    return fresh_frac * fresh + (1.0 - fresh_frac) * resident


def reference_stream_cycles(
    self, useful_bytes, working_set, buffer_bytes, amplification=1.0
):
    useful = np.asarray(useful_bytes, dtype=float) * amplification
    footprint = np.asarray(working_set, dtype=float) * amplification
    fresh = np.minimum(useful, footprint)
    reused = useful - fresh
    source_bw = self.stream_bandwidth(min(buffer_bytes * amplification, 1e18))
    cache_bw = self.stream_bandwidth(footprint)
    return fresh / source_bw + reused / cache_bw


REFERENCE_FORMULAS = {
    "stream_bandwidth": reference_stream_bandwidth,
    "gather_latency": reference_gather_latency,
    "gather_latency_mixed": reference_gather_latency_mixed,
    "stream_cycles": reference_stream_cycles,
}


def reference_trip_product(trips, names, count):
    counts = np.ones(count)
    for name in names:
        counts = counts * trips[name]
    return counts


def reference_loop_bookkeeping(model, ir, trips_by_loop, count):
    spec = model.device.spec
    bookkeeping = np.zeros(count)
    instances = np.ones(count)
    for index, loop in enumerate(ir.loops):
        iterations = instances * trips_by_loop[loop.name]
        per_trip = spec.loop_overhead_cycles
        if index == len(ir.loops) - 1:
            per_trip /= ir.unroll_factor * max(1, ir.vector_width)
            if ir.prefetch:
                per_trip += 0.6
        bookkeeping += instances * spec.loop_setup_cycles
        bookkeeping += iterations * per_trip
        instances = iterations
    return bookkeeping


def reference_workgroup_cycles(model, variant, args, units):
    """The pricing pass with trip products, bookkeeping and site sums
    started from ones and zeros, per-call placement lookups and a
    ``reduceat`` for every wa factor, over the reference memory
    formulas."""
    ir = variant.ir
    memory = model.device.memory
    ids = np.arange(units.start, units.end, dtype=np.int64)
    trips_by_loop = ir.loop_trips(args, ids)
    nest = [loop.name for loop in ir.loops]
    flops = ir.flops_fixed + ir.flops_per_trip * reference_trip_product(
        trips_by_loop, nest, ids.size
    )
    compute = model.device.compute_cycles(ir, flops, ir.work_group_threads)
    bandwidth = np.zeros(ids.size)
    latency = np.zeros(ids.size)
    atomic_cycles = np.zeros(ids.size)
    placements = dict(ir.placements)
    with pytest.MonkeyPatch.context() as patch:
        for name, formula in REFERENCE_FORMULAS.items():
            patch.setattr(MemoryModel, name, formula)
        for access in ir.accesses:
            scope = access.scope
            if scope is None:
                scope = [loop.name for loop in ir.enclosing_loops(access.loop)]
            trips = reference_trip_product(trips_by_loop, scope, ids.size)
            useful_bytes = access.bytes_per_trip * trips
            buffer = model._buffer_arg(args, access.buffer)
            space = MemorySpace(
                placements.get(
                    access.buffer,
                    buffer.space.value if buffer is not None else "global",
                )
            )
            hint = (
                model._buffer_arg(args, access.working_set_hint)
                if access.working_set_hint
                else None
            )
            working_set = memory.working_set(access, args, ids, buffer, hint)
            buffer_bytes = (
                float(buffer.nbytes) if buffer is not None else float("inf")
            )
            dynamic_stride = (
                np.asarray(access.stride_evaluator(args, ids), dtype=float)
                if access.stride_evaluator is not None
                else None
            )
            cost = memory.access_cost(
                access,
                useful_bytes,
                working_set,
                buffer_bytes,
                ir,
                space,
                dynamic_stride=dynamic_stride,
            )
            bandwidth = bandwidth + cost.bandwidth_cycles
            latency = latency + cost.latency_cycles
            if access.atomic is AtomicKind.GLOBAL:
                ops = useful_bytes / ELEM_BYTES
                atomic_cycles += ops * model.device.atomic_cycles_per_op()
    bookkeeping = reference_loop_bookkeeping(model, ir, trips_by_loop, ids.size)
    exposed = latency + atomic_cycles + bookkeeping

    group_start, group_end = variant.groups_for_units(units)
    offsets = (
        np.arange(group_start, group_end, dtype=np.int64) * variant.wa_factor
        - units.start
    )
    compute = np.add.reduceat(compute, offsets)
    bandwidth = np.add.reduceat(bandwidth, offsets)
    exposed = np.add.reduceat(exposed, offsets)
    per_group_fixed = (
        model.device.scratchpad_cycles_per_group(ir)
        + model.device.spec.workgroup_dispatch_overhead
    )
    return np.maximum(compute, bandwidth) + exposed + per_group_fixed


# ----------------------------------------------------------------------
# The replay catalog, built once per module
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _replayer() -> TrafficReplayer:
    return TrafficReplayer(ReproConfig())


@functools.lru_cache(maxsize=None)
def _model(kind: str) -> CostModel:
    config = ReproConfig()
    return CostModel(make_gpu(config) if kind == "gpu" else make_cpu(config))


@functools.lru_cache(maxsize=None)
def _case(workload: str, bucket: int):
    case = _replayer().case_for(workload, bucket)
    return case, case.fresh_args()


def _ranges(units: int, wa: int):
    """Whole range, first wa slice, two offset slices and the tail."""
    groups = -(-units // wa)
    third = max(1, groups // 3)
    return {
        "whole": (0, units),
        "first": (0, min(wa, units)),
        "offset": (third * wa, min(units, (third + 3) * wa)),
        "late-offset": (2 * third * wa, min(units, (2 * third + 1) * wa)),
        "tail": ((groups - 1) * wa, units),
    }


def assert_bit_identical(got: np.ndarray, want: np.ndarray, label) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert np.array_equal(got, want), label
    assert got.tobytes() == want.tobytes(), label


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bucket", BUCKETS)
@pytest.mark.parametrize("workload", DEFAULT_WORKLOADS)
def test_catalog_pricing_matches_reference(workload, bucket):
    case, args = _case(workload, bucket)
    units = case.workload_units
    for kind in KINDS:
        model = _model(kind)
        for variant in case.pool.variants:
            for label, (start, end) in _ranges(units, variant.wa_factor).items():
                if start >= end:
                    continue
                work = WorkRange(start, end)
                assert_bit_identical(
                    model._workgroup_cycles_uncached(variant, args, work),
                    reference_workgroup_cycles(model, variant, args, work),
                    (kind, variant.name, label),
                )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", ["no-loops", "no-accesses", "empty"])
def test_degenerate_irs_match_reference(shape, kind):
    """An IR without loops prices no bookkeeping; one without access
    sites prices no bandwidth: both still return one value per group."""
    base = make_axpy_variant("v", wa_factor=2)
    ir = base.ir
    if shape in ("no-loops", "empty"):
        ir = dataclasses.replace(
            ir,
            loops=(),
            accesses=tuple(
                dataclasses.replace(access, loop=None) for access in ir.accesses
            ),
        )
    if shape in ("no-accesses", "empty"):
        ir = dataclasses.replace(ir, accesses=())
    variant = dataclasses.replace(base, ir=ir)
    args = make_axpy_args(16, ReproConfig())
    model = _model(kind)
    for work in (WorkRange(0, 16), WorkRange(4, 10)):
        got = model._workgroup_cycles_uncached(variant, args, work)
        assert got.shape == (-(-work.end // 2) - work.start // 2,)
        assert_bit_identical(
            got, reference_workgroup_cycles(model, variant, args, work), work
        )


@chaos_seed
@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(DEFAULT_WORKLOADS),
    bucket=st.sampled_from(BUCKETS),
    kind=st.sampled_from(KINDS),
    variant_index=st.integers(min_value=0, max_value=63),
    start=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    groups=st.integers(min_value=1, max_value=16),
)
def test_random_slices_match_reference(
    workload, bucket, kind, variant_index, start, groups
):
    case, args = _case(workload, bucket)
    variants = case.pool.variants
    variant = variants[variant_index % len(variants)]
    wa = variant.wa_factor
    total = -(-case.workload_units // wa)
    first = int(start * total)
    work = WorkRange(
        first * wa, min(case.workload_units, (first + groups) * wa)
    )
    model = _model(kind)
    assert_bit_identical(
        model._workgroup_cycles_uncached(variant, args, work),
        reference_workgroup_cycles(model, variant, args, work),
        (workload, bucket, kind, variant.name, work),
    )


def _boundary_values(memory: MemoryModel):
    """Every level bound, one ulp either side, and the degenerate ends."""
    values = [0.0, 0.5, 1.0, 1e18, np.inf]
    for level in memory.levels:
        size = level.size_bytes
        values += [size, np.nextafter(size, 0.0), np.nextafter(size, np.inf)]
    return values


def _working_sets(kind: str):
    boundaries = _boundary_values(_model(kind).device.memory)
    element = st.one_of(
        st.sampled_from(boundaries),
        st.floats(min_value=0.0, max_value=1e13, allow_nan=False),
    )
    return st.lists(element, min_size=0, max_size=24)


def _reference_call(name, *args):
    """``name`` evaluated through the reference formulas only."""
    with pytest.MonkeyPatch.context() as patch:
        for ref_name, formula in REFERENCE_FORMULAS.items():
            patch.setattr(MemoryModel, ref_name, formula)
        return REFERENCE_FORMULAS[name](*args)


@pytest.mark.parametrize("kind", KINDS)
def test_level_boundaries_match_reference(kind):
    memory = _model(kind).device.memory
    boundaries = _boundary_values(memory)
    ws = np.array(boundaries + [np.nan])
    for name in ("stream_bandwidth", "gather_latency"):
        got = getattr(memory, name)(ws)
        want = REFERENCE_FORMULAS[name](memory, ws)
        assert np.array_equal(got, want, equal_nan=True), name
        for value in ws:
            scalar = getattr(memory, name)(value)
            expected = REFERENCE_FORMULAS[name](memory, value)
            assert np.shape(scalar) == () and np.array_equal(
                scalar, expected, equal_nan=True
            ), (name, value)
    # Every boundary as the buffer size too: the source level of gathers
    # and streams, up to the 1e18 clamp and past it.
    ws = np.array(boundaries)
    useful = ws[::-1].copy()
    for buffer_bytes in boundaries:
        for amplification in (1.0, 8.0):
            got = memory.stream_cycles(useful, ws, buffer_bytes, amplification)
            want = _reference_call(
                "stream_cycles", memory, useful, ws, buffer_bytes, amplification
            )
            assert np.array_equal(got, want, equal_nan=True), buffer_bytes
        got = memory.gather_latency_mixed(useful, ws, buffer_bytes)
        want = _reference_call(
            "gather_latency_mixed", memory, useful, ws, buffer_bytes
        )
        assert np.array_equal(got, want), buffer_bytes


@chaos_seed
@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_formulas_match_reference_on_random_working_sets(data, kind):
    memory = _model(kind).device.memory
    ws = np.array(data.draw(_working_sets(kind)), dtype=float)
    useful = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e9),
                min_size=ws.size,
                max_size=ws.size,
            )
        ),
        dtype=float,
    )
    buffer_bytes = data.draw(
        st.one_of(st.sampled_from(_boundary_values(memory)), st.floats(1.0, 1e13))
    )
    amplification = data.draw(st.sampled_from((1.0, 2.0, 8.0, 24.0)))
    for name, call in (
        ("stream_bandwidth", lambda fn: fn(memory, ws)),
        ("gather_latency", lambda fn: fn(memory, ws)),
        (
            "gather_latency_mixed",
            lambda fn: fn(memory, useful, ws, buffer_bytes),
        ),
        (
            "stream_cycles",
            lambda fn: fn(memory, useful, ws, buffer_bytes, amplification),
        ),
    ):
        got = call(getattr(type(memory), name))
        want = call(functools.partial(_reference_call, name))
        assert np.array_equal(got, want, equal_nan=True), name
