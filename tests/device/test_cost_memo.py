"""The cost-kernel memo: a pure cache with correct invalidation.

The memo (:mod:`repro.device.cost`) turns repeated cost derivations for
the same workload class into dictionary lookups.  These tests pin down
the contract: hits are bit-identical to the computation they skip, only
statically priced wa-aligned launches are cached, entries die when their
pool is re-registered or extended, and the generation counter keeps an
in-flight computation from resurrecting a doomed entry (the
re-register-mid-launch race).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.runtime import DySelRuntime
from repro.device import make_cpu, make_gpu
from repro.device.cost import (
    CostModel,
    cost_memo_stats,
    invalidate_cost_memo,
    ir_hash,
    statically_priced,
)
from repro.errors import KernelError
from repro.kernel import (
    AccessPattern,
    KernelIR,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from tests.conftest import (
    AXPY_UNIT,
    axpy_executor,
    fast_slow_pool_build,
    make_axpy_args,
    make_axpy_variant,
)


def make_dynamic_variant(name: str, kind: str) -> KernelVariant:
    """An axpy variant whose pricing depends on runtime data."""
    trips = 16

    def unit_trips(args, unit_ids):
        return np.full(np.asarray(unit_ids).size, float(trips))

    def unit_stride(args, unit_ids):
        return np.full(np.asarray(unit_ids).size, 64.0)

    bound = LoopBound(
        evaluator=unit_trips if kind == "loop" else None,
        static_trips=None if kind == "loop" else trips,
    )
    access_extra = {}
    if kind == "stride":
        access_extra["stride_evaluator"] = unit_stride
    if kind == "footprint":
        access_extra["footprint_hint"] = unit_stride
    ir = KernelIR(
        loops=(Loop("k", bound),),
        accesses=(
            MemoryAccess(
                "x",
                False,
                AccessPattern.UNIT_STRIDE,
                4.0 * AXPY_UNIT / trips,
                loop="k",
                **access_extra,
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0 * AXPY_UNIT / trips,
                loop="k",
            ),
        ),
        flops_per_trip=32.0,
        work_group_threads=AXPY_UNIT,
    )
    return KernelVariant(
        name=name, ir=ir, executor=axpy_executor, work_group_size=AXPY_UNIT
    )


class TestMemoBasics:
    def test_second_evaluation_hits_and_matches(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(64, quiet_config)
        cold = model.workgroup_cycles(variant, args, WorkRange(0, 64))
        warm = model.workgroup_cycles(variant, args, WorkRange(0, 64))
        stats = cost_memo_stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1}
        assert warm is cold
        assert np.array_equal(
            warm,
            model._workgroup_cycles_uncached(variant, args, WorkRange(0, 64)),
        )

    def test_cached_array_is_read_only(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        cycles = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert not cycles.flags.writeable
        with pytest.raises(ValueError):
            cycles[0] = 0.0

    def test_aligned_slices_share_one_entry(self, quiet_config):
        """Profiling slices at different offsets hit the same entry.

        wa-aligned starts make the group partition a function of range
        *length* alone, so the memo key omits the offset — and the cached
        values must still match a from-scratch derivation at each offset.
        """
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16, wa_factor=4)
        args = make_axpy_args(96, quiet_config)
        ranges = [WorkRange(0, 16), WorkRange(16, 32), WorkRange(64, 80)]
        results = [
            model.workgroup_cycles(variant, args, units) for units in ranges
        ]
        assert cost_memo_stats() == {"entries": 1, "hits": 2, "misses": 1}
        for units, cycles in zip(ranges, results):
            assert np.array_equal(
                cycles, model._workgroup_cycles_uncached(variant, args, units)
            )

    def test_misaligned_start_is_not_cached(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16, wa_factor=4)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(4, 32))
        # Start 6 is not a multiple of wa_factor 4: the uncached path
        # must reject it exactly as it did before the memo existed.
        with pytest.raises(KernelError):
            model.workgroup_cycles(variant, args, WorkRange(6, 32))
        assert cost_memo_stats()["entries"] == 1

    def test_distinct_devices_get_distinct_entries(self, quiet_config):
        cpu_model = CostModel(make_cpu(quiet_config))
        gpu_model = CostModel(make_gpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        cpu_cycles = cpu_model.workgroup_cycles(variant, args, WorkRange(0, 32))
        gpu_cycles = gpu_model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats()["entries"] == 2
        assert not np.array_equal(cpu_cycles, gpu_cycles)

    def test_buffer_shape_is_part_of_the_key(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        small = make_axpy_args(32, quiet_config)
        large = make_axpy_args(64, quiet_config)
        model.workgroup_cycles(variant, small, WorkRange(0, 32))
        model.workgroup_cycles(variant, large, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 2, "hits": 0, "misses": 2}


class TestStaticallyPriced:
    @pytest.mark.parametrize("kind", ["loop", "stride", "footprint"])
    def test_data_dependent_irs_are_never_cached(self, kind, quiet_config):
        variant = make_dynamic_variant("dyn", kind)
        assert not statically_priced(variant.ir)
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        first = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        second = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 0, "hits": 0, "misses": 0}
        assert first.flags.writeable and second.flags.writeable
        assert np.array_equal(first, second)

    def test_static_axpy_is_statically_priced(self):
        assert statically_priced(make_axpy_variant("v").ir)

    def test_evaluator_blind_hash_is_why_dynamic_is_excluded(self):
        """Two IRs differing only in evaluator bodies hash identically —
        the documented reason they must never share a memo entry."""
        first = make_dynamic_variant("a", "stride")
        second = make_dynamic_variant("b", "stride")
        assert first.ir is not second.ir
        assert ir_hash(first.ir) == ir_hash(second.ir)


class TestInvalidation:
    def test_invalidate_by_hash_is_selective(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        unit = make_axpy_variant("unit", AccessPattern.UNIT_STRIDE)
        strided = make_axpy_variant("strided", AccessPattern.STRIDED)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(unit, args, WorkRange(0, 32))
        model.workgroup_cycles(strided, args, WorkRange(0, 32))
        assert cost_memo_stats()["entries"] == 2
        assert invalidate_cost_memo([ir_hash(unit.ir)]) == 1
        assert cost_memo_stats()["entries"] == 1
        model.workgroup_cycles(strided, args, WorkRange(0, 32))
        assert cost_memo_stats()["hits"] == 1

    def test_invalidate_all(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(
            make_axpy_variant("v"), args, WorkRange(0, 32)
        )
        assert invalidate_cost_memo() == 1
        assert cost_memo_stats()["entries"] == 0

    def test_pool_reregistration_drops_entries(self, quiet_config):
        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())
        args = make_axpy_args(64, quiet_config)
        runtime.launch_kernel("axpy", args, 64)
        assert cost_memo_stats()["entries"] > 0
        runtime.register_pool(fast_slow_pool_build())
        assert cost_memo_stats()["entries"] == 0

    def test_first_registration_invalidates_nothing(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("unrelated", trips=32)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(0, 32))
        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())
        assert cost_memo_stats()["entries"] == 1

    def test_add_kernel_drops_pool_entries(self, quiet_config):
        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())
        args = make_axpy_args(64, quiet_config)
        runtime.launch_kernel("axpy", args, 64)
        assert cost_memo_stats()["entries"] > 0
        runtime.add_kernel(
            "axpy", make_axpy_variant("extra", trips=48)
        )
        # Entries for the pool's (pre-extension) variants are gone; a
        # relaunch against the extended pool starts cold.
        before = cost_memo_stats()
        runtime.launch_kernel("axpy", args, 64, profiling=False)
        after = cost_memo_stats()
        assert after["misses"] > before["misses"]


class TestReRegisterMidLaunchRace:
    def test_inflight_computation_cannot_repopulate(self, quiet_config):
        """Thread A prices a variant while thread B re-registers its pool.

        However the interleaving lands, a cost array derived *before*
        the invalidation must not survive *after* it: the generation
        counter captured at miss time blocks the late insert.
        """
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("fast", AccessPattern.UNIT_STRIDE)
        args = make_axpy_args(64, quiet_config)
        doomed = ir_hash(variant.ir)

        in_derivation = threading.Event()
        invalidated = threading.Event()
        original = CostModel._workgroup_cycles_uncached

        def stalled(self, *call):
            result = original(self, *call)
            in_derivation.set()
            # Hold the derived array until the other thread has raced an
            # invalidation past this computation.
            assert invalidated.wait(timeout=10.0)
            return result

        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())

        CostModel._workgroup_cycles_uncached = stalled
        try:
            worker = threading.Thread(
                target=model.workgroup_cycles,
                args=(variant, args, WorkRange(0, 64)),
            )
            worker.start()
            assert in_derivation.wait(timeout=10.0)
            CostModel._workgroup_cycles_uncached = original
            runtime.register_pool(fast_slow_pool_build())
            invalidated.set()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        finally:
            CostModel._workgroup_cycles_uncached = original

        # The worker's insert must have been dropped on the floor.
        for key in list(_memo_keys()):
            assert key[0] != doomed

    def test_generation_bump_without_race_still_caches(self, quiet_config):
        """Sanity: with no interleaved invalidation the insert lands."""
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats()["entries"] == 1


def _with_footprint_bytes(variant: KernelVariant, footprint: float) -> KernelVariant:
    """``variant`` with a constant footprint on its ``x`` access."""
    accesses = tuple(
        dataclasses.replace(access, footprint_bytes=footprint)
        if access.buffer == "x"
        else access
        for access in variant.ir.accesses
    )
    return dataclasses.replace(variant, ir=variant.ir.with_(accesses=accesses))


class TestConstantFootprints:
    def test_footprint_bytes_keeps_an_ir_statically_priced(self):
        variant = _with_footprint_bytes(make_axpy_variant("v"), 4096.0)
        assert statically_priced(variant.ir)

    def test_footprint_value_is_part_of_the_key_and_the_cost(
        self, quiet_config
    ):
        """IRs differing only in ``footprint_bytes`` never share an entry."""
        model = CostModel(make_cpu(quiet_config))
        base = make_axpy_variant("v", AccessPattern.GATHER, trips=16)
        small = _with_footprint_bytes(base, 1024.0)
        large = _with_footprint_bytes(base, 1e9)
        args = make_axpy_args(32, quiet_config)
        units = WorkRange(0, 32)
        assert ir_hash(small.ir) != ir_hash(large.ir)
        assert model._memo_key(small, args, units) != model._memo_key(
            large, args, units
        )
        small_cycles = model.workgroup_cycles(small, args, units)
        large_cycles = model.workgroup_cycles(large, args, units)
        assert cost_memo_stats() == {"entries": 2, "hits": 0, "misses": 2}
        assert not np.array_equal(small_cycles, large_cycles)

    @pytest.mark.parametrize("case_id", ["sgemm", "stencil", "kmeans", "cutcp"])
    def test_memo_hits_match_uncached_and_closure_pricing(self, case_id):
        """Catalog cases with constant footprints hit the memo exactly.

        A hit equals the uncached derivation bit for bit, and both equal
        pricing the same IR with the footprint written as an evaluator
        closure (the form these workloads used before the static field).
        """
        from tests.differential.test_differential import build_case

        case, device, _config = build_case(case_id)
        model = CostModel(device)
        args = case.fresh_args()
        units = WorkRange(0, case.workload_units)
        assert any(
            access.footprint_bytes is not None
            for variant in case.pool.variants
            for access in variant.ir.accesses
        )
        for variant in case.pool.variants:
            assert statically_priced(variant.ir), variant.name
            cold = model.workgroup_cycles(variant, args, units)
            hits = cost_memo_stats()["hits"]
            warm = model.workgroup_cycles(variant, args, units)
            assert cost_memo_stats()["hits"] == hits + 1, variant.name
            uncached = model._workgroup_cycles_uncached(variant, args, units)
            assert np.array_equal(warm, cold) and np.array_equal(warm, uncached)
            closures = tuple(
                dataclasses.replace(
                    access,
                    footprint_bytes=None,
                    footprint_hint=lambda a, ids, b=access.footprint_bytes: (
                        np.full(ids.shape, b)
                    ),
                )
                if access.footprint_bytes is not None
                else access
                for access in variant.ir.accesses
            )
            closure_variant = dataclasses.replace(
                variant, ir=variant.ir.with_(accesses=closures)
            )
            assert np.array_equal(
                warm,
                model._workgroup_cycles_uncached(closure_variant, args, units),
            ), variant.name


class TestOneTripEvaluation:
    def test_each_data_dependent_bound_runs_once_per_pricing_call(
        self, quiet_config
    ):
        """Flops, every access scope and loop bookkeeping share one
        evaluation of each loop bound."""
        calls = {"outer": 0, "inner": 0}

        def counting(name, value):
            def evaluator(args, unit_ids):
                calls[name] += 1
                return np.full(np.asarray(unit_ids).size, value)

            return evaluator

        ir = KernelIR(
            loops=(
                Loop("outer", LoopBound(evaluator=counting("outer", 3.0))),
                Loop("mid", LoopBound(static_trips=2)),
                Loop("inner", LoopBound(evaluator=counting("inner", 5.0))),
            ),
            accesses=(
                MemoryAccess(
                    "x", False, AccessPattern.UNIT_STRIDE, 4.0, loop="inner"
                ),
                MemoryAccess(
                    "x",
                    False,
                    AccessPattern.GATHER,
                    4.0,
                    scope=("outer", "inner"),
                ),
                MemoryAccess(
                    "y", True, AccessPattern.UNIT_STRIDE, 4.0, loop="outer"
                ),
            ),
            flops_per_trip=2.0,
        )
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(8, quiet_config)
        ids = np.arange(8, dtype=np.int64)
        breakdown = model.unit_costs(ir, args, ids)
        assert calls == {"outer": 1, "inner": 1}
        model.unit_costs(ir, args, ids)
        assert calls == {"outer": 2, "inner": 2}
        assert np.all(breakdown.compute_cycles > 0)


def _memo_keys():
    from repro.device import cost as cost_mod

    with cost_mod._MEMO_LOCK:
        return list(cost_mod._COST_MEMO.keys())
