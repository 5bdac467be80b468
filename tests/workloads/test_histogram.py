"""Tests for the histogram workload (swap-mode showcase)."""

import pytest

from repro.config import ReproConfig
from repro.device import make_gpu
from repro.harness.runner import evaluate_case, run_pure
from repro.modes import OrchestrationFlow, ProfilingMode
from repro.workloads import histogram

ELEMS = 1 << 17


@pytest.fixture(scope="module")
def config():
    return ReproConfig()


class TestChecker:
    @pytest.mark.parametrize("distribution", ["uniform", "skewed"])
    def test_one_input_build_per_case_and_corruption_is_rejected(
        self, distribution, config, monkeypatch
    ):
        """The checker's reference comes from the case's own frozen
        ``data``: building a case runs the argument factory once, and a
        check still rejects a corrupted ``hist``."""
        builds = []
        factory = histogram.make_args_factory

        def counting_factory(*args, **kwargs):
            builds.append(args)
            return factory(*args, **kwargs)

        monkeypatch.setattr(histogram, "make_args_factory", counting_factory)
        case = histogram.swap_case(distribution, ELEMS, config)
        assert len(builds) == 1
        args = case.fresh_args()
        assert not case.validate(args)
        histogram._executor(args, 0, case.workload_units)
        assert case.validate(args)
        args["hist"].data[7] += 1
        assert not case.validate(args)
        args["hist"].data[7] -= 1
        assert case.validate(args)


class TestFunctional:
    @pytest.mark.parametrize("distribution", ["uniform", "skewed"])
    def test_both_variants_correct(self, distribution, config):
        case = histogram.swap_case(distribution, ELEMS, config)
        gpu = make_gpu(config)
        for name in case.pool.variant_names:
            assert run_pure(case, gpu, name, config).valid, name

    def test_atomics_force_swap_mode(self, config):
        case = histogram.swap_case("uniform", ELEMS, config)
        assert case.pool.mode is ProfilingMode.SWAP

    def test_swap_profiled_run_is_exact(self, config):
        """Swap-mode DySel must not double- or under-count any element."""
        case = histogram.swap_case("uniform", ELEMS, config)
        gpu = make_gpu(config)
        evaluation = evaluate_case(case, gpu, config, dysel_flows=("sync",))
        assert evaluation.dysel["sync"].valid

    def test_async_falls_back_to_sync(self, config):
        from repro.harness.runner import run_dysel

        case = histogram.swap_case("uniform", ELEMS, config)
        gpu = make_gpu(config)
        result = run_dysel(case, gpu, flow=OrchestrationFlow.ASYNC, config=config)
        assert result.valid
        assert result.eager_chunks == 0  # sync fallback never eagers


class TestInputDependence:
    def test_winner_flips_with_distribution(self, config):
        gpu = make_gpu(config)
        uniform = histogram.swap_case("uniform", ELEMS, config)
        skewed = histogram.swap_case("skewed", ELEMS, config)
        uni = {
            name: run_pure(uniform, gpu, name, config).elapsed_cycles
            for name in uniform.pool.variant_names
        }
        skw = {
            name: run_pure(skewed, gpu, name, config).elapsed_cycles
            for name in skewed.pool.variant_names
        }
        assert uni["atomic"] < uni["privatized"]
        assert skw["privatized"] < skw["atomic"]

    def test_dysel_adapts(self, config):
        gpu = make_gpu(config)
        for dist, expected in (("uniform", "atomic"), ("skewed", "privatized")):
            case = histogram.swap_case(dist, ELEMS, config)
            evaluation = evaluate_case(case, gpu, config, dysel_flows=("sync",))
            assert evaluation.dysel["sync"].selected == expected
