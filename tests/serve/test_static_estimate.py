"""Per-device cost estimates in the serve scheduler (dispatch balance).

A cold class costs the device's observed mean launch until the store
measures it.
"""

import dataclasses

from repro.config import AnalyzeSettings, ReproConfig
from repro.device import make_cpu
from repro.serve import LaunchScheduler, SelectionStore, ServeRequest
from tests.conftest import (
    axpy_output_ok,
    fast_slow_pool_build,
    make_axpy_args,
)

UNITS = 512


def make_scheduler(config, devices=2, **kwargs):
    scheduler = LaunchScheduler(
        tuple(make_cpu(config) for _ in range(devices)),
        config=config,
        **kwargs,
    )
    scheduler.register_pool(fast_slow_pool_build())
    return scheduler


def batch(config, size=8):
    return [
        ServeRequest(
            kernel="axpy",
            args=make_axpy_args(UNITS, config),
            workload_units=UNITS,
        )
        for _ in range(size)
    ]


class TestWorkerEstimate:
    def _worker(self):
        return make_scheduler(ReproConfig().without_noise())._workers[0]

    def test_known_cost_wins(self):
        worker = self._worker()
        worker.complete(0.0, 500.0)
        assert worker.estimate_cost(123.0) == 123.0

    def test_observed_mean_when_no_prior(self):
        worker = self._worker()
        worker.complete(0.0, 400.0)
        worker.complete(0.0, 600.0)
        assert worker.estimate_cost(None) == 500.0

    def test_zero_before_any_signal(self):
        assert self._worker().estimate_cost(None) == 0.0


class TestServedBatch:
    def test_batch_with_store_serves_correctly(self):
        config = ReproConfig().without_noise()
        scheduler = make_scheduler(config, store=SelectionStore())
        requests = batch(config)
        outcomes = scheduler.serve_all(requests, clients=4)
        assert sum(o.profiled for o in outcomes) == 1
        for request in requests:
            assert axpy_output_ok(request.args)

    def test_infinite_margin_profiles_the_full_pool(self):
        config = dataclasses.replace(
            ReproConfig().without_noise(),
            analyze=AnalyzeSettings(dominance_margin=float("inf")),
        )
        scheduler = make_scheduler(config, store=SelectionStore())
        outcomes = scheduler.serve_all(batch(config), clients=4)
        profiled = [o for o in outcomes if o.profiled]
        assert len(profiled) == 1
        measured = profiled[0].result.record.measurements
        assert {m.variant for m in measured} == {"fast", "slow"}
