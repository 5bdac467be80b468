"""Overload end-to-end: backpressure defers profiling, nothing starves,
and the selection store still converges to the oracle once pressure
clears."""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import ReproConfig
from repro.device import make_cpu
from repro.errors import AdmissionRejected
from repro.obs.events import EventKind
from repro.obs.export import reconcile, summarize
from repro.serve import (
    LaunchScheduler,
    ProfileLeaseTable,
    QoSConfig,
    SelectionStore,
    ServeRequest,
    TenantSpec,
)
from repro.traffic import (
    BurstyArrivals,
    FixedSizes,
    PoissonArrivals,
    TenantProfile,
    TrafficGenerator,
    TrafficReplayer,
)

from tests.conftest import (
    axpy_output_ok,
    fast_slow_pool_build,
    make_axpy_args,
)
from tests.traffic.conftest import axpy_catalog

#: Three distinct workload classes, all above the small-workload
#: threshold (128 work-groups) so cold launches really would profile.
CLASS_UNITS = (128, 256, 512)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.001)
    raise AssertionError("condition not reached in time")


def make_scheduler(config, store=None, qos=None, devices=1, streams=1):
    scheduler = LaunchScheduler(
        tuple(make_cpu(config) for _ in range(devices)),
        config=config,
        store=store,
        streams_per_device=streams,
        qos=qos,
    )
    scheduler.register_pool(fast_slow_pool_build())
    return scheduler


def request_for(config, units, **kwargs):
    return ServeRequest(
        kernel="axpy",
        args=make_axpy_args(units, config),
        workload_units=units,
        **kwargs,
    )


def always_deferring():
    """The permanently-deferring QoS arm (profiling off under load)."""
    return QoSConfig(defer_watermark=0.0, resume_watermark=0.0)


class TestBackpressureDefersEveryLease:
    def test_cold_classes_defer_instead_of_profiling(self, config):
        scheduler = make_scheduler(config, qos=always_deferring())
        outcomes = [
            scheduler.launch(request_for(config, units))
            for units in CLASS_UNITS
        ]
        for outcome in outcomes:
            assert outcome.deferred
            assert outcome.lease == ProfileLeaseTable.DEFERRED
            assert not outcome.profiled
            assert not outcome.store_hit
            assert "deferred by backpressure" in outcome.result.reason
            assert axpy_output_ok(outcome.request.args)
        # No lease entries, no published selections: the classes stay
        # cold so profiling can resume once pressure clears.
        assert len(scheduler.leases) == 0
        assert len(scheduler.store) == 0
        assert scheduler.stats.profiles_deferred == len(CLASS_UNITS)

    def test_deferred_instants_traced_and_reconcile_clean(self):
        config = ReproConfig(trace=True)
        scheduler = make_scheduler(config, qos=always_deferring())
        for units in CLASS_UNITS:
            scheduler.launch(request_for(config, units, tenant="t0"))
        events = [
            e
            for e in scheduler.tracer.events
            if e.kind is EventKind.PROFILE_DEFERRED
        ]
        assert len(events) == len(CLASS_UNITS)
        for event in events:
            assert event.args["what"] == "micro-profile"
            assert event.args["tenant"] == "t0"
            assert "workload_class" in event.args
            assert event.args["pressure"] >= 0.0
        assert reconcile(scheduler.tracer.events) == []
        summary = summarize(scheduler.tracer.events)
        assert summary.profile_deferrals == len(CLASS_UNITS)
        assert summary.admissions == len(CLASS_UNITS)

    def test_warm_class_still_serves_from_store(self, config):
        store = SelectionStore()
        warm = make_scheduler(config, store=store)
        warm.launch(request_for(config, CLASS_UNITS[0]))
        assert len(store) == 1

        pressured = make_scheduler(
            config, store=store, qos=always_deferring()
        )
        outcome = pressured.launch(request_for(config, CLASS_UNITS[0]))
        assert outcome.store_hit
        assert not outcome.deferred
        assert pressured.stats.profiles_deferred == 0


class TestStoreConvergesAfterPressureClears:
    def test_deferred_then_drained_matches_oracle(self, config):
        # Oracle: a clean fleet with no QoS serves the same classes.
        oracle_store = SelectionStore()
        oracle = make_scheduler(config, store=oracle_store)
        for units in CLASS_UNITS:
            outcome = oracle.launch(request_for(config, units))
            assert outcome.profiled
        oracle_map = {
            key: oracle_store.lookup(key).selected
            for key in oracle_store.keys()
        }
        assert set(oracle_map.values()) == {"fast"}

        # Overload phase: everything defers, nothing is published.
        store = SelectionStore()
        pressured = make_scheduler(
            config, store=store, qos=always_deferring()
        )
        for units in CLASS_UNITS:
            assert pressured.launch(request_for(config, units)).deferred
        assert len(store) == 0

        # Pressure cleared: a QoS-free scheduler over the same store
        # profiles the still-cold classes and lands on the oracle.
        drained = make_scheduler(config, store=store)
        for units in CLASS_UNITS:
            outcome = drained.launch(request_for(config, units))
            assert outcome.profiled
        assert {
            key: store.lookup(key).selected for key in store.keys()
        } == oracle_map

    def test_hysteresis_resumes_profiling_in_one_scheduler(self, config):
        """Same scheduler: deferring under queue pressure, profiling
        again after the queue drains below the resume watermark."""
        qos = QoSConfig(
            max_queue_depth=4,
            max_inflight=1,
            defer_watermark=0.5,
            resume_watermark=0.0,
        )
        scheduler = make_scheduler(config, qos=qos)
        barrier = threading.Barrier(4)
        outcomes = []
        lock = threading.Lock()

        def client(units):
            barrier.wait()
            outcome = scheduler.launch(request_for(config, units))
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=client, args=(CLASS_UNITS[0],))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 4

        # Queue empty again: the next cold class profiles normally.
        assert not scheduler.admission.deferring
        outcome = scheduler.launch(request_for(config, CLASS_UNITS[1]))
        assert outcome.profiled
        assert not outcome.deferred


class TestNoStarvationUnderPriorityLoad:
    def test_low_priority_tenant_completes(self, config):
        qos = QoSConfig(
            tenants=(
                TenantSpec("fg", priority=0),
                TenantSpec("bg", priority=9),
            ),
            max_queue_depth=32,
            max_inflight=1,
            max_bypass=2,
        )
        scheduler = make_scheduler(config, qos=qos)
        done = []
        lock = threading.Lock()

        def serve(tenant):
            outcome = scheduler.launch(
                request_for(config, CLASS_UNITS[0], tenant=tenant)
            )
            with lock:
                done.append(outcome.tenant)

        # Occupy the single slot so every client queues, making the
        # admission order a pure function of the controller's policy.
        scheduler.admission.admit("holder", priority=0, weight=1.0)
        threads = [threading.Thread(target=serve, args=("bg",))]
        threads[0].start()
        wait_until(lambda: scheduler.admission.snapshot()["waiting"] == 1)
        threads += [
            threading.Thread(target=serve, args=("fg",)) for _ in range(12)
        ]
        for t in threads[1:]:
            t.start()
        wait_until(lambda: scheduler.admission.snapshot()["waiting"] == 13)
        scheduler.admission.release("holder")
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert done.count("bg") == 1
        assert done.count("fg") == 12
        assert scheduler.stats.tenant("bg").requests == 1
        # Strict priority alone would finish bg dead last; after two
        # bypasses it ages (max_bypass=2) and, as the longest-waiting
        # aged request, beats the remaining foreground queue.
        assert done.index("bg") == 2


class TestBurstyManyClientTrace:
    def test_16_clients_reconcile_clean(self):
        config = ReproConfig(trace=True)
        tenants = (
            TenantProfile(
                "interactive",
                PoissonArrivals(4.0),
                FixedSizes(8),
                workloads=("axpy",),
                priority=0,
                deadline_cycles=1e9,
            ),
            TenantProfile(
                "burst",
                BurstyArrivals(
                    burst_rate=12.0, mean_burst=1.0, mean_gap=2.0
                ),
                FixedSizes(32),
                workloads=("axpy",),
                priority=1,
            ),
        )
        schedule = TrafficGenerator(tenants, seed=23, horizon=6.0).generate()
        assert schedule.count() >= 16
        replayer = TrafficReplayer(config, catalog=axpy_catalog())
        requests = replayer.serve_requests(schedule)

        qos = QoSConfig(
            tenants=tuple(
                TenantSpec(
                    t.name,
                    priority=t.priority,
                    deadline_cycles=t.deadline_cycles,
                )
                for t in tenants
            ),
            max_queue_depth=8,
            defer_watermark=0.5,
            resume_watermark=0.25,
        )
        scheduler = make_scheduler(config, qos=qos, devices=2, streams=2)
        rejected = []
        lock = threading.Lock()
        work = list(requests)

        def client():
            while True:
                with lock:
                    if not work:
                        return
                    request = work.pop()
                try:
                    scheduler.launch(request)
                except AdmissionRejected:
                    with lock:
                        rejected.append(request)

        threads = [threading.Thread(target=client) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads)

        served = len(requests) - len(rejected)
        assert served + len(rejected) == schedule.count()
        assert scheduler.stats.requests == served
        assert scheduler.stats.admission_rejects == len(rejected)
        assert reconcile(scheduler.tracer.events) == []
        summary = summarize(scheduler.tracer.events)
        assert summary.admissions == served
        assert summary.admission_rejects == len(rejected)
        assert summary.serve_enqueued == served
