"""The three serving workloads over the 10-workload replay catalog.

Each workload builds its cases, fleet and store during set-up, then
yields *chunks*: a scheduler plus a list of requests with fresh argument
buffers.  Building a chunk happens outside the timed region; only the
``LaunchScheduler.launch`` calls are timed, and outputs are checked after
the chunk, also outside the timed region.

- ``catalog-warm``: one warmed store on 2 CPUs, 1 client.  A chunk is a
  round with one request per workload class in seeded order; every
  request is a store hit.
- ``catalog-cold``: the same rounds, each on a fresh scheduler with an
  empty store and an emptied cost memo, which is how a fresh process
  starts; every request is a store miss.
- ``tenant-storm``: the three-tenant mix on 1 CPU + 1 GPU, a single
  admission slot and 2 client threads.  A chunk is one seeded storm on a
  fresh scheduler with an empty store, so profiling, leases, store reads
  and writes, admission waits and placement on both kinds all interleave.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import ReproConfig
from repro.device import make_cpu, make_gpu
from repro.device.cost import clear_cost_memo
from repro.harness.runner import run_pure
from repro.serve import (
    LaunchScheduler,
    QoSConfig,
    ServeRequest,
    TenantSpec,
    derive_signature,
    device_kind_from_key,
)
from repro.traffic import (
    DEFAULT_WORKLOADS,
    BurstyArrivals,
    FixedSizes,
    LognormalSizes,
    ParetoSizes,
    PoissonArrivals,
    TenantProfile,
    TrafficGenerator,
    TrafficReplayer,
)
from repro.workloads.base import BenchmarkCase

#: Size buckets (replay units) the catalog workloads are drawn at.  The
#: catalog clamps each workload into its own range, so several buckets
#: can land on one workload class (e.g. every sgemm bucket); these three
#: give 19 classes.  An odd class count puts a balanced round's median
#: inside one class's latencies instead of on the gap between two.
CATALOG_BUCKETS = (256, 1024, 2048)

#: Size buckets the storm's heavy-tailed draws can land on
#: (:func:`repro.traffic.bucket_units` of draws clamped to 512..2048),
#: plus the interactive tenant's fixed 256.
STORM_BUCKETS = (256, 512, 1024, 2048)

#: Simulated seconds of arrivals per storm; about 200 requests.
STORM_HORIZON = 10.0

#: Deadline budget of the interactive tenant, in fleet cycles.
STORM_DEADLINE_CYCLES = 1.0e7


def tenant_mix() -> Tuple[TenantProfile, ...]:
    """The three-tenant storm of ``benchmarks/bench_traffic.py``.

    Copied rather than imported so that a change to that script's mix
    does not silently change this benchmark's workload.
    """
    return (
        TenantProfile(
            "interactive",
            PoissonArrivals(rate=10.0),
            FixedSizes(256),
            workloads=("kmeans",),
            priority=0,
            deadline_cycles=STORM_DEADLINE_CYCLES,
        ),
        TenantProfile(
            "batch",
            BurstyArrivals(burst_rate=16.0, mean_burst=1.0, mean_gap=1.5),
            ParetoSizes(1.1, min_units=512, max_units=2048),
            workloads=(
                "histogram",
                "cutcp",
                "spmv-csr/random",
                "spmv-csr/diagonal",
            ),
            weights=(0.3, 0.3, 0.2, 0.2),
            priority=1,
        ),
        TenantProfile(
            "background",
            PoissonArrivals(rate=3.0),
            LognormalSizes(
                median=1024, sigma=1.0, min_units=512, max_units=2048
            ),
            workloads=("spmv-jds", "spmv-jds/schedule", "stencil"),
            priority=2,
        ),
    )


@dataclasses.dataclass
class Item:
    """One request of a chunk, with what is needed to check it."""

    workload: str
    bucket: int
    case: BenchmarkCase
    request: ServeRequest


@dataclasses.dataclass
class Chunk:
    """Requests served back to back by one scheduler."""

    scheduler: LaunchScheduler
    items: List[Item]


@dataclasses.dataclass
class Result:
    """One served request, reduced to what the metrics read.

    Argument buffers and outcomes are dropped once checked, so a long run
    holds no more memory than a short one.
    """

    workload: str
    bucket: int
    case: BenchmarkCase
    latency_ns: int
    #: What ``launch`` raised (``None`` when it returned).
    error: Optional[Exception]
    #: Returned, and the outputs passed the case's check.
    ok: bool
    workload_class: str = ""
    latency_cycles: float = 0.0


class Workload:
    """Shared set-up and serving; subclasses define fleet and chunks."""

    name = ""
    clients = 1
    buckets: Tuple[int, ...] = CATALOG_BUCKETS
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    #: Chunks whose simulated figures form the run's simulated metrics.
    #: A fixed prefix, so those figures do not depend on host speed.
    sim_chunks = 1

    def __init__(self, seed: int) -> None:
        self.config = ReproConfig()
        self.rng = np.random.default_rng([seed, 0x5E1])
        self.seed = seed
        self.replayer: Optional[TrafficReplayer] = None
        self.pools: Dict[str, object] = {}
        self.scheduler: Optional[LaunchScheduler] = None
        #: Class key -> (workload, bucket) entries that land on it.
        self.classes: Dict[str, List[Tuple[str, int]]] = {}

    # -- set-up ---------------------------------------------------------

    def devices(self):
        return (make_cpu(self.config), make_cpu(self.config))

    def new_scheduler(self) -> LaunchScheduler:
        """A fresh fleet with every catalog pool registered, empty store."""
        scheduler = LaunchScheduler(
            self.devices(), config=self.config, qos=self.qos()
        )
        for pool in self.pools.values():
            scheduler.register_pool(pool)
        return scheduler

    def qos(self) -> Optional[QoSConfig]:
        return None

    def setup(self) -> Dict[str, float]:
        """Build everything from scratch; return per-phase host seconds."""
        clear_cost_memo()
        t0 = time.perf_counter()
        self.replayer = TrafficReplayer(self.config)
        self.pools = {}
        # Register in catalog order so the pool that wins a shared name
        # (spmv-jds and spmv-jds/schedule are both ``spmv_jds``) never
        # depends on the seed.
        for workload in self.workloads:
            for bucket in self.buckets:
                case = self.replayer.case_for(workload, bucket)
                self.pools.setdefault(case.pool.name, case.pool)
        t1 = time.perf_counter()
        self.scheduler = self.new_scheduler()
        t2 = time.perf_counter()
        # Benchmark bookkeeping, not set-up work: which entries share a
        # workload class on a CPU.
        self.classes = {}
        for workload in self.workloads:
            for bucket in self.buckets:
                case = self.replayer.case_for(workload, bucket)
                key = derive_signature(
                    case.pool.name,
                    "cpu",
                    case.fresh_args(),
                    case.workload_units,
                ).key
                self.classes.setdefault(key, []).append((workload, bucket))
        t3 = time.perf_counter()
        self.warm()
        t4 = time.perf_counter()
        return {"cases_s": t1 - t0, "register_s": t2 - t1, "warm_s": t4 - t3}

    def warm(self) -> None:
        """Fill the store during set-up (only the warm workload does)."""

    def item(self, workload: str, bucket: int, **fields) -> Item:
        """A request for one catalog entry, with fresh argument buffers."""
        case = self.replayer.case_for(workload, bucket)
        request = ServeRequest(
            kernel=case.pool.name,
            args=case.fresh_args(),
            workload_units=case.workload_units,
            **fields,
        )
        return Item(workload, bucket, case, request)

    def class_round(self) -> List[Item]:
        """One request per workload class, in seeded order.

        A class several entries land on is served by one of them, picked
        by the seed, so every catalog workload still gets requests.
        """
        picks = [
            members[int(self.rng.integers(len(members)))]
            for members in self.classes.values()
        ]
        return [self.item(*picks[i]) for i in self.rng.permutation(len(picks))]

    def chunks(self) -> Iterator[Chunk]:
        raise NotImplementedError

    # -- serving ----------------------------------------------------------

    def serve(self, chunk: Chunk) -> Tuple[List[Result], int]:
        """Serve a chunk closed-loop; return results and wall nanoseconds."""
        items = chunk.items
        served: List[Tuple[int, object]] = [(0, None)] * len(items)
        launch = chunk.scheduler.launch
        clock = time.perf_counter_ns

        def one(index: int) -> None:
            start = clock()
            try:
                outcome = launch(items[index].request)
            except Exception as exc:  # counted as a failed request
                outcome = exc
            served[index] = (clock() - start, outcome)

        start = clock()
        if self.clients == 1:
            for index in range(len(items)):
                one(index)
        else:
            pending = iter(range(len(items)))
            lock = threading.Lock()

            def client() -> None:
                while True:
                    with lock:
                        index = next(pending, None)
                    if index is None:
                        return
                    one(index)

            threads = [
                threading.Thread(target=client) for _ in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = clock() - start
        results = []
        for item, (latency_ns, outcome) in zip(items, served):
            result = Result(
                item.workload, item.bucket, item.case, latency_ns, None, False
            )
            if isinstance(outcome, Exception):
                result.error = outcome
            else:
                result.ok = item.case.validate(item.request.args)
                result.workload_class = outcome.workload_class
                result.latency_cycles = outcome.latency_cycles
            results.append(result)
        return results, wall


class CatalogWarm(Workload):
    """Every request reads a store warmed during set-up."""

    name = "catalog-warm"
    sim_chunks = 40

    def warm(self) -> None:
        for members in self.classes.values():
            workload, bucket = members[0]
            self.scheduler.launch(self.item(workload, bucket).request)

    def chunks(self) -> Iterator[Chunk]:
        while True:
            yield Chunk(self.scheduler, self.class_round())


class CatalogCold(Workload):
    """Every request is the first of its class on a fresh scheduler."""

    name = "catalog-cold"
    # A pass is only 19 requests on 2 CPUs, so its makespan depends on
    # how the order splits them; 60 passes average that out.
    sim_chunks = 60

    def chunks(self) -> Iterator[Chunk]:
        scheduler = self.scheduler
        while True:
            if scheduler is None:
                clear_cost_memo()
                scheduler = self.new_scheduler()
            yield Chunk(scheduler, self.class_round())
            scheduler = None


class TenantStorm(Workload):
    """The bursty three-tenant mix through one admission slot."""

    name = "tenant-storm"
    clients = 2
    buckets = STORM_BUCKETS
    sim_chunks = 12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.tenants = tenant_mix()
        self.workloads = tuple(
            dict.fromkeys(w for t in self.tenants for w in t.workloads)
        )

    def devices(self):
        return (make_cpu(self.config), make_gpu(self.config))

    def qos(self) -> QoSConfig:
        return QoSConfig(
            tenants=tuple(
                TenantSpec(
                    t.name,
                    priority=t.priority,
                    weight=t.weight,
                    deadline_cycles=t.deadline_cycles,
                )
                for t in self.tenants
            ),
            max_inflight=1,
        )

    def chunks(self) -> Iterator[Chunk]:
        scheduler = self.scheduler
        storm = 0
        while True:
            if scheduler is None:
                scheduler = self.new_scheduler()
            schedule = TrafficGenerator(
                self.tenants,
                seed=(self.seed * 1_000_003 + storm) & 0xFFFFFFFF,
                horizon=STORM_HORIZON,
            ).generate()
            items = [
                self.item(
                    row.workload,
                    row.units,
                    tenant=row.tenant,
                    priority=row.priority,
                    deadline_cycles=row.deadline_cycles,
                )
                for row in schedule.requests
            ]
            yield Chunk(scheduler, items)
            scheduler = None
            storm += 1


WORKLOADS = {w.name: w for w in (CatalogWarm, CatalogCold, TenantStorm)}


class Oracle:
    """Pure-variant cycles per workload class, priced noise-free.

    Runs outside every timed region and outside ``setup_s``.  A class is
    priced once per run on a fresh device of its kind (the kind is part
    of the class key), with the pool the fleet actually registered, for
    one launch, as served.
    """

    def __init__(self, config: ReproConfig, pools: Dict[str, object]):
        self.config = config.without_noise()
        self.pools = pools
        self._cycles: Dict[str, Dict[str, float]] = {}

    def cycles(self, key: str, case: BenchmarkCase) -> Dict[str, float]:
        """Cycles of every registered variant for one launch of ``key``."""
        if key not in self._cycles:
            pool = self.pools[case.pool.name]
            one = dataclasses.replace(case, pool=pool, iterations=1)
            make = make_gpu if device_kind_from_key(key) == "gpu" else make_cpu
            self._cycles[key] = {
                name: run_pure(
                    one, make(self.config), name, self.config
                ).elapsed_cycles
                for name in pool.variant_names
            }
        return self._cycles[key]

    def best_cycles(self, key: str, case: BenchmarkCase) -> float:
        return min(self.cycles(key, case).values())

    def is_best(self, key: str, case: BenchmarkCase, variant: str) -> bool:
        """Whether ``variant`` ties the fastest pure variant for ``key``."""
        return self.cycles(key, case)[variant] == self.best_cycles(key, case)
