"""Orchestration flows: synchronous and asynchronous DySel (paper §2.4).

Both flows submit every candidate's micro-profile at PROFILING priority on
its own stream (concurrent profiling, §3.3) and finish by processing the
remaining workload with the winner.  They differ in what happens in
between:

* **sync** (Fig 4a) — a device barrier waits for the *slowest* candidate;
  execution units sit idle meanwhile (Fig 5a), so a pathological candidate
  inflates overhead (§5.1's sgemm case: 8% sync vs <5% async).
* **async** (Fig 4b) — eager execution starts immediately with the
  suggested initial default, dispatched in chunks at EAGER priority so
  profiling keeps precedence; each poll of profiling status costs host
  query latency, and the current best is updated as candidates finish
  (the ¹–» steps of Fig 4b).  On the GPU the query latency exceeds the
  micro-profile time, so few or zero eager chunks dispatch and async
  degenerates to sync — the §5.1 observation, reproduced mechanically.
  While no eager chunk can dispatch, a poll round that reads nothing
  done repeats unchanged, so the flow hands the engine the whole idle
  stretch: :meth:`ExecutionEngine.poll` fast-forwards it with the clock,
  queries and trace of a poll-by-poll run.

Both flows are *hardened* against variant faults (:mod:`repro.faults`),
and there is one code path per flow: every submission runs behind
transient retries with capped backoff, every wait carries a hang
deadline, and a candidate that crashes / corrupts / hangs is dropped
from selection with its productive slice queued for repair by a
surviving variant.  Only a fault injector can hang a task, so without
one the hang deadline is unbounded (:func:`_hang_deadline`) and every
wait is a plain drain — a clean launch never faults, so the retry,
repair and fallback steps are no-ops on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..compiler.variants import VariantPool
from ..config import ReproConfig
from ..device.engine import ExecutionEngine, Priority, TaskHandle
from ..device.stream import Stream
from ..errors import (
    ProfilingError,
    ProfilingFaultError,
    TransientDeviceFault,
    VariantFault,
)
from ..faults.plan import FaultRecord
from ..kernel.kernel import WorkRange
from ..kernel.launch import LaunchConfig
from ..modes import OrchestrationFlow
from ..obs.events import EventKind
from .productive import ProfilingPlan
from .selection import SelectionRecord, VariantMeasurement

#: Host cycles charged for comparing candidate times and updating the
#: selection (an atomic min plus bookkeeping).
SELECTION_COMPARE_CYCLES = 200.0

#: Eager chunks kept in flight during asynchronous profiling.  Small so a
#: selection update takes effect quickly; large enough to keep vacant
#: execution units fed between polls.
MAX_OUTSTANDING_EAGER_CHUNKS = 2


@dataclass
class OrchestrationResult:
    """Timing and selection outcome of one orchestrated launch."""

    record: SelectionRecord
    start_cycles: float
    profiling_done_cycles: float
    end_cycles: float
    eager_chunks: int = 0
    eager_units: int = 0
    #: Variant faults handled (and survived) during this launch.
    faults: Tuple[FaultRecord, ...] = ()
    #: Workload units re-run by a survivor after a productive-slice fault.
    repaired_units: int = 0

    @property
    def elapsed_cycles(self) -> float:
        """Wall time of the whole launch (profiling + remainder)."""
        return self.end_cycles - self.start_cycles

    @property
    def profiling_latency_cycles(self) -> float:
        """Time until the selection was final."""
        return self.profiling_done_cycles - self.start_cycles


def _note_fault(
    engine: ExecutionEngine,
    faults: List[FaultRecord],
    kernel: str,
    variant: str,
    kind: str,
    stage: str,
    attempts: int = 1,
    message: str = "",
) -> None:
    """Record one handled fault and emit its ``FAULT_INJECT`` event."""
    faults.append(
        FaultRecord(
            kernel=kernel,
            variant=variant,
            kind=kind,
            stage=stage,
            at_cycles=engine.now,
            attempts=attempts,
            message=message,
        )
    )
    if engine.tracer.enabled:
        engine.tracer.instant(
            EventKind.FAULT_INJECT,
            variant,
            engine.now,
            fault_kind=kind,
            stage=stage,
            attempts=attempts,
            message=message,
        )


def _note_fault_exc(
    engine: ExecutionEngine,
    faults: List[FaultRecord],
    kernel: str,
    exc: VariantFault,
    stage: str,
) -> None:
    """Record a raised :class:`VariantFault` (see :func:`_note_fault`)."""
    _note_fault(
        engine,
        faults,
        kernel,
        exc.variant,
        exc.kind or type(exc).__name__,
        stage,
        attempts=getattr(exc, "attempts", 1),
        message=str(exc),
    )


def _retry_transients(
    engine: ExecutionEngine,
    config: ReproConfig,
    variant_name: str,
    stage: str,
    submit: Callable[[], TaskHandle],
) -> TaskHandle:
    """Run ``submit`` with capped exponential backoff on transient faults.

    Retries up to ``config.faults.max_retries`` times, charging the
    backoff as host time between attempts (the host really sits in a
    retry loop).  A transient that outlives the retry budget re-raises
    with its attempt count attached; other faults propagate untouched.
    """
    attempts = 1
    while True:
        try:
            return submit()
        except TransientDeviceFault as exc:
            if attempts > config.faults.max_retries:
                exc.attempts = attempts  # type: ignore[attr-defined]
                raise
            backoff = config.faults.backoff_cycles(attempts)
            if engine.tracer.enabled:
                engine.tracer.instant(
                    EventKind.FAULT_RETRY,
                    variant_name,
                    engine.now,
                    stage=stage,
                    attempt=attempts,
                    backoff_cycles=backoff,
                )
            engine.host_compute(backoff)
            attempts += 1


def _hang_deadline(engine: ExecutionEngine, config: ReproConfig) -> float:
    """Host time at which a wait started now gives a task up as hung.

    Only a fault injector can hang a task, so without one the deadline
    is unbounded: a long clean profile must never read as a hang, and
    an unbounded wait keeps the engine's exact drain available.
    """
    if engine.injector is None:
        return float("inf")
    return engine.now + config.faults.hang_deadline_cycles


def _submit_profiling(
    engine: ExecutionEngine,
    plan: ProfilingPlan,
    config: ReproConfig,
    faults: List[FaultRecord],
    repairs: List[WorkRange],
    kernel: str,
) -> Dict[str, TaskHandle]:
    """Launch every candidate's micro-profile on its own stream.

    A candidate whose submission faults permanently is skipped: its
    fault is recorded, and a productive slice it owned is queued for
    repair.  Returned handles may include hung tasks — callers must use
    deadline waits.
    """
    handles: Dict[str, TaskHandle] = {}
    for task in plan.tasks:
        stream = Stream(engine, f"profile.{task.variant.name}")

        def submit(task=task, stream=stream) -> TaskHandle:
            return stream.submit(
                task.variant,
                task.args,
                task.units,
                priority=Priority.PROFILING,
                measure=True,
            )

        try:
            handles[task.variant.name] = _retry_transients(
                engine, config, task.variant.name, "profile", submit
            )
        except VariantFault as exc:
            _note_fault_exc(engine, faults, kernel, exc, "profile")
            if task.productive:
                repairs.append(task.units)
    return handles


def _run_batch_with_fallback(
    engine: ExecutionEngine,
    pool: VariantPool,
    candidates: List[str],
    args,
    units: WorkRange,
    config: ReproConfig,
    faults: List[FaultRecord],
    stage: str,
    stream: Optional[str] = None,
) -> Optional[str]:
    """Run a unit range to completion on the first candidate that can.

    The hardened batch primitive: each candidate gets transient retries
    and a hang deadline; a candidate that faults permanently hands the
    *whole* range to the next one (a corrupt attempt's garbage is simply
    overwritten by the successor).  Returns the completing variant's
    name; raises :class:`ProfilingFaultError` when every candidate
    fails — the caller decides whether that degrades or aborts the
    launch.
    """
    if units.empty:
        return None
    tracer = engine.tracer
    for name in candidates:
        variant = pool.variant(name)

        def submit(variant=variant) -> TaskHandle:
            return engine.submit(
                variant, args, units, priority=Priority.BATCH, stream=stream
            )

        try:
            task = _retry_transients(engine, config, name, stage, submit)
        except VariantFault as exc:
            _note_fault_exc(engine, faults, pool.name, exc, stage)
            continue
        if engine.wait_deadline(task, _hang_deadline(engine, config)):
            if tracer.enabled:
                tracer.task_span(EventKind.REMAINDER_BATCH, name, task)
            return name
        engine.cancel(task)
        _note_fault(
            engine,
            faults,
            pool.name,
            name,
            "hang",
            stage,
            message=f"task exceeded the {stage} hang deadline",
        )
    raise ProfilingFaultError(
        f"kernel {pool.name!r}: no candidate could complete the {stage} "
        f"range {units} (tried {candidates})",
        faults=tuple(faults),
    )


def _fallback_order(
    pool: VariantPool, selected: str, barred: Set[str]
) -> List[str]:
    """Batch fallback chain: ``selected``, then the unbarred rest."""
    return [selected] + [
        name
        for name in pool.variant_names
        if name != selected and name not in barred
    ]


def _measurement(
    plan: ProfilingPlan, name: str, handle: TaskHandle
) -> VariantMeasurement:
    """Build a measurement from one finished profiling task."""
    if handle.measured is None:
        raise ProfilingError(
            f"profiling task for {name!r} finished without a measurement"
        )
    task = plan.task_for(name)
    return VariantMeasurement(
        variant=name,
        measured_cycles=handle.measured.measured_cycles,
        profiled_units=len(task.units),
        productive=task.productive,
    )


def run_sync(
    engine: ExecutionEngine,
    pool: VariantPool,
    plan: ProfilingPlan,
    launch: LaunchConfig,
    config: ReproConfig,
) -> OrchestrationResult:
    """Synchronous flow: profile, barrier, select, batch the remainder.

    Faulted candidates drop out of selection, their productive slices
    are repaired by a survivor, and hung candidates are cancelled at the
    hang deadline.  Zero survivors raises :class:`ProfilingFaultError`
    (sandboxes released first) so the runtime can degrade the launch.
    """
    start = engine.now
    tracer = engine.tracer
    record = SelectionRecord(
        kernel=pool.name,
        mode=plan.mode,
        flow=OrchestrationFlow.SYNC,
        variant_order=pool.variant_names,
    )
    faults: List[FaultRecord] = []
    repairs: List[WorkRange] = []
    handles = _submit_profiling(
        engine, plan, config, faults, repairs, kernel=pool.name
    )
    deadline = _hang_deadline(engine, config)
    for name in list(handles):
        if engine.wait_deadline(handles[name], deadline):
            continue
        engine.cancel(handles.pop(name))
        _note_fault(
            engine,
            faults,
            pool.name,
            name,
            "hang",
            "profile",
            message="micro-profile exceeded the hang deadline",
        )
        task = plan.task_for(name)
        if task.productive:
            repairs.append(task.units)
    if not handles:
        plan.allocator.release_all()
        raise ProfilingFaultError(
            f"kernel {pool.name!r}: every profiling candidate faulted "
            "in the synchronous flow",
            faults=tuple(faults),
        )
    for name, handle in handles.items():
        engine.host_compute(SELECTION_COMPARE_CYCLES)
        measurement = _measurement(plan, name, handle)
        record.observe(measurement)
        if tracer.enabled:
            tracer.task_span(
                EventKind.PROFILE_SPAN,
                name,
                handle,
                productive=measurement.productive,
                measured_cycles=measurement.measured_cycles,
            )
            tracer.instant(
                EventKind.SELECTION_UPDATE,
                name,
                engine.now,
                selected=record.selected,
                measured_cycles=measurement.measured_cycles,
            )
    assert record.selected is not None
    plan.finalize(record.selected, launch)
    profiling_done = engine.now

    candidates = _fallback_order(
        pool, record.selected, {fault.variant for fault in faults}
    )
    repaired_units = 0
    for units in repairs:
        _run_batch_with_fallback(
            engine, pool, candidates, launch.args, units, config, faults,
            stage="repair",
        )
        repaired_units += len(units)
    _run_batch_with_fallback(
        engine, pool, candidates, launch.args, plan.remainder, config,
        faults, stage="remainder",
    )
    return OrchestrationResult(
        record=record,
        start_cycles=start,
        profiling_done_cycles=profiling_done,
        end_cycles=engine.now,
        faults=tuple(faults),
        repaired_units=repaired_units,
    )


def run_async(
    engine: ExecutionEngine,
    pool: VariantPool,
    plan: ProfilingPlan,
    launch: LaunchConfig,
    config: ReproConfig,
    initial_variant: Optional[str] = None,
) -> OrchestrationResult:
    """Asynchronous flow: eager chunks with the current best meanwhile.

    ``initial_variant`` overrides the pool's suggested default — the knob
    the evaluation varies between "best initial selection" and "worst
    initial selection".
    """
    if not plan.mode.supports_async:
        raise ProfilingError(
            f"profiling mode {plan.mode.value!r} cannot run asynchronously: "
            "the final output space is unknown until profiling completes "
            "(paper Table 1, rule DYSEL-ASYNC-001); the launch gate should "
            "have demoted or refused this flow"
        )
    start = engine.now
    tracer = engine.tracer
    record = SelectionRecord(
        kernel=pool.name,
        mode=plan.mode,
        flow=OrchestrationFlow.ASYNC,
        variant_order=pool.variant_names,
    )
    faults: List[FaultRecord] = []
    repairs: List[WorkRange] = []
    handles = _submit_profiling(
        engine, plan, config, faults, repairs, kernel=pool.name
    )
    if not handles:
        plan.allocator.release_all()
        raise ProfilingFaultError(
            f"kernel {pool.name!r}: every profiling candidate faulted "
            "at submission in the asynchronous flow",
            faults=tuple(faults),
        )
    #: Variants that faulted this launch; barred from eager dispatch.
    blocklist: Set[str] = {fault.variant for fault in faults}

    current_best = initial_variant or pool.initial_default
    assert current_best is not None
    pool.variant(current_best)  # validate the name early

    base = pool.wa_lcm
    chunk_units = max(
        base,
        (
            config.eager_chunk_units
            * engine.device.spec.compute_units
            * base
        ),
    )

    deadline = _hang_deadline(engine, config)
    remaining = plan.remainder
    eager_chunks = 0
    eager_units = 0
    eager_tasks: List[tuple] = []
    outstanding: List[TaskHandle] = []
    pending: List[str] = [name for name in handles]

    def next_eager() -> Optional[str]:
        """The variant the next eager chunk runs; None if none can go."""
        if remaining.empty or len(outstanding) >= MAX_OUTSTANDING_EAGER_CHUNKS:
            return None
        if current_best not in blocklist:
            return current_best
        return next((n for n in pool.variant_names if n not in blocklist), None)

    while pending:
        if engine.now > deadline:
            # Whatever is still pending is hung (or starved behind a
            # hang): cancel it, queue productive slices for repair, and
            # select from the candidates that did finish.
            for name in pending:
                engine.cancel(handles[name])
                _note_fault(
                    engine,
                    faults,
                    pool.name,
                    name,
                    "hang",
                    "profile",
                    message="micro-profile exceeded the hang deadline",
                )
                blocklist.add(name)
                task = plan.task_for(name)
                if task.productive:
                    repairs.append(task.units)
            pending = []
            break
        # A round that can dispatch no eager chunk repeats unchanged
        # until a poll reads done or a chunk completes, so the engine
        # fast-forwards it (``ExecutionEngine.poll`` with a deadline).
        ready = engine.poll(
            [handles[name] for name in pending],
            watch=outstanding,
            deadline=deadline if next_eager() is None else None,
        )
        for name in [name for name, done in zip(pending, ready) if done]:
            pending.remove(name)
            engine.host_compute(SELECTION_COMPARE_CYCLES)
            measurement = _measurement(plan, name, handles[name])
            record.observe(measurement)
            assert record.selected is not None
            current_best = record.selected
            if tracer.enabled:
                tracer.task_span(
                    EventKind.PROFILE_SPAN,
                    name,
                    handles[name],
                    productive=measurement.productive,
                    measured_cycles=measurement.measured_cycles,
                )
                tracer.instant(
                    EventKind.SELECTION_UPDATE,
                    name,
                    engine.now,
                    selected=record.selected,
                    measured_cycles=measurement.measured_cycles,
                )
        # Eager dispatch is paced: keep a small number of chunks in
        # flight so the workload can switch to a better variant as soon
        # as profiling finds one (paper §2.4's "careful workload
        # management").  Completion of eager chunks is piggybacked on the
        # profiling polls already paid for above; it is read after the
        # selection compares, which advance the clock.
        outstanding = [
            task
            for task in outstanding
            if not (task.finished and task.last_end <= engine.now)
        ]
        eager_best = next_eager()
        if pending and eager_best is not None:
            chunk, rest = remaining.take(chunk_units)
            eager_variant = pool.variant(eager_best)

            def submit_eager(
                eager_variant=eager_variant, chunk=chunk
            ) -> TaskHandle:
                return engine.submit(
                    eager_variant,
                    launch.args,
                    chunk,
                    priority=Priority.EAGER,
                )

            try:
                task = _retry_transients(
                    engine, config, eager_best, "eager", submit_eager
                )
            except VariantFault as exc:
                # Chunk untouched (or overwritten later): leave it at the
                # head of ``remaining`` for another variant.
                _note_fault_exc(engine, faults, pool.name, exc, "eager")
                blocklist.add(eager_best)
                continue
            remaining = rest
            outstanding.append(task)
            eager_tasks.append((eager_chunks, eager_best, task))
            eager_chunks += 1
            eager_units += len(chunk)

    if record.selected is None:
        plan.allocator.release_all()
        raise ProfilingFaultError(
            f"kernel {pool.name!r}: every profiling candidate faulted in "
            "the asynchronous flow",
            faults=tuple(faults),
        )
    plan.finalize(record.selected, launch)
    profiling_done = engine.now

    candidates = _fallback_order(pool, record.selected, blocklist)
    _run_batch_with_fallback(
        engine, pool, candidates, launch.args, remaining, config,
        faults, stage="remainder",
    )
    engine.barrier()
    # A hung eager chunk survives the barrier (it was never scheduled):
    # cancel it and repair its range, which the winner re-runs below.
    for index, variant_name, task in list(eager_tasks):
        if task.finished:
            continue
        engine.cancel(task)
        _note_fault(
            engine,
            faults,
            pool.name,
            variant_name,
            "hang",
            "eager",
            message=f"eager chunk {index} never completed",
        )
        blocklist.add(variant_name)
        eager_tasks = [t for t in eager_tasks if t[2] is not task]
        eager_chunks -= 1
        eager_units -= len(task.units)
        repairs.append(task.units)
    candidates = _fallback_order(pool, record.selected, blocklist)
    repaired_units = 0
    for units in repairs:
        _run_batch_with_fallback(
            engine, pool, candidates, launch.args, units, config,
            faults, stage="repair",
        )
        repaired_units += len(units)
    if tracer.enabled:
        # Eager chunks finish out of order with profiling polls; after
        # the barrier every handle is final, so their spans are exact.
        for index, variant_name, task in eager_tasks:
            tracer.task_span(
                EventKind.EAGER_CHUNK,
                variant_name,
                task,
                chunk_index=index,
            )
    return OrchestrationResult(
        record=record,
        start_cycles=start,
        profiling_done_cycles=profiling_done,
        end_cycles=engine.now,
        eager_chunks=eager_chunks,
        eager_units=eager_units,
        faults=tuple(faults),
        repaired_units=repaired_units,
    )
