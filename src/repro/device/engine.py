"""Discrete-event execution engine for simulated devices.

The engine plays the role of TBB (CPU) and the CUDA driver + block
scheduler (GPU): it dispatches work-groups onto ``compute_units``
concurrent execution units, honoring priorities — profiling work beats
eager work beats batch work, like DySel's prioritized task groups (§3.2) —
and charging kernel-launch overhead and host query latency (§3.3, §5.1).

Causality is host-driven: the engine never simulates past the host clock
(``now``) on its own.  Host-side operations (submit, poll, wait, barrier)
advance the host clock, and only then does the device schedule work-groups
whose start times fall inside the advanced window.  This makes the
asynchronous flow faithful: an eager chunk submitted after a poll really
competes with whatever is still running at that host time.

Functional execution (the variant actually writing its output buffers)
happens at submission; simulated timing is independent of functional
results, matching how a deterministic kernel's output does not depend on
when it is scheduled.

Measurement mimics the paper's in-kernel clock instrumentation (Fig 7):
a task's interval spans the earliest work-group start to the latest
work-group end among its work-groups, read through the quantized noisy
timer.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ReproConfig
from ..errors import EngineError
from ..kernel.kernel import KernelVariant, WorkRange
from ..obs.events import EventKind
from ..obs.tracer import make_tracer
from .base import Device
from .clock import MeasuredInterval, NoisyClock
from .cost import CostModel

#: Fraction of the kernel-launch overhead spent on the *host* side of the
#: launch call (driver entry / task-group spawn); the remainder is
#: device-side setup before the first work-group starts.
HOST_LAUNCH_FRACTION = 0.25

#: From this many *total queued* work-groups, a drain to an unbounded
#: horizon skips the per-work-group event machinery and runs the analytic
#: schedule (see :meth:`ExecutionEngine._try_fast_batch`).  Contended and
#: mixed-priority queues qualify: with no pending arrivals the event loop
#: is provably a priority-ordered greedy list schedule, so draining it in
#: one pass is exact, not an approximation — hence the default of 1: any
#: non-empty queue drains analytically, which is what lets catalog-sized
#: tasks (8–512 work-groups) take it.  Tests raise it to force the event
#: path.
FAST_BATCH_THRESHOLD = 1

#: Shared empty duration array for finalized/cancelled tasks.
_NO_DURATIONS = np.zeros(0)


class _Batch:
    """Queued work-groups of one task: a duration array and a cursor.

    The event loop consumes groups by advancing ``index``; the analytic
    drain consumes the remaining suffix at once.
    """

    __slots__ = ("task", "durations", "index")

    def __init__(self, task: "TaskHandle") -> None:
        self.task = task
        self.durations = task._durations
        self.index = 0

    @property
    def remaining(self) -> int:
        """Work-groups not yet dispatched from this batch."""
        return len(self.durations) - self.index


class Priority(enum.IntEnum):
    """Dispatch priority classes (lower value wins)."""

    PROFILING = 0
    EAGER = 1
    BATCH = 2


@dataclass
class TaskHandle:
    """One submitted kernel execution (a set of work-groups).

    Exposes completion state and the measured interval once finished.
    ``true_cycles``/``measured`` are populated by the engine; callers
    (the DySel runtime) must only read ``measured`` — ``true_*`` fields
    exist for the oracle and tests.
    """

    task_id: int
    variant: KernelVariant
    units: WorkRange
    priority: Priority
    stream: Optional[str]
    measure: bool
    submit_time: float
    arrival_time: float
    #: Work-group durations (jittered), dispatched in index order.  The
    #: array may be a read-only view shared with the cost-kernel memo;
    #: the engine never writes through it (consumption state lives on the
    #: ready-queue :class:`_Batch`, not here).
    _durations: np.ndarray = field(
        default_factory=lambda: _NO_DURATIONS, repr=False
    )
    total_work_groups: int = 0
    completed_work_groups: int = 0
    first_start: float = float("inf")
    last_end: float = 0.0
    measured: Optional[MeasuredInterval] = None
    #: Injected hang: the task was accepted but will never be scheduled.
    hung: bool = False
    #: The host gave up on this task (deadline expiry / fault cleanup).
    cancelled: bool = False

    @property
    def finished(self) -> bool:
        """True once every work-group has completed (never for a hang)."""
        if self.hung or self.cancelled:
            return False
        return self.completed_work_groups >= self.total_work_groups

    @property
    def true_span_cycles(self) -> float:
        """Ground-truth profiled interval (first start to last end)."""
        if not self.finished:
            raise EngineError(
                f"task {self.task_id} not finished; span unavailable"
            )
        if self.total_work_groups == 0:
            return 0.0
        return self.last_end - self.first_start


class ExecutionEngine:
    """Event-driven scheduler for one device."""

    def __init__(self, device: Device, config: Optional[ReproConfig] = None) -> None:
        self.device = device
        self.config = config if config is not None else device.config
        # The engine owns its clock so a per-run config (e.g. noise
        # disabled for oracle runs) takes effect regardless of how the
        # device was built.
        self.clock = NoisyClock(self.config, device.spec.name)
        self.cost_model = CostModel(device)
        #: Observability hook (:mod:`repro.obs`): recording when
        #: ``config.trace`` is set, the shared no-op otherwise.  Hot paths
        #: guard on ``tracer.enabled`` so the disabled configuration pays
        #: one branch per call.
        self.tracer = make_tracer(self.config)
        self._now = 0.0
        units = device.spec.compute_units
        #: Heap of (free_time, unit_id).
        self._unit_heap: List[Tuple[float, int]] = [(0.0, i) for i in range(units)]
        heapq.heapify(self._unit_heap)
        #: Pending device-side arrivals: (arrival_time, seq, task).
        self._arrivals: List[Tuple[float, int, TaskHandle]] = []
        #: Ready work by priority: deque of per-task :class:`_Batch`es.
        self._ready: Dict[Priority, Deque[_Batch]] = {
            p: deque() for p in Priority
        }
        self._seq = itertools.count()
        self._busy_cycles = 0.0
        self._launch_count = 0
        #: Task the current ``_advance_to`` must stop after (plumbed to
        #: the analytic drain, whose signature tests subclass).
        self._stop_task: Optional[TaskHandle] = None
        #: Idle frontier: ``_advance_to`` to any earlier horizon cannot
        #: dispatch.  The next possible start never decreases between a
        #: ``submit`` and a ``cancel``, which both reset it.
        self._idle_until = -math.inf
        #: Optional fault injector (:mod:`repro.faults`); when installed,
        #: it owns functional execution and may sabotage submissions.
        self.injector = None

    # ------------------------------------------------------------------
    # Host-side API
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current host clock, in device cycles."""
        return self._now

    @property
    def launch_count(self) -> int:
        """Number of kernel launches submitted so far."""
        return self._launch_count

    def utilization(self) -> float:
        """Fraction of unit-cycles spent busy since time zero."""
        elapsed = self._device_horizon()
        if elapsed <= 0:
            return 0.0
        return self._busy_cycles / (elapsed * self.device.spec.compute_units)

    def submit(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
        priority: Priority = Priority.BATCH,
        stream: Optional[str] = None,
        measure: bool = False,
    ) -> TaskHandle:
        """Launch a variant over a workload-unit range.

        Functionally executes the variant immediately (writing its output
        buffers); schedules its work-groups for timing.  The host clock
        advances by the host-side share of the launch overhead; the
        work-groups become dispatchable after the device-side share.

        With a fault injector installed the injector owns functional
        execution: it may raise a :class:`~repro.errors.VariantFault`
        (the submission never becomes a task — a crashed kernel launch),
        slow the task's work-groups, or hang it (the task is returned
        but will never finish; use :meth:`wait_deadline`).
        """
        overhead = self.device.spec.kernel_launch_overhead
        self._idle_until = -math.inf
        self._now += overhead * HOST_LAUNCH_FRACTION
        arrival = self._now + overhead * (1.0 - HOST_LAUNCH_FRACTION)
        self._launch_count += 1

        if self.injector is None:
            variant.execute(args, units)
            hang = False
            latency_scale = 1.0
        else:
            outcome = self.injector.intercept(variant, args, units)
            hang = outcome.hang
            latency_scale = outcome.latency_scale

        true_costs = self.cost_model.workgroup_cycles(variant, args, units)
        durations = self.clock.jitter_durations(true_costs)
        if latency_scale != 1.0:
            # Elementwise multiply: bit-identical to scaling each float.
            durations = durations * latency_scale
        # No copy when the costs came back from the memo unscaled: the
        # read-only cached array flows straight onto the ready queue.
        durations = np.ascontiguousarray(durations, dtype=np.float64)

        task = TaskHandle(
            task_id=next(self._seq),
            variant=variant,
            units=units,
            priority=priority,
            stream=stream,
            measure=measure,
            submit_time=self._now,
            arrival_time=arrival,
            _durations=durations,
            total_work_groups=int(durations.size),
        )
        if hang:
            # Accepted by the driver, never scheduled: the task sits
            # outside the arrival queue so barriers still drain, and only
            # a deadline wait (then ``cancel``) gets the host unstuck.
            task.hung = True
        elif task.total_work_groups == 0:
            task.first_start = arrival
            task.last_end = arrival
            self._finalize(task)
        else:
            heapq.heappush(self._arrivals, (arrival, next(self._seq), task))
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.TASK_SUBMIT,
                variant.name,
                self._now,
                task_id=task.task_id,
                units=len(units),
                start_unit=units.start,
                end_unit=units.end,
                priority=priority.name.lower(),
                stream=stream,
                work_groups=task.total_work_groups,
            )
        return task

    def poll(
        self,
        tasks: Union[TaskHandle, Sequence[TaskHandle]],
        watch: Sequence[TaskHandle] = (),
        deadline: Optional[float] = None,
    ) -> Union[bool, List[bool]]:
        """Query completion status; each query costs host query latency.

        Models ``cudaStreamQuery`` (§3.3): the query itself takes longer
        than a micro-profile often does, which is what limits eager
        dispatch on GPUs (§5.1).  ``poll(task)`` queries one task and
        returns whether it reads done.  ``poll(tasks, watch, deadline)``
        is one round — each task queried once, in order — returning each
        task's readiness.  With ``deadline``, idle rounds (nothing reads
        done, no ``watch`` task finishes) repeat in here until one is not
        idle or ends past ``deadline``; a skipped query costs one float
        add, and clock and trace match a query-by-query run.  An idle
        round that can never end raises :class:`EngineError`
        (``docs/engine.md``, "Idle polls").
        """
        single = isinstance(tasks, TaskHandle)
        if single:
            tasks = (tasks,)
        latency = self.device.spec.host_query_latency
        tracer = self.tracer
        tracing = tracer.enabled
        positions = range(len(tasks))
        ready = [False] * len(tasks)
        # Queries before ``skip_until`` can neither dispatch nor read
        # done: they tick the clock and leave ``ready`` all False.
        skip_until = -math.inf
        now = self._now
        while True:
            for index in positions:
                now += latency
                if now >= skip_until:
                    task = tasks[index]
                    self._now = now
                    self._advance_to(now)
                    ready[index] = task.finished and task.last_end <= now
                if tracing:
                    task = tasks[index]
                    tracer.instant(
                        EventKind.HOST_POLL,
                        task.variant.name,
                        now,
                        task_id=task.task_id,
                        finished=ready[index],
                        latency_cycles=latency,
                    )
            self._now = now
            if deadline is None or now > deadline:
                break
            if now < skip_until:
                continue
            if True in ready or any(
                task.finished and task.last_end <= now for task in watch
            ):
                break
            # Idle round: the next change is a dispatch at the frontier
            # or a finished task's clock reaching its ``last_end``.
            skip_until = min(
                [self._idle_until]
                + [task.last_end for task in (*tasks, *watch) if task.finished]
            )
            # Repeats that cannot move the clock, or whose clock has
            # nothing to reach, would spin forever.
            if not latency or (
                skip_until == math.inf and deadline == math.inf
            ):
                raise EngineError(
                    f"poll of tasks {[task.task_id for task in tasks]} "
                    "cannot finish: engine is stuck (an idle round with "
                    "nothing to wait for)"
                )
        return ready[0] if single else ready

    def wait(self, task: TaskHandle) -> float:
        """Block the host until a task completes; returns completion time."""
        blocked_at = self._now
        self._drain_task(task)
        self._now = max(self._now, task.last_end)
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.HOST_WAIT,
                task.variant.name,
                blocked_at,
                self._now,
                task_id=task.task_id,
            )
        return task.last_end

    def wait_all(self, tasks: List[TaskHandle]) -> float:
        """Block the host until all tasks complete (device synchronize)."""
        blocked_at = self._now
        end = self._now
        for task in tasks:
            self._drain_task(task)
            end = max(end, task.last_end)
        self._now = max(self._now, end)
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.HOST_WAIT,
                f"{len(tasks)} task(s)",
                blocked_at,
                self._now,
            )
        return self._now

    def wait_deadline(self, task: TaskHandle, deadline: float) -> bool:
        """Block until a task completes or the host clock hits ``deadline``.

        Returns True if the task finished.  Unlike :meth:`wait`, a task
        that cannot make progress (an injected hang) does not wedge the
        host: the clock advances to the deadline, other work keeps
        flowing, and the caller decides what to do with the straggler
        (usually :meth:`cancel`).

        An unbounded deadline is exactly :meth:`wait`: same clock, same
        drain, same trace span, and :class:`~repro.errors.EngineError`
        when the task cannot finish — the host clock never reaches
        infinity.
        """
        if deadline == float("inf"):
            self.wait(task)
            return True
        blocked_at = self._now
        deadline = max(deadline, self._now)
        while not task.finished:
            if not self._advance_to(deadline, stop_task=task):
                break
        finished = task.finished
        if finished:
            self._now = max(self._now, task.last_end)
        else:
            self._now = max(self._now, deadline)
            self._advance_to(self._now)
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.HOST_WAIT,
                task.variant.name,
                blocked_at,
                self._now,
                task_id=task.task_id,
                deadline=deadline,
                timed_out=not finished,
            )
        return finished

    def cancel(self, task: TaskHandle) -> None:
        """Abandon a task the host has given up on (hang cleanup).

        Undelivered work-groups are dropped; already-dispatched ones
        complete (a real device cannot claw back in-flight blocks, and
        their cycles stay in the utilization accounting).  The task is
        marked ``cancelled`` and will never read as finished.
        """
        self._arrivals = [
            entry for entry in self._arrivals if entry[2] is not task
        ]
        heapq.heapify(self._arrivals)
        for queue in self._ready.values():
            if any(batch.task is task for batch in queue):
                kept = [batch for batch in queue if batch.task is not task]
                queue.clear()
                queue.extend(kept)
        task._durations = _NO_DURATIONS
        task.cancelled = True
        self._idle_until = -math.inf
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.TASK_CANCEL,
                task.variant.name,
                self._now,
                task_id=task.task_id,
                completed_work_groups=task.completed_work_groups,
            )

    def barrier(self) -> float:
        """Drain every outstanding work-group (``cudaDeviceSynchronize``)."""
        blocked_at = self._now
        self._advance_to(float("inf"))
        self._now = max(self._now, self._device_horizon())
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.BARRIER, "device", blocked_at, self._now
            )
        return self._now

    def host_compute(self, cycles: float) -> None:
        """Charge host-side work (selection compare, bookkeeping)."""
        if cycles < 0:
            raise EngineError(f"host_compute cycles must be >= 0: {cycles}")
        self._now += cycles
        self._advance_to(self._now)

    # ------------------------------------------------------------------
    # Simulation core
    # ------------------------------------------------------------------

    def _drain_task(self, task: TaskHandle) -> None:
        """Advance simulation until the given task finishes."""
        guard = 0
        while not task.finished:
            progressed = self._advance_to(float("inf"), stop_task=task)
            guard += 1
            if not progressed and not task.finished:
                raise EngineError(
                    f"task {task.task_id} cannot finish: engine is stuck "
                    f"(ready={sum(len(q) for q in self._ready.values())}, "
                    f"arrivals={len(self._arrivals)})"
                )
            if guard > 10_000_000:
                raise EngineError("engine livelock detected")

    def _device_horizon(self) -> float:
        """Latest unit free time (device-side frontier)."""
        return max(t for t, _ in self._unit_heap)

    def _peek_ready(self) -> _Batch:
        """The highest-priority ready batch (queues must not be empty)."""
        for priority in Priority:
            queue = self._ready[priority]
            if queue:
                return queue[0]
        raise EngineError("no ready work-group to pop")

    def _deliver_arrivals(self, up_to: float) -> None:
        """Move tasks whose submit time has passed onto the ready queues."""
        while self._arrivals and self._arrivals[0][0] <= up_to:
            _, _, task = heapq.heappop(self._arrivals)
            self._ready[task.priority].append(_Batch(task))

    def _advance_to(
        self, horizon: float, stop_task: Optional[TaskHandle] = None
    ) -> bool:
        """Schedule work-groups with start times up to ``horizon``.

        Returns True if any progress was made.  With ``stop_task`` given,
        returns as soon as that task finishes.

        Every other return records the idle frontier: the start that lay
        past ``horizon`` (infinity when nothing is queued or arriving).
        Until a ``submit`` or ``cancel`` the next start cannot move
        earlier, so a later call with an earlier horizon would compute
        the same refusal — it returns False without looking.
        """
        if horizon < self._idle_until:
            return False
        progressed = False
        previous_stop = self._stop_task
        self._stop_task = stop_task
        try:
            while True:
                if stop_task is not None and stop_task.finished:
                    self._idle_until = -math.inf
                    return progressed
                ready = self._ready
                if not (
                    ready[Priority.PROFILING]
                    or ready[Priority.EAGER]
                    or ready[Priority.BATCH]
                ):
                    if not self._arrivals:
                        self._idle_until = math.inf
                        return progressed
                    next_arrival = self._arrivals[0][0]
                    if next_arrival > horizon:
                        self._idle_until = next_arrival
                        return progressed
                    self._deliver_arrivals(next_arrival)
                    continue

                if self._try_fast_batch(horizon):
                    progressed = True
                    continue

                free_time, unit = self._unit_heap[0]
                # Deliver anything arriving by the dispatch instant so
                # higher priority work can claim the unit.
                self._deliver_arrivals(free_time)
                batch = self._peek_ready()
                task = batch.task
                start = max(free_time, task.arrival_time)
                if start > horizon:
                    # Nothing can start inside the horizon yet.
                    self._idle_until = start
                    return progressed
                duration = float(batch.durations[batch.index])
                batch.index += 1
                if batch.index == len(batch.durations):
                    self._ready[task.priority].popleft()
                heapq.heappop(self._unit_heap)
                end = start + duration
                heapq.heappush(self._unit_heap, (end, unit))
                self._busy_cycles += duration
                task.first_start = min(task.first_start, start)
                task.last_end = max(task.last_end, end)
                task.completed_work_groups += 1
                if task.finished:
                    self._finalize(task)
                progressed = True
        finally:
            self._stop_task = previous_stop

    def _try_fast_batch(self, horizon: float) -> bool:
        """Analytic drain of the ready queues (exact, never approximate).

        With no pending arrivals and an unbounded horizon, the event loop
        degenerates to a fixed iteration order: for each queued work-group
        in priority-then-FIFO order, pop the earliest-free unit, start at
        ``max(free_time, arrival)``, run, push back.  Nothing can preempt
        — arrivals are empty and priorities are fixed — so running that
        schedule as a tight loop over whole batches (contended,
        mixed-priority, and preempted queues included) produces *bit
        identical* unit free times, intervals, busy cycles, and
        measurement-RNG consumption; only the simulation cost differs.

        A ``stop_task`` (plumbed via ``_advance_to``) stops the drain
        right after the batch that finishes it; later batches stay queued
        because work submitted afterwards could still preempt them.
        """
        if self._arrivals or horizon != float("inf"):
            return False
        # The caller's non-empty ready queue meets the default threshold;
        # only a raised one (a test forcing the event path) needs a count.
        if FAST_BATCH_THRESHOLD > 1 and FAST_BATCH_THRESHOLD > sum(
            batch.remaining for queue in self._ready.values() for batch in queue
        ):
            return False

        stop_task = self._stop_task
        unit_heap = self._unit_heap
        heapreplace = heapq.heapreplace
        busy = self._busy_cycles
        finished: List[TaskHandle] = []
        stopped = False
        for priority in Priority:
            queue = self._ready[priority]
            while queue and not stopped:
                batch = queue[0]
                task = batch.task
                durations = batch.durations
                index = batch.index
                count = len(durations) - index
                arrival = task.arrival_time
                first_start = task.first_start
                last_end = task.last_end

                while index < len(durations):
                    free_time, unit = unit_heap[0]
                    start = free_time if free_time > arrival else arrival
                    duration = float(durations[index])
                    end = start + duration
                    heapreplace(unit_heap, (end, unit))
                    if start < first_start:
                        first_start = start
                    if end > last_end:
                        last_end = end
                    busy += duration
                    index += 1

                batch.index = len(durations)
                queue.popleft()
                task.first_start = first_start
                task.last_end = last_end
                task.completed_work_groups += count
                if task.finished:
                    finished.append(task)
                    if task is stop_task:
                        stopped = True
            if stopped:
                break
        self._busy_cycles = busy
        self._measure_finished(finished)
        return True

    def _measure_finished(self, tasks: List[TaskHandle]) -> None:
        """Read measurements for drained tasks, in completion order.

        Uses the clock's batched read so one RNG call serves the whole
        drain; bit-identical to per-task :meth:`_finalize` calls because
        nothing else consumes the clock's RNG between the completions.
        """
        pending = [
            task
            for task in tasks
            if task.measure and task.measured is None
        ]
        if not pending:
            return
        intervals = self.clock.read_intervals(
            [task.true_span_cycles for task in pending]
        )
        for task, interval in zip(pending, intervals):
            task.measured = interval

    def _finalize(self, task: TaskHandle) -> None:
        """Complete a task: read its (noisy) measurement, emit its span."""
        if task.measure and task.measured is None:
            span = task.true_span_cycles
            task.measured = self.clock.read_interval(span)
