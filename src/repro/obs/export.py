"""Exporters and audits for recorded trace events.

Three renderings of the same event list:

* :func:`chrome_trace` — the Chrome trace-event format (a JSON object
  with a ``traceEvents`` array of ``B``/``E`` duration pairs and ``i``
  instants), loadable in ``chrome://tracing`` and Perfetto.  One device
  cycle maps to one microsecond of trace time, so zooming reads directly
  in cycles.  Spans are packed onto non-overlapping lanes (one lane per
  profiled variant, as many eager lanes as chunks ever overlap), which
  keeps every lane's begin/end events properly nested.
* :func:`text_timeline` — a fixed-width ASCII timeline for terminals and
  logs; the Fig 4 sync-vs-async pictures, rendered from data.
* :func:`summarize` — counters: profiling-overhead fraction, eager-chunk
  utilization, cache hit rate, gate/plan demotions.

:func:`reconcile` is the audit the CLI and tests run: it checks that a
trace is internally consistent and that traced cycles and workload units
sum-reconcile with what the launch reported (``LaunchResult``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .events import EventKind, TraceEvent

#: Relative slack for float comparisons between event timestamps and
#: engine clock readings.
_REL_EPS = 1e-9
_ABS_EPS = 1e-6


def _close(a: float, b: float) -> bool:
    """Float equality with relative + absolute slack."""
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= _ABS_EPS + _REL_EPS * scale


# ----------------------------------------------------------------------
# Lane layout (shared by the Chrome exporter and the text timeline)
# ----------------------------------------------------------------------


def _lane_group(event: TraceEvent) -> str:
    """Which lane family an event belongs to."""
    if event.kind is EventKind.PROFILE_SPAN:
        return f"profile {event.name}"
    if event.kind is EventKind.EAGER_CHUNK:
        return "eager"
    if event.kind is EventKind.REMAINDER_BATCH:
        return "batch"
    return "host"


def assign_lanes(events: Sequence[TraceEvent]) -> List[Tuple[TraceEvent, str]]:
    """Pack events onto named lanes so spans on one lane never overlap.

    Greedy interval partitioning per lane family: a span goes to the
    first lane of its family whose previous span has ended.  Instants all
    share their family's first lane (they cannot overlap anything).
    """
    ordered = sorted(
        events, key=lambda e: (e.start_cycles, e.end_cycles or e.start_cycles)
    )
    #: Per family: list of (lane name, busy-until).
    lanes: Dict[str, List[Tuple[str, float]]] = {}
    placed: List[Tuple[TraceEvent, str]] = []
    for event in ordered:
        family = _lane_group(event)
        family_lanes = lanes.setdefault(family, [])
        if not event.is_span:
            if not family_lanes:
                family_lanes.append((family, float("-inf")))
            placed.append((event, family_lanes[0][0]))
            continue
        assert event.end_cycles is not None
        for i, (name, busy_until) in enumerate(family_lanes):
            if event.start_cycles >= busy_until - _ABS_EPS:
                family_lanes[i] = (name, event.end_cycles)
                placed.append((event, name))
                break
        else:
            suffix = f" #{len(family_lanes)}" if family_lanes else ""
            name = f"{family}{suffix}"
            family_lanes.append((name, event.end_cycles))
            placed.append((event, name))
    return placed


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------


def _json_safe(value: object) -> object:
    """Coerce an event-args value to something JSON-serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


def chrome_trace(
    events: Sequence[TraceEvent], process_name: str = "dysel"
) -> Dict[str, object]:
    """Render events as a Chrome trace-event JSON object.

    Timestamps are device cycles, emitted as microseconds (the format's
    native unit) so one trace-viewer microsecond is one cycle.
    """
    placed = assign_lanes(events)
    lane_ids: Dict[str, int] = {}
    trace_events: List[Dict[str, object]] = []
    pid = 1
    for event, lane in placed:
        if lane not in lane_ids:
            lane_ids[lane] = len(lane_ids)
            trace_events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": lane_ids[lane],
                    "name": "thread_name",
                    "args": {"name": lane},
                }
            )
        tid = lane_ids[lane]
        common = {
            "name": f"{event.kind.value}:{event.name}",
            "cat": event.kind.value,
            "pid": pid,
            "tid": tid,
        }
        args = {k: _json_safe(v) for k, v in event.args.items()}
        if event.is_span:
            assert event.end_cycles is not None
            trace_events.append(
                {**common, "ph": "B", "ts": event.start_cycles, "args": args}
            )
            trace_events.append(
                {**common, "ph": "E", "ts": event.end_cycles}
            )
        else:
            trace_events.append(
                {
                    **common,
                    "ph": "i",
                    "ts": event.start_cycles,
                    "s": "t",
                    "args": args,
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "process": process_name,
            "time_unit": "device cycles (1 cycle = 1 us of trace time)",
            "event_count": len(events),
        },
    }


def write_chrome_trace(
    events: Sequence[TraceEvent], path: str, process_name: str = "dysel"
) -> None:
    """Serialize :func:`chrome_trace` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events, process_name), handle, indent=1)
        handle.write("\n")


def load_chrome_trace(path: str) -> List[TraceEvent]:
    """Rebuild :class:`TraceEvent` objects from a written Chrome trace.

    The inverse of :func:`write_chrome_trace`, good enough to re-run
    :func:`reconcile` and :func:`summarize` on a trace file after the
    process that recorded it is gone (``python -m repro.obs reconcile``).
    ``B``/``E`` pairs are re-joined per lane (the exporter keeps each
    lane's spans non-overlapping, so a per-lane stack suffices); events
    come back sorted by start time with window boundaries ordered so
    launch windows re-pair exactly.
    """
    from .events import TraceError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceError(f"trace {path!r} is not valid JSON: {exc}") from exc
    raw_events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(raw_events, list):
        raise TraceError(
            f"trace {path!r} has no 'traceEvents' array; not a Chrome "
            "trace written by repro.obs"
        )

    def parse(record: Mapping[str, object]) -> Tuple[EventKind, str]:
        cat = str(record.get("cat", ""))
        try:
            kind = EventKind(cat)
        except ValueError:
            raise TraceError(
                f"trace {path!r} contains unknown event kind {cat!r}"
            ) from None
        name = str(record.get("name", ""))
        prefix = f"{kind.value}:"
        if name.startswith(prefix):
            name = name[len(prefix):]
        return kind, name

    events: List[TraceEvent] = []
    open_spans: Dict[Tuple[object, object], List[Dict[str, object]]] = {}
    for record in raw_events:
        if not isinstance(record, dict):
            raise TraceError(f"trace {path!r}: event {record!r} not an object")
        phase = record.get("ph")
        if phase == "M":
            continue
        lane = (record.get("pid"), record.get("tid"))
        if phase == "i":
            kind, name = parse(record)
            events.append(
                TraceEvent(
                    kind,
                    name,
                    float(record.get("ts", 0.0)),  # type: ignore[arg-type]
                    args=record.get("args", {}),  # type: ignore[arg-type]
                )
            )
        elif phase == "B":
            open_spans.setdefault(lane, []).append(record)
        elif phase == "E":
            stack = open_spans.get(lane)
            if not stack:
                raise TraceError(
                    f"trace {path!r}: 'E' event at ts="
                    f"{record.get('ts')} closes nothing on lane {lane}"
                )
            begin = stack.pop()
            kind, name = parse(begin)
            events.append(
                TraceEvent(
                    kind,
                    name,
                    float(begin.get("ts", 0.0)),  # type: ignore[arg-type]
                    float(record.get("ts", 0.0)),  # type: ignore[arg-type]
                    args=begin.get("args", {}),  # type: ignore[arg-type]
                )
            )
        else:
            raise TraceError(
                f"trace {path!r}: unsupported phase {phase!r}"
            )
    for lane, stack in open_spans.items():
        if stack:
            raise TraceError(
                f"trace {path!r}: {len(stack)} unclosed span(s) on lane "
                f"{lane}"
            )

    def order(event: TraceEvent) -> Tuple[float, int]:
        # At equal timestamps a LAUNCH_END closes the earlier window
        # before the next LAUNCH_BEGIN opens, and a window's spans sort
        # inside its boundaries — the ordering reconcile() pairs by.
        if event.kind is EventKind.LAUNCH_END:
            rank = 0
        elif event.kind is EventKind.LAUNCH_BEGIN:
            rank = 1
        else:
            rank = 2
        return (event.start_cycles, rank)

    events.sort(key=order)
    return events


# ----------------------------------------------------------------------
# Text timeline
# ----------------------------------------------------------------------


def text_timeline(events: Sequence[TraceEvent], width: int = 72) -> str:
    """Fixed-width ASCII rendering: one row per lane, time left to right.

    Spans draw as ``[====]`` bars, instants as ``|`` ticks; the scale
    line maps columns back to cycles.
    """
    if not events:
        return "(no events)"
    placed = assign_lanes(events)
    t0 = min(e.start_cycles for e, _ in placed)
    t1 = max(e.end_cycles or e.start_cycles for e, _ in placed)
    span = max(t1 - t0, 1.0)

    def col(t: float) -> int:
        return min(width - 1, int((t - t0) / span * (width - 1)))

    lanes: Dict[str, List[str]] = {}
    order: List[str] = []
    for event, lane in placed:
        if lane not in lanes:
            lanes[lane] = [" "] * width
            order.append(lane)
        row = lanes[lane]
        if event.is_span:
            assert event.end_cycles is not None
            lo, hi = col(event.start_cycles), col(event.end_cycles)
            row[lo] = "["
            for i in range(lo + 1, hi):
                row[i] = "="
            row[hi] = "]" if hi > lo else row[lo]
        else:
            i = col(event.start_cycles)
            row[i] = "|" if row[i] == " " else row[i]

    label_width = max(len(name) for name in order)
    lines = [
        f"{name.ljust(label_width)} {''.join(lanes[name])}" for name in order
    ]
    lines.append(
        f"{''.ljust(label_width)} {t0:.0f} cycles {'·' * max(0, width - 30)} "
        f"{t1:.0f}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Counters summary
# ----------------------------------------------------------------------


@dataclass
class TraceSummary:
    """Aggregate counters over one trace."""

    launches: int = 0
    profiled_launches: int = 0
    total_elapsed_cycles: float = 0.0
    profiling_latency_cycles: float = 0.0
    profile_spans: int = 0
    eager_chunks: int = 0
    eager_units: int = 0
    remainder_units: int = 0
    workload_units: int = 0
    cache_hits: int = 0
    cache_invalidations: int = 0
    gate_demotions: int = 0
    plan_demotions: int = 0
    selection_updates: int = 0
    host_polls: int = 0
    serve_enqueued: int = 0
    serve_admitted: int = 0
    lease_grants: int = 0
    lease_steals: int = 0
    store_hits: int = 0
    store_evictions: int = 0
    predictions: int = 0
    prediction_fallbacks: int = 0
    placements: int = 0
    split_launches: int = 0
    admissions: int = 0
    admission_rejects: int = 0
    deadline_misses: int = 0
    profile_deferrals: int = 0
    drift_suspects: int = 0
    drift_confirmations: int = 0
    reselections: int = 0
    dominance_prunes: int = 0
    faults_injected: int = 0
    fault_retries: int = 0
    quarantines: int = 0
    degraded_launches: int = 0
    cancelled_tasks: int = 0
    events_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def profiling_overhead_fraction(self) -> float:
        """Fraction of launch wall time spent before selection was final."""
        if self.total_elapsed_cycles <= 0:
            return 0.0
        return self.profiling_latency_cycles / self.total_elapsed_cycles

    @property
    def eager_utilization(self) -> float:
        """Share of the traced workload processed by eager chunks."""
        if self.workload_units <= 0:
            return 0.0
        return self.eager_units / self.workload_units

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits per launch."""
        if self.launches <= 0:
            return 0.0
        return self.cache_hits / self.launches

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"launches: {self.launches} "
            f"({self.profiled_launches} profiled)",
            f"elapsed: {self.total_elapsed_cycles:.0f} cycles, "
            f"profiling latency: {self.profiling_latency_cycles:.0f} cycles "
            f"({100 * self.profiling_overhead_fraction:.2f}% of wall)",
            f"profile spans: {self.profile_spans}, "
            f"selection updates: {self.selection_updates}",
            f"eager: {self.eager_chunks} chunk(s), {self.eager_units} "
            f"unit(s) ({100 * self.eager_utilization:.2f}% of workload)",
            f"cache: {self.cache_hits} hit(s), "
            f"{self.cache_invalidations} invalidation(s), hit rate "
            f"{100 * self.cache_hit_rate:.1f}%",
            f"demotions: {self.gate_demotions} gate, "
            f"{self.plan_demotions} plan",
            f"host polls: {self.host_polls}",
        ]
        if self.faults_injected or self.quarantines or self.degraded_launches:
            lines.append(
                f"faults: {self.faults_injected} handled, "
                f"{self.fault_retries} retried, "
                f"{self.cancelled_tasks} task(s) cancelled; "
                f"{self.quarantines} quarantine(s), "
                f"{self.degraded_launches} degraded launch(es)"
            )
        if self.serve_enqueued or self.serve_admitted:
            lines.append(
                f"serving: {self.serve_enqueued} enqueued, "
                f"{self.serve_admitted} admitted; leases: "
                f"{self.lease_grants} granted, {self.lease_steals} stolen; "
                f"store: {self.store_hits} hit(s), "
                f"{self.store_evictions} eviction(s)"
            )
        if (
            self.drift_suspects
            or self.drift_confirmations
            or self.reselections
        ):
            lines.append(
                f"drift: {self.drift_suspects} suspect(s), "
                f"{self.drift_confirmations} confirmed, "
                f"{self.reselections} reselection(s)"
            )
        if self.placements or self.split_launches:
            lines.append(
                f"fleet: {self.placements} placement decision(s), "
                f"{self.split_launches} split launch(es)"
            )
        if self.dominance_prunes:
            lines.append(
                f"dominance: {self.dominance_prunes} pool prune(s) "
                "(statically dominated variants skipped profiling)"
            )
        if (
            self.admissions
            or self.admission_rejects
            or self.deadline_misses
            or self.profile_deferrals
        ):
            lines.append(
                f"qos: {self.admissions} admission(s), "
                f"{self.admission_rejects} reject(s), "
                f"{self.deadline_misses} deadline miss(es), "
                f"{self.profile_deferrals} profile(s) deferred"
            )
        return "\n".join(lines)


#: Kinds whose every event bumps one :class:`TraceSummary` counter.
SUMMARY_COUNTERS: Mapping[EventKind, str] = {
    EventKind.PROFILE_SPAN: "profile_spans",
    EventKind.CACHE_HIT: "cache_hits",
    EventKind.CACHE_INVALIDATE: "cache_invalidations",
    EventKind.PLAN_DEMOTION: "plan_demotions",
    EventKind.SELECTION_UPDATE: "selection_updates",
    EventKind.HOST_POLL: "host_polls",
    EventKind.SERVE_ENQUEUE: "serve_enqueued",
    EventKind.SERVE_ADMIT: "serve_admitted",
    EventKind.PROFILE_LEASE_GRANT: "lease_grants",
    EventKind.PROFILE_LEASE_STEAL: "lease_steals",
    EventKind.STORE_HIT: "store_hits",
    EventKind.STORE_EVICT: "store_evictions",
    EventKind.PREDICTION: "predictions",
    EventKind.PREDICTION_FALLBACK: "prediction_fallbacks",
    EventKind.PLACEMENT: "placements",
    EventKind.SPLIT_LAUNCH: "split_launches",
    EventKind.DRIFT_SUSPECT: "drift_suspects",
    EventKind.DRIFT_CONFIRMED: "drift_confirmations",
    EventKind.RESELECTION: "reselections",
    EventKind.DOMINANCE_PRUNE: "dominance_prunes",
    EventKind.DEADLINE_MISS: "deadline_misses",
    EventKind.PROFILE_DEFERRED: "profile_deferrals",
    EventKind.FAULT_INJECT: "faults_injected",
    EventKind.FAULT_RETRY: "fault_retries",
    EventKind.VARIANT_QUARANTINE: "quarantines",
    EventKind.LAUNCH_DEGRADED: "degraded_launches",
    EventKind.TASK_CANCEL: "cancelled_tasks",
}

#: Kinds deliberately left out of the counters (``events_by_kind`` still
#: tallies them).  Every other kind is either in ``SUMMARY_COUNTERS`` or
#: read explicitly by :func:`summarize` for its arguments.
SUMMARY_UNCOUNTED = frozenset(
    {EventKind.TASK_SUBMIT, EventKind.HOST_WAIT, EventKind.BARRIER}
)


def summarize(events: Sequence[TraceEvent]) -> TraceSummary:
    """Fold a trace into :class:`TraceSummary` counters."""
    summary = TraceSummary()
    by_kind = summary.events_by_kind
    for event in events:
        kind = event.kind
        by_kind[kind.value] = by_kind.get(kind.value, 0) + 1
        counter = SUMMARY_COUNTERS.get(kind)
        if counter is not None:
            setattr(summary, counter, getattr(summary, counter) + 1)
            continue
        args = event.args
        if kind is EventKind.LAUNCH_BEGIN:
            summary.launches += 1
            summary.workload_units += int(args.get("workload_units", 0))  # type: ignore[arg-type]
        elif kind is EventKind.LAUNCH_END:
            summary.total_elapsed_cycles += float(
                args.get("elapsed_cycles", 0.0)  # type: ignore[arg-type]
            )
            summary.profiling_latency_cycles += float(
                args.get("profiling_latency_cycles", 0.0)  # type: ignore[arg-type]
            )
            summary.profiled_launches += int(bool(args.get("profiled")))
        elif kind is EventKind.EAGER_CHUNK:
            summary.eager_chunks += 1
            summary.eager_units += int(args.get("units", 0))  # type: ignore[arg-type]
        elif kind is EventKind.REMAINDER_BATCH:
            summary.remainder_units += int(args.get("units", 0))  # type: ignore[arg-type]
        elif kind is EventKind.GATE_DECISION:
            summary.gate_demotions += int(bool(args.get("demoted")))
        elif kind is EventKind.ADMISSION:
            admitted = bool(args.get("admitted", True))
            summary.admissions += int(admitted)
            summary.admission_rejects += int(not admitted)
    return summary


# ----------------------------------------------------------------------
# Reconciliation audit
# ----------------------------------------------------------------------


def _launch_windows(
    events: Sequence[TraceEvent],
) -> Tuple[List[Tuple[TraceEvent, TraceEvent]], List[str]]:
    """Pair LAUNCH_BEGIN/LAUNCH_END events, reporting mismatches."""
    problems: List[str] = []
    windows: List[Tuple[TraceEvent, TraceEvent]] = []
    open_begin: Optional[TraceEvent] = None
    for event in events:
        if event.kind is EventKind.LAUNCH_BEGIN:
            if open_begin is not None:
                problems.append(
                    f"launch {open_begin.name!r} at "
                    f"{open_begin.start_cycles:.0f} has no LAUNCH_END before "
                    "the next launch begins"
                )
            open_begin = event
        elif event.kind is EventKind.LAUNCH_END:
            if open_begin is None:
                problems.append(
                    f"LAUNCH_END for {event.name!r} at "
                    f"{event.start_cycles:.0f} has no matching LAUNCH_BEGIN"
                )
                continue
            windows.append((open_begin, event))
            open_begin = None
    if open_begin is not None:
        problems.append(
            f"launch {open_begin.name!r} at {open_begin.start_cycles:.0f} "
            "never ended"
        )
    return windows, problems


def reconcile(
    events: Sequence[TraceEvent],
    elapsed_cycles: Optional[float] = None,
    workload_units: Optional[int] = None,
) -> List[str]:
    """Audit a trace for internal and external consistency.

    Checks, per launch window (a LAUNCH_BEGIN/LAUNCH_END pair):

    1. begin/end events pair up, and the window length matches the
       ``elapsed_cycles`` the runtime reported in ``LAUNCH_END.args``;
    2. every profile/eager/remainder span lies inside its window;
    3. workload units sum-reconcile: productive profiling units + eager
       units + remainder units == the launch's ``workload_units``
       (fully-productive claims every profiled slice, the partial modes
       claim one — paper Table 1).

    With ``elapsed_cycles``/``workload_units`` given (e.g. from a
    :class:`~repro.core.runtime.LaunchResult`), the *last* window is also
    checked against those external numbers.  Returns a list of problem
    strings; empty means the trace reconciles.
    """
    windows, problems = _launch_windows(events)
    spans = [
        e
        for e in events
        if e.kind
        in (
            EventKind.PROFILE_SPAN,
            EventKind.EAGER_CHUNK,
            EventKind.REMAINDER_BATCH,
        )
    ]
    for begin, end in windows:
        label = f"launch {begin.name!r} @{begin.start_cycles:.0f}"
        window_elapsed = end.start_cycles - begin.start_cycles
        reported = float(end.args.get("elapsed_cycles", window_elapsed))  # type: ignore[arg-type]
        if not _close(window_elapsed, reported):
            problems.append(
                f"{label}: window spans {window_elapsed:.3f} cycles but "
                f"LAUNCH_END reports elapsed_cycles={reported:.3f}"
            )
        inside = [
            s
            for s in spans
            if begin.start_cycles - _ABS_EPS
            <= s.start_cycles
            <= end.start_cycles + _ABS_EPS
        ]
        for s in inside:
            assert s.end_cycles is not None
            if s.end_cycles > end.start_cycles + _ABS_EPS + _REL_EPS * max(
                abs(s.end_cycles), 1.0
            ):
                problems.append(
                    f"{label}: {s.kind.value} {s.name!r} ends at "
                    f"{s.end_cycles:.3f}, after the launch end "
                    f"{end.start_cycles:.3f}"
                )

        units = begin.args.get("workload_units")
        if units is None:
            continue
        units = int(units)  # type: ignore[arg-type]
        profile_spans = [s for s in inside if s.kind is EventKind.PROFILE_SPAN]
        mode = end.args.get("mode")
        if mode == "fully":
            claimed = sum(int(s.args.get("units", 0)) for s in profile_spans)  # type: ignore[arg-type]
        elif mode == "swap" and profile_spans:
            # Swap: all candidates share one slice privately; the winner's
            # copy is swapped in, so exactly one span's units commit.
            claimed = int(profile_spans[0].args.get("units", 0))  # type: ignore[arg-type]
        elif profile_spans:
            # Hybrid: only the productive candidate's slice commits.  If
            # it faulted (no productive span), the slice was re-run as a
            # repair batch and is accounted under REMAINDER_BATCH.  Spans
            # without a ``productive`` marker (hand-built or pre-fault
            # traces) count as productive, preserving the legacy rule of
            # claiming the first shared slice.
            productive = [
                s
                for s in profile_spans
                if bool(s.args.get("productive", True))
            ]
            claimed = (
                int(productive[0].args.get("units", 0))  # type: ignore[arg-type]
                if productive
                else 0
            )
        else:
            claimed = 0
        eager = sum(
            int(s.args.get("units", 0))  # type: ignore[arg-type]
            for s in inside
            if s.kind is EventKind.EAGER_CHUNK
        )
        remainder = sum(
            int(s.args.get("units", 0))  # type: ignore[arg-type]
            for s in inside
            if s.kind is EventKind.REMAINDER_BATCH
        )
        total = claimed + eager + remainder
        if total != units:
            problems.append(
                f"{label}: unit accounting mismatch — profiling claimed "
                f"{claimed} + eager {eager} + remainder {remainder} = "
                f"{total}, launch had {units}"
            )

    if windows and elapsed_cycles is not None:
        begin, end = windows[-1]
        window_elapsed = end.start_cycles - begin.start_cycles
        if not _close(window_elapsed, elapsed_cycles):
            problems.append(
                f"last launch window spans {window_elapsed:.3f} cycles but "
                f"the LaunchResult reports {elapsed_cycles:.3f}"
            )
    if windows and workload_units is not None:
        begin, _ = windows[-1]
        traced_units = begin.args.get("workload_units")
        if traced_units is not None and int(traced_units) != workload_units:  # type: ignore[arg-type]
            problems.append(
                f"last launch traced workload_units={traced_units} but the "
                f"LaunchResult covered {workload_units}"
            )
    return problems
