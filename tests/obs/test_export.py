"""Exporter tests: Chrome trace structure, timeline, summary, reconcile."""

import dataclasses
import json

import pytest

from repro.obs import (
    EventKind,
    RecordingTracer,
    chrome_trace,
    reconcile,
    summarize,
    text_timeline,
    write_chrome_trace,
)
from repro.obs.events import SPAN_KINDS
from repro.obs.export import (
    SUMMARY_COUNTERS,
    SUMMARY_UNCOUNTED,
    TraceSummary,
    assign_lanes,
)


def sample_trace() -> RecordingTracer:
    """A hand-built, internally consistent one-launch trace.

    16 workload units: two fully-productive profile spans (4 units
    each), one eager chunk (4 units) and a remainder batch (4 units).
    """
    t = RecordingTracer()
    t.instant(
        EventKind.LAUNCH_BEGIN, "k", 100.0, workload_units=16,
        profiling_requested=True,
    )
    t.span(EventKind.PROFILE_SPAN, "fast", 110.0, 130.0, units=4)
    t.instant(EventKind.SELECTION_UPDATE, "k", 131.0, selected="fast")
    t.span(EventKind.PROFILE_SPAN, "slow", 130.0, 170.0, units=4)
    t.span(EventKind.EAGER_CHUNK, "fast", 135.0, 160.0, units=4)
    t.span(EventKind.REMAINDER_BATCH, "fast", 172.0, 196.0, units=4)
    t.instant(
        EventKind.LAUNCH_END, "k", 200.0, elapsed_cycles=100.0,
        mode="fully", profiled=True, profiling_latency_cycles=70.0,
    )
    return t


class TestLanes:
    def test_overlapping_spans_get_distinct_lanes(self):
        t = RecordingTracer()
        t.span(EventKind.EAGER_CHUNK, "v", 0.0, 10.0, units=2)
        t.span(EventKind.EAGER_CHUNK, "v", 5.0, 15.0, units=2)
        t.span(EventKind.EAGER_CHUNK, "v", 10.0, 20.0, units=2)
        placed = assign_lanes(t.events)
        lanes = [lane for _, lane in placed]
        # First and third don't overlap, so they share a lane; the
        # middle chunk overlaps both and needs its own.
        assert lanes[0] == lanes[2]
        assert lanes[1] != lanes[0]

    def test_profile_spans_keep_per_variant_lanes(self):
        placed = assign_lanes(sample_trace().events)
        by_kind = {
            event.name: lane
            for event, lane in placed
            if event.kind is EventKind.PROFILE_SPAN
        }
        assert by_kind["fast"] != by_kind["slow"]


class TestChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_trace().events, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["event_count"] == 7
        assert isinstance(loaded["traceEvents"], list)

    def test_begin_end_pairs_match_per_lane(self):
        doc = chrome_trace(sample_trace().events)
        stacks = {}
        for record in doc["traceEvents"]:
            if record["ph"] == "B":
                stacks.setdefault(record["tid"], []).append(record)
            elif record["ph"] == "E":
                stack = stacks.get(record["tid"])
                assert stack, f"E without B on tid {record['tid']}"
                begin = stack.pop()
                assert begin["name"] == record["name"]
                assert begin["ts"] <= record["ts"]
        assert all(not stack for stack in stacks.values())

    def test_every_lane_is_named(self):
        doc = chrome_trace(sample_trace().events)
        named = {
            r["tid"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "thread_name"
        }
        used = {r["tid"] for r in doc["traceEvents"] if r["ph"] != "M"}
        assert used <= named

    def test_args_are_json_safe(self):
        t = RecordingTracer()
        t.instant(
            EventKind.GATE_DECISION, "k", 0.0,
            requested=("fully", "async"), note=None, extra={"depth": 2},
        )
        doc = chrome_trace(t.events)
        json.dumps(doc)  # must not raise
        (instant,) = [r for r in doc["traceEvents"] if r["ph"] == "i"]
        assert instant["args"]["requested"] == ["fully", "async"]


class TestTextTimeline:
    def test_renders_all_lanes(self):
        text = text_timeline(sample_trace().events)
        assert "profile fast" in text
        assert "profile slow" in text
        assert "eager" in text
        assert "batch" in text
        assert "[" in text and "]" in text

    def test_empty_trace(self):
        assert text_timeline(()) == "(no events)"


class TestSummarize:
    def test_counters(self):
        summary = summarize(sample_trace().events)
        assert summary.launches == 1
        assert summary.profiled_launches == 1
        assert summary.workload_units == 16
        assert summary.profile_spans == 2
        assert summary.eager_chunks == 1
        assert summary.eager_units == 4
        assert summary.remainder_units == 4
        assert summary.selection_updates == 1
        assert summary.total_elapsed_cycles == 100.0
        assert summary.profiling_latency_cycles == 70.0
        assert summary.profiling_overhead_fraction == pytest.approx(0.7)
        assert summary.eager_utilization == pytest.approx(0.25)
        assert "launches: 1" in summary.format()

    def test_every_kind_is_counted_or_deliberately_uncounted(self):
        """Each kind moves some counter, unless it is listed uncounted."""
        args = {
            "workload_units": 1,
            "elapsed_cycles": 1.0,
            "profiled": True,
            "units": 1,
            "demoted": True,
        }
        empty = dataclasses.asdict(TraceSummary())
        for kind in EventKind:
            t = RecordingTracer()
            if kind in SPAN_KINDS:
                t.span(kind, "k", 0.0, 1.0, **args)
            else:
                t.instant(kind, "k", 0.0, **args)
            summary = dataclasses.asdict(summarize(t.events))
            assert summary.pop("events_by_kind") == {kind.value: 1}
            counted = summary != {
                k: v for k, v in empty.items() if k != "events_by_kind"
            }
            assert counted == (kind not in SUMMARY_UNCOUNTED), kind
        fields = TraceSummary.__dataclass_fields__
        assert all(name in fields for name in SUMMARY_COUNTERS.values())
        assert not SUMMARY_UNCOUNTED & set(SUMMARY_COUNTERS)

    def test_table_counters_bump_once_per_event(self):
        t = RecordingTracer()
        for kind in SUMMARY_COUNTERS:
            t.instant(kind, "k", 0.0)
            t.instant(kind, "k", 1.0)
        summary = summarize(t.events)
        for kind, name in SUMMARY_COUNTERS.items():
            assert getattr(summary, name) == 2, kind
            assert summary.events_by_kind[kind.value] == 2


class TestReconcile:
    def test_consistent_trace_passes(self):
        events = sample_trace().events
        assert reconcile(events) == []
        assert reconcile(events, elapsed_cycles=100.0, workload_units=16) == []

    def test_elapsed_mismatch_reported(self):
        problems = reconcile(sample_trace().events, elapsed_cycles=90.0)
        assert any("90" in p for p in problems)

    def test_unit_mismatch_reported(self):
        t = sample_trace()
        t.span(EventKind.EAGER_CHUNK, "fast", 161.0, 170.0, units=3)
        problems = reconcile(t.events)
        assert any("unit accounting mismatch" in p for p in problems)

    def test_unpaired_launch_reported(self):
        t = RecordingTracer()
        t.instant(EventKind.LAUNCH_BEGIN, "k", 0.0, workload_units=4)
        problems = reconcile(t.events)
        assert any("never ended" in p for p in problems)

    def test_span_escaping_window_reported(self):
        t = RecordingTracer()
        t.instant(EventKind.LAUNCH_BEGIN, "k", 0.0, workload_units=4)
        t.span(EventKind.REMAINDER_BATCH, "v", 5.0, 50.0, units=4)
        t.instant(
            EventKind.LAUNCH_END, "k", 20.0, elapsed_cycles=20.0,
            mode="hybrid",
        )
        problems = reconcile(t.events)
        assert any("after the launch end" in p for p in problems)

    def test_partial_mode_counts_one_shared_slice(self):
        t = RecordingTracer()
        t.instant(EventKind.LAUNCH_BEGIN, "k", 0.0, workload_units=8)
        # Hybrid: both candidates profile the *same* 4-unit slice.
        t.span(EventKind.PROFILE_SPAN, "fast", 1.0, 5.0, units=4)
        t.span(EventKind.PROFILE_SPAN, "slow", 5.0, 12.0, units=4)
        t.span(EventKind.REMAINDER_BATCH, "fast", 13.0, 19.0, units=4)
        t.instant(
            EventKind.LAUNCH_END, "k", 20.0, elapsed_cycles=20.0,
            mode="hybrid",
        )
        assert reconcile(t.events) == []
