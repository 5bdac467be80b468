"""Host-time spans around each serving layer, recorded from outside.

The benchmark does not edit the program to trace it.  ``LayerTracer``
replaces each layer's public entry point, at the name its caller looks
up, with a wrapper that records one span per call: layer name, start and
end (``time.perf_counter_ns``), parent span and request id.  The root
span is :meth:`repro.serve.LaunchScheduler.launch`; every span opened
on the same thread while a root is open belongs to that request.  Spans
opened outside any request (set-up, warm-up) are not recorded.

Spans stay in memory; :func:`layer_report` folds them into per-layer
self times once the traced phase is over, and checks that they nest:
one root per request, children inside their parent's interval, and
every layer's self time plus the root's own remainder summing to the
root span's duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.analyze.manager as analyze_manager
import repro.core.policy as core_policy
import repro.core.runtime as core_runtime
import repro.device.cost as device_cost
import repro.device.engine as device_engine
import repro.kernel.kernel as kernel_mod
import repro.serve.qos as serve_qos
import repro.serve.scheduler as serve_scheduler
import repro.serve.store as serve_store

#: Root layer: everything a request spends inside ``launch`` that no
#: named child layer claims is this layer's self time.
ROOT = "serve.scheduler"

#: Engine entry points besides ``submit`` (waits, polls, cancels).
_ENGINE_METHODS = (
    "wait",
    "wait_all",
    "wait_deadline",
    "poll",
    "barrier",
    "cancel",
    "host_compute",
)

#: ``(owner, attribute, layer)``: the owner is the module or class the
#: caller resolves the name through.  ``runtime`` calls ``policy.decide``
#: through the module, and the scheduler imported ``derive_signature``
#: and ``decide_placement`` into its own namespace, so those are patched
#: where they are looked up, not where they are defined.
PATCH_POINTS: Tuple[Tuple[object, str, str], ...] = (
    (serve_scheduler.LaunchScheduler, "launch", ROOT),
    (serve_qos.AdmissionController, "admit", "serve.qos.admit"),
    (serve_scheduler, "derive_signature", "serve.signature"),
    (serve_store.SelectionStore, "lookup", "serve.store.lookup"),
    (serve_store.SelectionStore, "peek", "serve.store.peek"),
    (serve_store.SelectionStore, "publish", "serve.store.publish"),
    (serve_scheduler, "decide_placement", "core.policy.placement"),
    (core_runtime.DySelRuntime, "launch_kernel", "core.runtime"),
    (core_policy, "decide", "core.policy.decide"),
    (analyze_manager.PoolVerifier, "verify", "analyze.gate"),
    (core_runtime, "gate_launch", "analyze.gate"),
    (core_runtime, "run_sync", "core.orchestrator"),
    (core_runtime, "run_async", "core.orchestrator"),
    (device_engine.ExecutionEngine, "submit", "device.engine.submit"),
    *(
        (device_engine.ExecutionEngine, name, "device.engine.sync")
        for name in _ENGINE_METHODS
    ),
    (device_cost.CostModel, "workgroup_cycles", "device.cost"),
    (kernel_mod.KernelVariant, "execute", "kernel.execute"),
)

#: One recorded span: (layer, start_ns, end_ns, span_id, parent_id,
#: request_id, result).  ``result`` is kept only for store lookups (hit
#: or miss) and is ``None`` otherwise.
Span = Tuple[str, int, int, int, Optional[int], int, object]


class LayerTracer:
    """Patch every layer entry point; record spans while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        is_root = layer == ROOT
        keep_result = layer == "serve.store.lookup"
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack and not is_root:
                return fn(*args, **kwargs)
            sid = next(ids)
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = None, sid
            stack.append((sid, rid))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (
                        layer,
                        start,
                        end,
                        sid,
                        parent,
                        rid,
                        (result is not None) if keep_result else None,
                    )
                )

        return traced

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every entry point for the ``with`` body, then restore."""
        saved = []
        try:
            for owner, name, layer in PATCH_POINTS:
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def layer_report(spans: List[Span]) -> Tuple[Dict[str, float], List[str]]:
    """Fold spans into per-layer totals; return them and any defects.

    Totals are keyed ``<layer>.self_ns`` (summed self time) and
    ``<layer>.calls``, plus ``requests``, ``root_ns`` (summed root
    duration) and ``store.lookups``/``store.hits``.
    """
    defects: List[str] = []
    by_id = {span[3]: span for span in spans}
    child_ns: Dict[int, int] = {}
    roots: Dict[int, int] = {}
    for layer, start, end, sid, parent, rid, _ in spans:
        if end < start:
            defects.append(f"span {sid} ({layer}) ends before it starts")
        if parent is None:
            if layer != ROOT:
                defects.append(f"root span {sid} is {layer}, not {ROOT}")
            roots[rid] = roots.get(rid, 0) + 1
            continue
        outer = by_id.get(parent)
        if outer is None:
            defects.append(f"span {sid} ({layer}) has no recorded parent")
            continue
        if start < outer[1] or end > outer[2]:
            defects.append(f"span {sid} ({layer}) escapes its parent")
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    for rid, count in roots.items():
        if count != 1:
            defects.append(f"request {rid} has {count} root spans")

    totals: Dict[str, float] = {"requests": len(roots), "root_ns": 0}
    per_request_self: Dict[int, int] = {}
    lookups = hits = 0
    for layer, start, end, sid, parent, rid, result in spans:
        own = (end - start) - child_ns.get(sid, 0)
        if own < 0:
            defects.append(f"span {sid} ({layer}) has negative self time")
        totals[f"{layer}.self_ns"] = totals.get(f"{layer}.self_ns", 0) + own
        totals[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0) + 1
        per_request_self[rid] = per_request_self.get(rid, 0) + own
        if parent is None:
            totals["root_ns"] += end - start
        if layer == "serve.store.lookup":
            lookups += 1
            hits += int(bool(result))
    for rid, own in per_request_self.items():
        root = by_id.get(rid)
        if root is not None and own != root[2] - root[1]:
            defects.append(
                f"request {rid}: layer self times sum to {own} ns, "
                f"root span lasts {root[2] - root[1]} ns"
            )
    totals["store.lookups"] = lookups
    totals["store.hits"] = hits
    return totals, defects
