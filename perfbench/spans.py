"""Per-layer spans, recorded from outside the program.

The traced run wraps the public entry points of each ``repro`` layer
(see :func:`install`) and records one span per call:
name, start, end, parent span and the op in flight.  Spans stay in
memory and are written out when the run ends.  A layer's *self time*
is the duration of its spans minus the part of that interval their
child spans cover.

Several entry points are imported by name into other modules
(``from repro.sched.simulator import simulate`` in ``repro.omp.parallel``
and ``repro.expt.replay``, ...).  A wrapper installed only on the
defining module would then read zero without any error, so
:class:`Patcher` replaces *every* binding of the original object found
in the loaded ``repro`` modules.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import sys
import threading
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

__all__ = [
    "SpanRecorder", "Patcher", "install", "self_times", "layer_metrics",
    "check_coverage", "EXPECTED_LOAD", "PER_LAYER_METRICS",
]


class SpanRecorder:
    """In-memory span store for the benchmark's single measuring thread.

    A span is ``(id, name, start, end, parent_id)``; ``parent_id`` is
    ``-1`` for a top-level span.  The op a span belongs to is the op
    window its start falls in (:func:`op_of`).  Calls from any other
    thread pass through unrecorded (the workloads drive every layer
    from the main thread).
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, str, float, float, int]] = []
        #: counts measured at the same boundaries as the spans
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next = 0
        self._thread = threading.get_ident()

    def recording(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    def open(self) -> tuple[int, int, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, name: str, token: tuple[int, int, float], *, keep: bool = True) -> None:
        end = perf_counter()
        sid, parent, start = token
        self._stack.pop()
        if keep:
            self.spans.append((sid, name, start, end, parent))

    def call(self, name: str, fn, args, kwargs):
        token = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, token)

    def dump(self, path: Path, ops: list[tuple[float, float]]) -> None:
        """Write the spans as JSON lines, each with its op id (``0`` =
        set-up, ``k`` = the k-th timed op of ``ops``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        starts = [lo for lo, _hi in ops]
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_of(starts, ops, start),
                }) + "\n")


def op_of(starts: list[float], ops: list[tuple[float, float]], t: float) -> int:
    """1-based id of the op window holding instant ``t`` (0 = none)."""
    k = bisect.bisect_right(starts, t) - 1
    return k + 1 if k >= 0 and t < ops[k][1] else 0


def attributed(spans, ops: list[tuple[float, float]]) -> float:
    """Time of the op windows covered by top-level spans.  Top-level
    spans never overlap (one thread), so the overlaps simply add."""
    starts = [lo for lo, _hi in ops]
    total = 0.0
    for _sid, _name, start, end, parent in spans:
        if parent != -1:
            continue
        k = max(bisect.bisect_right(starts, start) - 1, 0)
        while k < len(ops) and ops[k][0] < end:
            lo, hi = ops[k]
            total += max(0.0, min(end, hi) - max(start, lo))
            k += 1
    return total


# -- self time -----------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    bounds = {}
    for sid, _name, start, end, _parent in spans:
        bounds[sid] = (start, end)
    for _sid, _name, start, end, parent in spans:
        if parent in bounds:
            plo, phi = bounds[parent]
            children[parent].append((max(start, plo), min(end, phi)))
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, (start, end) in bounds.items()
    }


# -- patching ------------------------------------------------------------------

class Patcher:
    """Replace every binding of an object across the loaded ``repro``
    modules, and put the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    def function(self, module: str, attr: str, make_wrapper) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make_wrapper(original)
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
                    count += 1
        self.bindings[f"{module}.{attr}"] = count

    def method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))
        self.bindings[f"{cls.__module__}.{cls.__qualname__}.{attr}"] = 1

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _plain(rec: SpanRecorder, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording():
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs)
        return wrapper
    return make


def _spawning(rec: SpanRecorder, name: str):
    """``get_pool``-style lookups: a span only when the call returned a
    pool object never seen before (a spawn); plain lookups are dropped
    so their few microseconds stay in the caller's self time."""
    # weak: a shut-down pool must be free to go (and release its locks)
    seen: weakref.WeakSet = weakref.WeakSet()

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording():
                pool = fn(*args, **kwargs)
                seen.add(pool)
                return pool
            token = rec.open()
            pool = None
            try:
                pool = fn(*args, **kwargs)
                return pool
            finally:
                spawned = pool is not None and pool not in seen
                if pool is not None:
                    seen.add(pool)
                rec.close(name, token, keep=spawned)
        return wrapper
    return make


def _sum_works(works) -> float:
    import numpy as np

    return float(np.asarray(works, dtype=np.float64).sum())


def _loop(rec: SpanRecorder, name: str, *, reduce: bool):
    """Worksharing entry points (``parallel_for`` and friends): a span
    for the call itself, plus spans around the ``body`` and ``frame``
    callables it was handed — the kernel boundary.  Bodies are left
    alone on the procs backend: they must stay picklable and run in
    the workers, out of reach."""

    def wrap_body(body):
        def tile(item):
            token = rec.open()
            try:
                out = body(item)
            finally:
                rec.close("kernels.tile", token)
            work = out[0] if reduce else out
            rec.counts["kernels.tiles"] += 1
            rec.counts["kernels.work_units"] += float(work or 0.0)
            return out
        return tile

    def wrap_frame(frame):
        def whole(ctx, items):
            token = rec.open()
            try:
                out = frame(ctx, items)
            finally:
                rec.close("kernels.frame", token)
            if out is not None:
                works = out[0] if reduce else out
                rec.counts["kernels.fastpath_regions"] += 1
                rec.counts["kernels.tiles"] += len(items)
                rec.counts["kernels.work_units"] += _sum_works(works)
            return out
        return whole

    def make(fn):
        @functools.wraps(fn)
        def wrapper(ctx, body, *args, frame=None, **kwargs):
            if not rec.recording():
                return fn(ctx, body, *args, frame=frame, **kwargs)
            if ctx.backend != "procs":
                body = wrap_body(body)
            if frame is not None:
                frame = wrap_frame(frame)
            token = rec.open()
            try:
                return fn(ctx, body, *args, frame=frame, **kwargs)
            finally:
                rec.close(name, token)
        return wrapper
    return make


def _encode(rec: SpanRecorder, name: str):
    """``save_trace``: a span plus the bytes it wrote."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording():
                return fn(*args, **kwargs)
            path = rec.call(name, fn, args, kwargs)
            rec.counts["trace.bytes"] += os.path.getsize(path)
            return path
        return wrapper
    return make


def install(rec: SpanRecorder) -> Patcher:
    """Wrap every layer entry point the per-layer metrics read.

    Imports every module that binds one of them first, so the binding
    scan sees them all.  Raises if an entry point has no binding.
    """
    for mod in _BINDING_MODULES:
        importlib.import_module(mod)
    from repro.core.context import ExecutionContext
    from repro.monitor.activity import Monitor
    from repro.omp.procs import ProcPool
    from repro.telemetry.bus import TelemetryBus
    from repro.trace.recorder import TraceRecorder

    p = Patcher()
    p.function("repro.core.engine", "run", _plain(rec, "core.run"))
    p.function("repro.omp.parallel", "parallel_for", _loop(rec, "omp.parallel_for", reduce=False))
    p.function("repro.omp.parallel", "parallel_reduce",
               _loop(rec, "omp.parallel_reduce", reduce=True))
    p.method(ExecutionContext, "sequential_for", _loop(rec, "omp.sequential_for", reduce=False))
    p.method(ProcPool, "run_region", _plain(rec, "omp.procs.region"))
    p.function("repro.omp.procs", "get_pool",
               _spawning(rec, "omp.procs.spawn"))
    for mod, attr in (
        ("repro.sched.simulator", "simulate"),
        ("repro.sched.workstealing", "simulate_stealing"),
        ("repro.sched.dag_sim", "simulate_dag"),
        ("repro.sched.dag_sim", "simulate_dag_policy"),
    ):
        p.function(mod, attr, _plain(rec, "sched.event_loop"))
    for mod, attr in (
        ("repro.sched.simulator", "simulate_makespan"),
        ("repro.sched.workstealing", "stealing_makespan"),
        ("repro.sched.dag_sim", "dag_policy_makespan"),
    ):
        p.function(mod, attr, _plain(rec, "sched.closed_form"))
    p.function("repro.mpi.launcher", "mpi_run", _plain(rec, "mpi.run"))
    p.function("repro.mpi.substrate", "get_mpi_pool",
               _spawning(rec, "mpi.spawn"))
    p.method(TelemetryBus, "publish_region", _plain(rec, "telemetry.publish_region"))
    p.method(TelemetryBus, "publish", _plain(rec, "telemetry.publish"))
    p.method(TraceRecorder, "record_exec", _plain(rec, "trace.record"))
    p.function("repro.trace.format", "save_trace", _encode(rec, "trace.encode"))
    p.method(Monitor, "on_region_end", _plain(rec, "monitor.update"))
    p.method(Monitor, "on_iteration_mark", _plain(rec, "monitor.update"))
    p.function("repro.expt.replay", "capture_log", _plain(rec, "expt.capture"))
    p.function("repro.expt.replay", "replay_log", _plain(rec, "expt.replay"))
    p.function("repro.expt.csvdb", "append_rows", _plain(rec, "expt.csv"))
    p.function("repro.expt.executors.base", "run_point", _plain(rec, "expt.point"))
    missing = [k for k, n in p.bindings.items() if n == 0]
    if missing:
        p.restore()
        raise RuntimeError(f"no binding found for {', '.join(missing)}")
    return p


#: modules that bind a wrapped entry point by name; imported before the
#: binding scan so none is missed
_BINDING_MODULES = (
    "repro.core.engine", "repro.core.context", "repro.omp", "repro.omp.parallel",
    "repro.omp.procs", "repro.omp.tasks", "repro.sched", "repro.sched.simulator",
    "repro.sched.workstealing", "repro.sched.dag_sim", "repro.mpi",
    "repro.mpi.launcher", "repro.mpi.substrate", "repro.telemetry.bus",
    "repro.trace", "repro.trace.format", "repro.trace.recorder",
    "repro.monitor.activity", "repro.expt", "repro.expt.replay",
    "repro.expt.csvdb", "repro.expt.exptools", "repro.expt.executors",
    "repro.expt.executors.base", "repro.expt.executors.serial",
    "repro.expt.executors.localprocs", "repro.expt.executors.socketexec",
    "repro.cli",
)


# -- metrics -------------------------------------------------------------------

#: per-layer metric -> (unit, better); the order of BENCHMARK.json
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "kernels.frame_s": ("s", "lower"),
    "kernels.frame_calls": ("count", "lower"),
    "kernels.tile_s": ("s", "lower"),
    "kernels.tiles": ("count", "lower"),
    "kernels.work_units": ("count", "lower"),
    "kernels.fastpath_ratio": ("ratio", "higher"),
    "sched.event_loop_s": ("s", "lower"),
    "sched.event_loop_calls": ("count", "lower"),
    "sched.closed_form_s": ("s", "lower"),
    "sched.closed_form_calls": ("count", "lower"),
    "omp.dispatch_self_s": ("s", "lower"),
    "omp.regions": ("count", "lower"),
    "omp.procs.region_s": ("s", "lower"),
    "omp.procs.regions": ("count", "lower"),
    "omp.procs.spawn_s": ("s", "lower"),
    "omp.procs.spawns": ("count", "lower"),
    "mpi.run_s": ("s", "lower"),
    "mpi.spawn_s": ("s", "lower"),
    "mpi.msgs": ("count", "lower"),
    "mpi.bytes": ("bytes", "lower"),
    "mpi.collectives": ("count", "lower"),
    "telemetry.publish_s": ("s", "lower"),
    "telemetry.regions": ("count", "lower"),
    "telemetry.dropped_events": ("count", "lower"),
    "trace.record_s": ("s", "lower"),
    "trace.events": ("count", "lower"),
    "trace.encode_s": ("s", "lower"),
    "trace.bytes": ("bytes", "lower"),
    "monitor.update_s": ("s", "lower"),
    "expt.capture_s": ("s", "lower"),
    "expt.captures": ("count", "lower"),
    "expt.replay_s": ("s", "lower"),
    "expt.replays": ("count", "lower"),
    "expt.csv_s": ("s", "lower"),
    "expt.point_self_s": ("s", "lower"),
    "core.run_self_s": ("s", "lower"),
    "bench.unattributed_s": ("s", "lower"),
    "bench.trace_overhead": ("ratio", "higher"),
}

_OMP_LOOPS = ("omp.parallel_for", "omp.parallel_reduce", "omp.sequential_for")

#: span-name -> (self-time metric, call-count metric or None)
_SPAN_METRICS = {
    "kernels.frame": ("kernels.frame_s", "kernels.frame_calls"),
    "kernels.tile": ("kernels.tile_s", None),
    "sched.event_loop": ("sched.event_loop_s", "sched.event_loop_calls"),
    "sched.closed_form": ("sched.closed_form_s", "sched.closed_form_calls"),
    **{name: ("omp.dispatch_self_s", "omp.regions") for name in _OMP_LOOPS},
    "omp.procs.region": ("omp.procs.region_s", "omp.procs.regions"),
    "omp.procs.spawn": ("omp.procs.spawn_s", "omp.procs.spawns"),
    "mpi.run": ("mpi.run_s", None),
    "mpi.spawn": ("mpi.spawn_s", None),
    "telemetry.publish_region": ("telemetry.publish_s", "telemetry.regions"),
    "telemetry.publish": ("telemetry.publish_s", None),
    "trace.record": ("trace.record_s", "trace.events"),
    "trace.encode": ("trace.encode_s", None),
    "monitor.update": ("monitor.update_s", None),
    "expt.capture": ("expt.capture_s", "expt.captures"),
    "expt.replay": ("expt.replay_s", "expt.replays"),
    "expt.csv": ("expt.csv_s", None),
    "expt.point": ("expt.point_self_s", None),
    "core.run": ("core.run_self_s", None),
}

#: per workload, the spans that must carry load in its traced run
EXPECTED_LOAD: dict[str, tuple[str, ...]] = {
    "perf_mandel": ("core.run", "omp.parallel_for", "kernels.frame", "sched.closed_form"),
    "traced_life": (
        "core.run", "omp.parallel_for", "kernels.tile", "sched.event_loop",
        "telemetry.publish_region", "trace.record", "trace.encode", "monitor.update",
    ),
    "procs_mpi": (
        "core.run", "omp.parallel_for", "omp.procs.region", "omp.procs.spawn",
        "mpi.run", "mpi.spawn",
    ),
    "sweep_fig6": (
        "expt.point", "expt.capture", "expt.replay", "expt.csv",
        "sched.event_loop", "kernels.frame",
    ),
}


def span_calls(spans) -> dict[str, int]:
    calls: dict[str, int] = defaultdict(int)
    for _sid, name, *_ in spans:
        calls[name] += 1
    return calls


def check_coverage(workload: str, spans) -> list[str]:
    """Expected-load spans that recorded zero calls (empty = pass)."""
    calls = span_calls(spans)
    return [name for name in EXPECTED_LOAD[workload] if calls.get(name, 0) == 0]


def layer_metrics(rec: SpanRecorder, *, counters: dict, ops: list[tuple[float, float]],
                  trace_overhead: float) -> dict[str, float]:
    """Fold the recorded spans and counts into :data:`PER_LAYER_METRICS`.

    ``counters`` carries the program-side counts read from run results
    (MPI world counters, dropped telemetry events); ``ops`` holds the
    ``(start, end)`` window of every timed op, for the wall left
    outside any layer span.
    """
    out = {name: 0.0 for name in PER_LAYER_METRICS}
    selfs = self_times(rec.spans)
    for sid, name, _start, _end, _parent in rec.spans:
        time_metric, count_metric = _SPAN_METRICS[name]
        out[time_metric] += selfs[sid]
        if count_metric is not None:
            out[count_metric] += 1
    for key in ("kernels.tiles", "kernels.work_units", "trace.bytes"):
        out[key] = rec.counts.get(key, 0)
    regions = out["omp.regions"]
    out["kernels.fastpath_ratio"] = (
        rec.counts.get("kernels.fastpath_regions", 0) / regions if regions else 0.0
    )
    out.update(counters)
    wall = sum(hi - lo for lo, hi in ops)
    out["bench.unattributed_s"] = wall - attributed(rec.spans, ops)
    out["bench.trace_overhead"] = trace_overhead
    return out
