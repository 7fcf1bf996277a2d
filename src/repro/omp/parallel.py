"""``parallel_for``: the OpenMP worksharing loop.

The default (``sim``) backend executes bodies sequentially — measuring
deterministic *work units* — then replays the loop through the
event-driven scheduler to obtain the timeline a real thread team would
produce under the requested ``schedule(...)`` clause.  The ``threads``
backend runs a real ``ThreadPoolExecutor`` team and records wall-clock
times (useful to sanity-check shapes against genuine parallelism; NumPy
tile bodies release the GIL in their inner loops).  The ``procs``
backend (:mod:`repro.omp.procs`) dispatches the same worksharing loops
onto a persistent shared-memory process pool — wall-clock times with
true parallelism even for pure-Python tile bodies.

Perf-mode fast path
-------------------
A kernel may pass ``frame=`` — a whole-frame batch implementation with
signature ``frame(ctx, items) -> works`` (``parallel_reduce``:
``frame(ctx, items) -> (works, value)``).  The frame performs every
side effect the per-item bodies would (image/data writes, change
flags) in one vectorized shot and returns the per-item work vector;
``None`` declines (e.g. an item subset the frame cannot prove safe),
falling back to the reference path.  The fast path engages only when
:meth:`ExecutionContext.fastpath_active` holds — no monitoring, no
tracing, no footprints — and is bit-identical to the reference in every
remaining observable: final images, kernel state, the virtual clock
(the makespan-only scheduler reads the same dispatch records as the
timeline path), the region log,
and the jitter RNG stream.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import access
from repro.errors import ScheduleError
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
    parse_schedule,
)
from repro.sched.dag_sim import simulate_dag_policy
from repro.sched.simulator import SimResult, simulate, simulate_makespan
from repro.sched.timeline import TaskExec, Timeline

__all__ = ["parallel_for", "parallel_reduce"]


def _resolve_policy(ctx, schedule: SchedulePolicy | str | None) -> SchedulePolicy:
    if schedule is None:
        return ctx.policy
    if isinstance(schedule, SchedulePolicy):
        return schedule
    return parse_schedule(schedule)


def parallel_for(
    ctx,
    body: Callable[[Any], float],
    items: Sequence[Any] | None = None,
    *,
    schedule: SchedulePolicy | str | None = None,
    kind: str = "tile",
    frame: Callable | None = None,
) -> SimResult:
    """Distribute ``items`` over the virtual team.

    ``body(item)`` performs the computation and returns its cost in
    *work units* (deterministic, e.g. loop iterations executed); items
    default to the tile grid in collapse(2) order.  ``frame`` is the
    optional whole-frame batch implementation (see the module
    docstring); it replaces the per-item bodies when the perf-mode fast
    path is active.

    Returns the :class:`SimResult` for the region; the context's clock
    advances past the simulated makespan + fork/join overhead.

    When ``items`` is omitted and the context's work domain carries
    dependency edges (wavefront domains), the region is scheduled as a
    policy-aware DAG instead of an independent loop — see
    :func:`_dag_for`.  Explicit item lists (subsets, reordered items)
    always take the independent-loop path, since domain edges are
    defined on whole-domain enumeration order.
    """
    whole_domain = items is None
    items = list(ctx.domain) if items is None else list(items)
    policy = _resolve_policy(ctx, schedule)
    deps = ctx.domain.dependencies() if whole_domain else None
    if deps is not None:
        return _dag_for(ctx, body, items, deps, policy, kind)
    meta = {"iteration": ctx.iteration, "kind": kind}
    if ctx.backend == "threads":
        meta.update(region=ctx.next_region(), rmode="par")
        return _threads_parallel_for(ctx, body, items, policy, meta)
    if ctx.backend == "procs":
        from repro.omp.procs import procs_parallel_for

        meta.update(region=ctx.next_region(), rmode="par")
        return procs_parallel_for(ctx, body, items, policy, meta)

    if frame is not None and ctx.fastpath_active():
        works = frame(ctx, items)
        if works is not None:
            return _fast_region(ctx, np.asarray(works, dtype=np.float64), policy)

    works, footprints = _measure(ctx, body, items)
    if ctx.region_log is not None:
        ctx.region_log.append(("par", works))
    costs = ctx.perturb_costs(ctx.model.times_of(works))
    meta.update(region=ctx.next_region(), rmode="par")
    result = simulate(
        costs,
        policy,
        ctx.nthreads,
        items=items,
        model=ctx.model,
        start_time=ctx.vclock,
        meta=meta,
    )
    end = max(result.timeline.makespan, ctx.vclock)
    ctx.vclock = end + ctx.model.fork_join_overhead
    if result.steals:
        ctx.bus.counter("steals", result.steals)
    ctx.record_timeline(result.timeline, footprints=footprints)
    return result


def _dag_for(ctx, body, items, deps, policy: SchedulePolicy, kind: str) -> SimResult:
    """One worksharing region over a dependency-carrying domain.

    Bodies execute immediately and sequentially in enumeration order —
    a valid topological order by the :class:`WorkDomain` contract — on
    *every* backend, exactly like ``task_region`` bodies do: that is
    what makes wavefront results bit-identical across sim/threads/procs.
    The timeline comes from the policy-aware DAG simulator, which is
    where ``static`` visibly loses to the dynamic family.
    """
    works, footprints = _measure(ctx, body, items)
    if ctx.region_log is not None:
        ctx.region_log.append(("dagp", works, [list(p) for p in deps]))
    costs = ctx.perturb_costs(ctx.model.times_of(works))
    meta = {
        "iteration": ctx.iteration,
        "kind": kind,
        "region": ctx.next_region(),
        "rmode": "dag",
    }
    timeline = simulate_dag_policy(
        costs, deps, policy, ctx.nthreads,
        items=items, model=ctx.model, start_time=ctx.vclock, meta=meta,
    )
    end = max(timeline.makespan, ctx.vclock)
    ctx.vclock = end + ctx.model.fork_join_overhead
    ctx.record_timeline(timeline, footprints=footprints)
    return SimResult(timeline)


def _fast_region(ctx, works: np.ndarray, policy: SchedulePolicy) -> SimResult:
    """Advance the clock past one worksharing region without building a
    timeline: the schedule's makespan over the frame's work vector."""
    costs = ctx.frame_costs(works, "par")
    makespan = simulate_makespan(
        costs, policy, ctx.nthreads, model=ctx.model, start_time=ctx.vclock
    )
    ctx.next_region()
    ctx.fastpath_regions += 1
    ctx.vclock = max(makespan, ctx.vclock) + ctx.model.fork_join_overhead
    return SimResult(Timeline(ncpus=ctx.nthreads), fast_makespan=makespan)


def _measure(ctx, body, items):
    """Run bodies sequentially, measuring work units (and, when the run
    collects footprints, each body's read/write regions)."""
    if not ctx.collect_footprints:
        return [float(body(item) or 0.0) for item in items], None
    works, footprints = [], []
    for item in items:
        with access.collect() as col:
            works.append(float(body(item) or 0.0))
        footprints.append(col.freeze())
    return works, footprints


def parallel_reduce(
    ctx,
    body: Callable[[Any], tuple[float, Any]],
    items: Sequence[Any] | None = None,
    *,
    combine: Callable[[Any, Any], Any],
    init: Any,
    schedule: SchedulePolicy | str | None = None,
    kind: str = "tile",
    frame: Callable | None = None,
):
    """``parallel for reduction(op: acc)``: the race-free way to fold a
    value across a worksharing loop.

    ``body(item)`` returns ``(work_units, value)``; values are combined
    with ``combine`` in deterministic item order (real OpenMP reductions
    are unordered — our determinism is strictly stronger, which tests
    rely on).  Returns ``(sim_result, accumulated)``.

    ``frame(ctx, items)`` may return ``(works, value)`` where ``value``
    is the reduction of all items' values (associativity is already a
    requirement of the construct); the fast path then returns
    ``combine(init, value)``.

    This is the construct kernels should use instead of mutating shared
    state from tile bodies (the "changed" flags of Life/heat) — in real
    OpenMP that mutation needs ``atomic``/``critical``; here the
    reduction expresses the intent.
    """
    whole_domain = items is None
    items = list(ctx.domain) if items is None else list(items)
    deps = ctx.domain.dependencies() if whole_domain else None
    if deps is not None:
        # dependency-carrying domain: fold sequentially in enumeration
        # order (deterministic), schedule as a policy-aware DAG
        acc = init

        def body_dag(item):
            nonlocal acc
            work, value = body(item)
            acc = combine(acc, value)
            return work

        res = _dag_for(ctx, body_dag, items, deps, _resolve_policy(ctx, schedule), kind)
        return res, acc
    if ctx.backend == "procs":
        from repro.omp.procs import procs_parallel_reduce

        return procs_parallel_reduce(
            ctx, body, items, _resolve_policy(ctx, schedule),
            {
                "iteration": ctx.iteration, "kind": kind,
                "region": ctx.next_region(), "rmode": "reduce",
            },
            combine=combine, init=init,
        )
    if frame is not None and ctx.fastpath_active():
        out = frame(ctx, items)
        if out is not None:
            works, value = out
            res = _fast_region(
                ctx, np.asarray(works, dtype=np.float64), _resolve_policy(ctx, schedule)
            )
            return res, combine(init, value)
    acc = init
    works: list[float] = []
    footprints: list | None = [] if ctx.collect_footprints else None

    def wrapped_values():
        nonlocal acc
        for item in items:
            if footprints is not None:
                with access.collect() as col:
                    work, value = body(item)
                footprints.append(col.freeze())
            else:
                work, value = body(item)
            works.append(float(work or 0.0))
            acc = combine(acc, value)

    if ctx.backend == "threads":
        import threading

        lock = threading.Lock()

        def body_threads(item):
            nonlocal acc
            work, value = body(item)
            with lock:
                acc = combine(acc, value)
            return work

        res = _threads_parallel_for(
            ctx, body_threads, items, _resolve_policy(ctx, schedule),
            {
                "iteration": ctx.iteration, "kind": kind,
                "region": ctx.next_region(), "rmode": "reduce",
            },
        )
        return res, acc

    wrapped_values()
    if ctx.region_log is not None:
        ctx.region_log.append(("par", works))
    costs = ctx.perturb_costs(ctx.model.times_of(works))
    res = simulate(
        costs,
        _resolve_policy(ctx, schedule),
        ctx.nthreads,
        items=items,
        model=ctx.model,
        start_time=ctx.vclock,
        meta={
            "iteration": ctx.iteration,
            "kind": kind,
            "region": ctx.next_region(),
            "rmode": "reduce",
        },
    )
    ctx.vclock = max(res.timeline.makespan, ctx.vclock) + ctx.model.fork_join_overhead
    ctx.record_timeline(res.timeline, footprints=footprints)
    return res, acc


# --------------------------------------------------------------------------
# Real-thread backend
# --------------------------------------------------------------------------


def _threads_parallel_for(ctx, body, items, policy, meta) -> SimResult:
    """Run a real thread team; record wall-clock start/end per item.

    Scheduling semantics: ``static`` uses the precomputed assignment;
    every dynamic family policy (dynamic, guided, nonmonotonic) shares a
    central chunk queue — real stealing cannot be faithfully observed
    under the GIL (see DESIGN.md), so the dynamic behaviour is the
    honest common denominator.
    """
    n = len(items)
    nthreads = ctx.nthreads
    records: list[list[tuple[int, float, float]]] = [[] for _ in range(nthreads)]
    # the active footprint collector is thread-local, so each team member
    # records its own tasks; every idx runs exactly once, so the slot
    # writes below never contend
    fps: list | None = [None] * n if ctx.collect_footprints else None

    def run_item(idx: int) -> None:
        if fps is None:
            body(items[idx])
        else:
            with access.collect() as col:
                body(items[idx])
            fps[idx] = col.freeze()

    t0 = time.perf_counter()

    if isinstance(policy, StaticSchedule):
        assignments = policy.assignment(n, nthreads)

        def worker_static(rank: int) -> None:
            recs = records[rank]
            for chunk in assignments[rank]:
                for idx in chunk.indices():
                    s = time.perf_counter() - t0
                    run_item(idx)
                    e = time.perf_counter() - t0
                    recs.append((idx, s, e))

        target, args_of = worker_static, lambda r: (r,)
    else:
        if isinstance(policy, GuidedSchedule):
            queue = policy.chunk_queue(n, nthreads)
        elif isinstance(policy, DynamicSchedule):
            queue = policy.chunk_queue(n)
        elif isinstance(policy, NonMonotonicDynamic):
            queue = DynamicSchedule(policy.chunk).chunk_queue(n)
        else:  # pragma: no cover - parse_schedule covers all kinds
            raise ScheduleError(f"unsupported policy {policy!r}")
        lock = threading.Lock()
        state = {"next": 0}

        def worker_dynamic(rank: int) -> None:
            recs = records[rank]
            while True:
                with lock:
                    qi = state["next"]
                    if qi >= len(queue):
                        return
                    state["next"] = qi + 1
                for idx in queue[qi].indices():
                    s = time.perf_counter() - t0
                    run_item(idx)
                    e = time.perf_counter() - t0
                    recs.append((idx, s, e))

        target, args_of = worker_dynamic, lambda r: (r,)

    threads = [
        threading.Thread(target=target, args=args_of(r), name=f"easypap-{r}")
        for r in range(nthreads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    timeline = Timeline(ncpus=nthreads)
    for rank, recs in enumerate(records):
        for idx, s, e in recs:
            m = dict(meta)
            m["index"] = idx
            timeline.append(TaskExec(items[idx], rank, ctx.vclock + s, ctx.vclock + e, m))
    ctx.vclock += elapsed
    ctx.record_timeline(timeline, footprints=fps)
    return SimResult(timeline, grabs=[], steals=0)
