"""Simulation of OpenMP loop scheduling.

Given per-item costs and a :class:`~repro.sched.policies.SchedulePolicy`,
:func:`simulate` computes the exact timeline a pool of ``ncpus`` virtual
CPUs would produce for every policy of the paper's Fig. 4, so timelines
are directly comparable.

Each policy family decides its dispatches in one function that emits
dispatch records (:mod:`repro.sched.records`): :func:`_static_dispatch`
for ``static``, :func:`_queue_dispatch` for ``dynamic``/``guided``, and
:func:`~repro.sched.workstealing._steal_dispatch` for
``nonmonotonic:dynamic``.  :func:`simulate` expands the records into a
timeline; :func:`simulate_makespan`, the perf-mode entry, reads only the
largest chunk end and builds no :class:`TaskExec`.  Both walk the same
decisions, so the two makespans are bit-identical.

The simulation is fully deterministic: ties between CPUs becoming free
at the same instant are broken by CPU index, mirroring the determinism
of a barrier-released thread team grabbing chunks in rank order.
Exact-equality properties check the engine against the heapq event-loop
oracles in ``tests/oracles/sched.py``.
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from repro.errors import SimulationError
from repro.sched.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sched.policies import (
    Chunk,
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
)
from repro.sched.records import ChunkGrab, Fold, Record, SimResult, expand, folder, makespan
from repro.sched.workstealing import simulate_stealing, stealing_makespan

__all__ = ["simulate", "simulate_makespan", "SimResult", "ChunkGrab"]


def simulate(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    items: Sequence[Any] | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> SimResult:
    """Simulate scheduling ``len(costs)`` independent iterations.

    Parameters
    ----------
    costs:
        Virtual-seconds cost of each iteration of the collapsed loop.
    items:
        Objects attached to each iteration in the resulting timeline
        (defaults to the integer indices).
    model:
        Supplies dispatch/steal overheads (conversion from work units
        must already have been applied to ``costs``).
    meta:
        Extra annotations copied into every :class:`TaskExec`.
    """
    n = len(costs)
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    if items is None:
        items = range(n)
    elif len(items) != n:
        raise SimulationError(f"{len(items)} items for {n} costs")
    base_meta = dict(meta or {})
    if isinstance(policy, NonMonotonicDynamic):
        return simulate_stealing(costs, policy, ncpus, items, model, start_time, base_meta)
    records = _dispatch(costs, policy, ncpus, model, start_time)
    return expand(records, costs, items, base_meta, ncpus)


def simulate_makespan(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
) -> float:
    """Makespan of :func:`simulate`, bit-identical, without the timeline."""
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    if isinstance(policy, NonMonotonicDynamic):
        return stealing_makespan(costs, policy, ncpus, model, start_time)
    return makespan(_dispatch(costs, policy, ncpus, model, start_time))


def _dispatch(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    model: CostModel,
    start_time: float,
) -> list[Record]:
    n = len(costs)
    fold = folder(costs)
    d = model.dispatch_overhead
    if isinstance(policy, StaticSchedule):
        return _static_dispatch(policy.assignment(n, ncpus), fold, d, start_time)
    if isinstance(policy, GuidedSchedule):
        return _queue_dispatch(policy.chunk_queue(n, ncpus), ncpus, fold, d, start_time)
    if isinstance(policy, DynamicSchedule):
        return _queue_dispatch(policy.chunk_queue(n), ncpus, fold, d, start_time)
    raise SimulationError(f"unsupported policy {policy!r}")


def _static_dispatch(
    assignment: list[list[Chunk]], fold: Fold, d: float, start_time: float
) -> list[Record]:
    """Each CPU runs its fixed chunk list in order, one dispatch per chunk."""
    records: list[Record] = []
    for cpu, chunks in enumerate(assignment):
        t = start_time
        for chunk in chunks:
            t += d
            end = fold(t, chunk.lo, chunk.hi)
            records.append((cpu, t, chunk.lo, chunk.hi, False, end))
            t = end
    return records


def _queue_dispatch(
    queue: list[Chunk], ncpus: int, fold: Fold, d: float, start_time: float
) -> list[Record]:
    """The earliest-free CPU grabs the next chunk of the queue; ties
    resolve by CPU rank, as a team leaving a barrier would race
    deterministically in our model."""
    records: list[Record] = []
    free = [(start_time, cpu) for cpu in range(ncpus)]  # sorted: a valid heap
    for chunk in queue:
        t, cpu = heapq.heappop(free)
        t += d
        end = fold(t, chunk.lo, chunk.hi)
        records.append((cpu, t, chunk.lo, chunk.hi, False, end))
        heapq.heappush(free, (end, cpu))
    return records
