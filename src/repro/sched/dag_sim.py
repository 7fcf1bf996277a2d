"""List scheduling of task graphs on virtual CPUs.

This is the runtime model behind ``#pragma omp task``: ready tasks are
assigned to idle threads in FIFO submission order.  The resulting
timeline lets EASYVIEW show the diagonal *wave* of connected-components
tasks sweeping the image (paper Fig. 12).

:func:`simulate_dag_policy` extends the model to *worksharing over a
dependency-carrying domain* (wavefront :class:`~repro.core.domains.WorkDomain`
regions): the same per-item loop a schedule policy would chunk, except
items must additionally wait for their predecessors.  ``static``
policies keep their fixed CPU assignment — a CPU simply idles until its
next item's predecessors finish, which is exactly where static loses to
the dynamic family on wavefront DAGs.  The dynamic/guided/stealing
policies all collapse to greedy FIFO list scheduling (a central ready
queue *is* what makes them dynamic; chunking is moot when readiness,
not contiguity, gates execution).

Both models are one engine, :func:`_dag_dispatch`, which emits one
dispatch record (:mod:`repro.sched.records`) per task: a
:class:`~repro.sched.taskgraph.TaskGraph` is FIFO list scheduling of its
costs and preds (task ids are a topological order by construction).
:func:`dag_policy_makespan` reads the records without building a
timeline.  Its heapq event-loop oracles are in ``tests/oracles/sched.py``.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Sequence

from repro.errors import SimulationError
from repro.sched.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sched.policies import DynamicSchedule, SchedulePolicy, StaticSchedule
from repro.sched.records import Record, makespan
from repro.sched.taskgraph import TaskGraph
from repro.sched.timeline import TaskExec, Timeline

__all__ = ["simulate_dag", "simulate_dag_policy", "dag_policy_makespan"]

#: ``#pragma omp task`` regions: greedy FIFO list scheduling
_FIFO = DynamicSchedule()


def simulate_dag(
    graph: TaskGraph,
    ncpus: int,
    *,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> Timeline:
    """Simulate FIFO list scheduling of ``graph`` on ``ncpus`` CPUs.

    Invariants guaranteed (and exploited by tests):

    * a task never starts before all its predecessors have finished;
    * a CPU runs at most one task at a time;
    * no CPU stays idle while a ready task is pending (greediness).

    The timeline lists the tasks in dispatch order.
    """
    nodes = graph.nodes
    records = _dag_dispatch(
        [node.cost for node in nodes], [node.preds for node in nodes],
        _FIFO, ncpus, model, start_time,
    )
    base_meta = dict(meta or {})
    execs = []
    for cpu, t0, tid, _hi, _stolen, t1 in records:
        node = nodes[tid]
        m = {**base_meta, **node.meta, "tid": tid, "preds": sorted(node.preds)}
        execs.append(TaskExec(node.item, cpu, t0, t1, m))
    return Timeline(execs, ncpus=ncpus)


def simulate_dag_policy(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    items: Sequence[Any] | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> Timeline:
    """Timeline of a schedule policy driving a dependency-carrying region.

    Same invariants as :func:`simulate_dag` (no task before its preds,
    one task per CPU at a time) plus policy semantics: ``static`` keeps
    its fixed chunk assignment (idling on unmet dependencies), the
    dynamic family greedily dispatches whatever is ready.  The timeline
    lists the items in index order.
    """
    records = _dag_dispatch(costs, preds, policy, ncpus, model, start_time)
    if items is None:
        items = range(len(costs))
    elif len(items) != len(costs):
        raise SimulationError(f"{len(items)} items for {len(costs)} costs")
    base_meta = dict(meta or {})
    records.sort(key=itemgetter(2))
    execs = []
    for cpu, t0, i, _hi, _stolen, t1 in records:
        m = base_meta.copy()
        m["index"] = i
        m["tid"] = i
        m["preds"] = sorted(preds[i])
        execs.append(TaskExec(items[i], cpu, t0, t1, m))
    return Timeline(execs, ncpus=ncpus)


def dag_policy_makespan(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
) -> float:
    """Makespan of :func:`simulate_dag_policy` without the timeline."""
    return makespan(_dag_dispatch(costs, preds, policy, ncpus, model, start_time))


def _dag_dispatch(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    model: CostModel,
    start_time: float,
) -> list[Record]:
    """One record per task, in dispatch order.

    ``preds[i]`` must only name lower indices (enumeration order is a
    topological order — the :class:`~repro.core.domains.WorkDomain`
    contract), which is what makes the single forward pass of the
    static branch exact and guarantees FIFO list scheduling runs every
    task.
    """
    n = len(costs)
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    if len(preds) != n:
        raise SimulationError(f"{len(preds)} pred lists for {n} costs")
    for i, ps in enumerate(preds):
        for p in ps:
            if not 0 <= p < i:
                raise SimulationError(f"pred {p} of task {i} violates topological order")
    d = model.dispatch_overhead
    finish = [0.0] * n
    records: list[Record] = []

    if isinstance(policy, StaticSchedule):
        # fixed assignment: each CPU runs its chunks in order, paying
        # the dispatch once per chunk and *idling* until the next
        # item's predecessors finish.  One pass in increasing global
        # index is exact: preds and same-CPU predecessors in program
        # order both have lower indices.
        cpu_of = [0] * n
        chunk_head = [False] * n
        for cpu, chunks in enumerate(policy.assignment(n, ncpus)):
            for chunk in chunks:  # never empty
                cpu_of[chunk.lo:chunk.hi] = [cpu] * len(chunk)
                chunk_head[chunk.lo] = True
        free = [start_time] * ncpus
        for i in range(n):
            cpu = cpu_of[i]
            t0 = free[cpu] + (d if chunk_head[i] else 0.0)
            for p in preds[i]:
                if finish[p] > t0:
                    t0 = finish[p]
            t1 = t0 + costs[i]
            finish[i] = free[cpu] = t1
            records.append((cpu, t0, i, i + 1, False, t1))
        return records

    # dynamic family: greedy FIFO list scheduling off a central ready
    # queue, one dispatch per task.  ready: min-heap on (release, tid),
    # FIFO among simultaneously released tasks.
    succs: list[list[int]] = [[] for _ in range(n)]
    for i, ps in enumerate(preds):
        for p in ps:
            succs[p].append(i)
    indeg = [len(ps) for ps in preds]
    ready = [(start_time, i) for i in range(n) if not indeg[i]]  # sorted: a valid heap
    cpus = [(start_time, cpu) for cpu in range(ncpus)]
    while ready:
        rel, i = heapq.heappop(ready)
        free_t, cpu = heapq.heappop(cpus)
        t0 = max(rel, free_t) + d
        t1 = t0 + costs[i]
        finish[i] = t1
        records.append((cpu, t0, i, i + 1, False, t1))
        heapq.heappush(cpus, (t1, cpu))
        for s in succs[i]:
            indeg[s] -= 1
            if not indeg[s]:
                heapq.heappush(ready, (max(finish[p] for p in preds[s]), s))
    return records
