"""The heapq event loops the scheduler engine replaced, kept verbatim
as oracles.

Each function here simulates one policy family the way
:mod:`repro.sched` did before its families shared one dispatch-record
engine: a min-heap of CPU free times, one :class:`TaskExec` appended per
iteration as the loop goes.  The exact-equality properties in
``tests/test_simulator.py`` and ``tests/test_dag_sim.py`` hold the
engine to these timelines, grabs, steal counts and makespans, float for
float.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
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
from repro.sched.taskgraph import TaskGraph
from repro.sched.timeline import TaskExec, Timeline

__all__ = [
    "ChunkGrab", "SimResult", "simulate", "simulate_stealing", "simulate_dag",
    "simulate_dag_policy",
]


@dataclass(frozen=True)
class ChunkGrab:
    """One chunk hand-out: who got which range, when, and how."""

    cpu: int
    time: float
    chunk: Chunk
    stolen: bool = False

    @property
    def size(self) -> int:
        return len(self.chunk)


@dataclass
class SimResult:
    """Timeline plus scheduler-level bookkeeping.

    ``fast_makespan`` is set (and the timeline left empty) when the
    result comes from the closed-form fast path, which computes the
    makespan without materializing per-task executions.
    """

    timeline: Timeline
    grabs: list[ChunkGrab] = field(default_factory=list)
    steals: int = 0
    fast_makespan: float | None = None

    @property
    def makespan(self) -> float:
        if self.fast_makespan is not None:
            return self.fast_makespan
        return self.timeline.makespan

    def chunk_sizes(self) -> list[int]:
        """Chunk sizes in grab order (guided: non-increasing, Fig. 4d)."""
        ordered = sorted(self.grabs, key=lambda g: (g.time, g.cpu))
        return [g.size for g in ordered]


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
        items = list(range(n))
    elif len(items) != n:
        raise SimulationError(
            f"{len(items)} items for {n} costs"
        )
    base_meta = dict(meta or {})

    if isinstance(policy, StaticSchedule):
        result = _simulate_static(costs, policy, ncpus, items, model, start_time, base_meta)
    elif isinstance(policy, NonMonotonicDynamic):
        result = simulate_stealing(
            costs, policy, ncpus, items, model, start_time, base_meta, ChunkGrab, SimResult
        )
    elif isinstance(policy, (DynamicSchedule, GuidedSchedule)):
        result = _simulate_queue(costs, policy, ncpus, items, model, start_time, base_meta)
    else:
        raise SimulationError(f"unsupported policy {policy!r}")
    return result


def _run_chunk(
    timeline: Timeline,
    chunk: Chunk,
    cpu: int,
    t: float,
    costs: Sequence[float],
    items: Sequence[Any],
    base_meta: dict,
    stolen: bool = False,
) -> float:
    """Execute a chunk's iterations back-to-back on ``cpu`` from time ``t``."""
    for idx in chunk.indices():
        end = t + costs[idx]
        m = dict(base_meta)
        m["index"] = idx
        if stolen:
            m["stolen"] = True
        timeline.append(TaskExec(items[idx], cpu, t, end, m))
        t = end
    return t


def _simulate_static(
    costs: Sequence[float],
    policy: StaticSchedule,
    ncpus: int,
    items: Sequence[Any],
    model: CostModel,
    start_time: float,
    base_meta: dict,
) -> SimResult:
    timeline = Timeline(ncpus=ncpus)
    grabs: list[ChunkGrab] = []
    assignment = policy.assignment(len(costs), ncpus)
    for cpu, chunks in enumerate(assignment):
        t = start_time
        for chunk in chunks:
            t += model.dispatch_overhead
            grabs.append(ChunkGrab(cpu, t, chunk))
            t = _run_chunk(timeline, chunk, cpu, t, costs, items, base_meta)
    return SimResult(timeline, grabs)


def _simulate_queue(
    costs: Sequence[float],
    policy: DynamicSchedule | GuidedSchedule,
    ncpus: int,
    items: Sequence[Any],
    model: CostModel,
    start_time: float,
    base_meta: dict,
) -> SimResult:
    n = len(costs)
    if isinstance(policy, GuidedSchedule):
        queue = policy.chunk_queue(n, ncpus)
    else:
        queue = policy.chunk_queue(n)
    timeline = Timeline(ncpus=ncpus)
    grabs: list[ChunkGrab] = []
    # min-heap of (free_time, cpu): the earliest-free CPU grabs the next chunk;
    # ties resolve by cpu rank, as a real team leaving a barrier would race
    # deterministically in our model.
    heap: list[tuple[float, int]] = [(start_time, cpu) for cpu in range(ncpus)]
    heapq.heapify(heap)
    qi = 0
    while qi < len(queue):
        t, cpu = heapq.heappop(heap)
        chunk = queue[qi]
        qi += 1
        t += model.dispatch_overhead
        grabs.append(ChunkGrab(cpu, t, chunk))
        t = _run_chunk(timeline, chunk, cpu, t, costs, items, base_meta)
        heapq.heappush(heap, (t, cpu))
    return SimResult(timeline, grabs)


class _Block:
    """A [lo, hi) range consumed from both ends (owner: front, thief: back)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    @property
    def remaining(self) -> int:
        return max(self.hi - self.lo, 0)

    def take_front(self, k: int) -> Chunk:
        lo = self.lo
        hi = min(lo + k, self.hi)
        self.lo = hi
        return Chunk(lo, hi)

    def take_back(self, k: int) -> Chunk:
        hi = self.hi
        lo = max(hi - k, self.lo)
        self.hi = lo
        return Chunk(lo, hi)


def simulate_stealing(
    costs: Sequence[float],
    policy: NonMonotonicDynamic,
    ncpus: int,
    items: Sequence[Any],
    model: CostModel,
    start_time: float,
    base_meta: dict,
    grab_cls,
    result_cls,
    record_tasks: bool = True,
):
    """Event-driven simulation; returns a ``SimResult``.

    Deterministic: ties in free time break by CPU index, victim choice
    is the largest remaining block (ties by lowest CPU index).

    With ``record_tasks=False`` (the perf-mode fast path: stealing has
    no closed form, but nobody reads the timeline) the per-task records
    and their meta dicts are skipped; the result carries the makespan in
    ``fast_makespan`` and an empty timeline.  The event loop itself is
    identical either way, so the makespan is bit-for-bit the same.
    """
    n = len(costs)
    timeline = Timeline(ncpus=ncpus)
    grabs = []
    steals = 0
    makespan = 0.0
    blocks = [_Block(c.lo, c.hi) for c in policy.initial_blocks(n, ncpus)]
    k = policy.chunk

    # Inline chunk execution (kept local to avoid an import cycle with
    # simulator.py, which imports this module).
    def run_chunk(chunk: Chunk, cpu: int, t: float, stolen: bool) -> float:
        if not record_tasks:
            for idx in chunk.indices():
                t = t + costs[idx]
            return t
        for idx in chunk.indices():
            end = t + costs[idx]
            m = dict(base_meta)
            m["index"] = idx
            if stolen:
                m["stolen"] = True
            timeline.append(TaskExec(items[idx], cpu, t, end, m))
            t = end
        return t

    heap: list[tuple[float, int]] = [(start_time, cpu) for cpu in range(ncpus)]
    heapq.heapify(heap)
    done = 0
    parked: list[tuple[float, int]] = []
    while done < n:
        if not heap:  # pragma: no cover - defensive; cannot happen while done < n
            break
        t, cpu = heapq.heappop(heap)
        own = blocks[cpu]
        if own.remaining > 0:
            t += model.dispatch_overhead
            chunk = own.take_front(k)
            grabs.append(grab_cls(cpu, t, chunk, stolen=False))
            t = run_chunk(chunk, cpu, t, stolen=False)
            done += len(chunk)
            if t > makespan:
                makespan = t
            heapq.heappush(heap, (t, cpu))
            continue
        # Steal: pick the victim with the most remaining work.
        victim = max(range(ncpus), key=lambda c: (blocks[c].remaining, -c))
        if blocks[victim].remaining == 0:
            # Nothing left anywhere *right now*; but other CPUs scheduled
            # later in the heap may still hold unconsumed front chunks —
            # they don't (blocks are global state), so this CPU is done.
            parked.append((t, cpu))
            continue
        t += model.steal_overhead
        amount = max(blocks[victim].remaining // 2, k) if policy.steal_half else k
        chunk = blocks[victim].take_back(amount)
        steals += 1
        grabs.append(grab_cls(cpu, t, chunk, stolen=True))
        t = run_chunk(chunk, cpu, t, stolen=True)
        done += len(chunk)
        if t > makespan:
            makespan = t
        heapq.heappush(heap, (t, cpu))
    return result_cls(timeline, grabs, steals, None if record_tasks else makespan)


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
    """
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    n = len(graph)
    base_meta = dict(meta or {})
    timeline = Timeline(ncpus=ncpus)
    if n == 0:
        return timeline

    indeg = [len(node.preds) for node in graph.nodes]
    finish = [0.0] * n
    # ready: min-heap on (release_time, tid) — FIFO among simultaneously
    # released tasks thanks to increasing tids within a wave.
    ready: list[tuple[float, int]] = [
        (start_time, tid) for tid, d in enumerate(indeg) if d == 0
    ]
    heapq.heapify(ready)
    # idle CPUs: (free_time, cpu)
    cpus: list[tuple[float, int]] = [(start_time, c) for c in range(ncpus)]
    heapq.heapify(cpus)

    scheduled = 0
    while ready:
        rel, tid = heapq.heappop(ready)
        free_t, cpu = heapq.heappop(cpus)
        node = graph.nodes[tid]
        t0 = max(rel, free_t) + model.dispatch_overhead
        t1 = t0 + node.cost
        m = dict(base_meta)
        m.update(node.meta)
        m["tid"] = tid
        m["preds"] = sorted(node.preds)
        timeline.append(TaskExec(node.item, cpu, t0, t1, m))
        finish[tid] = t1
        heapq.heappush(cpus, (t1, cpu))
        scheduled += 1
        for s in sorted(node.succs):
            indeg[s] -= 1
            if indeg[s] == 0:
                release = max(finish[p] for p in graph.nodes[s].preds)
                heapq.heappush(ready, (release, s))
    if scheduled != n:
        raise SimulationError(
            f"scheduled {scheduled}/{n} tasks — graph has a cycle?"
        )
    return timeline


def _schedule_policy(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    model: CostModel,
    start_time: float,
) -> list[tuple[int, float, float]]:
    """Per-task ``(cpu, start, finish)`` of policy-aware DAG scheduling.

    ``preds[i]`` must only name lower indices (enumeration order is a
    topological order — the :class:`~repro.core.domains.WorkDomain`
    contract), which is what makes the single forward pass below exact.
    """
    n = len(costs)
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    if len(preds) != n:
        raise SimulationError(f"{len(preds)} pred lists for {n} costs")
    out: list[tuple[int, float, float]] = [(0, start_time, start_time)] * n
    if n == 0:
        return out
    d = model.dispatch_overhead
    finish = [0.0] * n

    if isinstance(policy, StaticSchedule):
        # fixed assignment: each CPU runs its chunks in order, paying
        # the dispatch once per chunk and *idling* until the next
        # item's predecessors finish.  One pass in increasing global
        # index is exact: preds and same-CPU predecessors in program
        # order both have lower indices.
        cpu_of = [0] * n
        chunk_head = [False] * n
        for cpu, chunks in enumerate(policy.assignment(n, ncpus)):
            for chunk in chunks:
                first = True
                for idx in chunk.indices():
                    if idx < 0 or idx >= n:
                        raise SimulationError(f"task index {idx} out of range")
                    cpu_of[idx] = cpu
                    chunk_head[idx] = first
                    first = False
        free = [start_time] * ncpus
        for i in range(n):
            for p in preds[i]:
                if not 0 <= p < i:
                    raise SimulationError(
                        f"pred {p} of task {i} violates topological order"
                    )
            cpu = cpu_of[i]
            t0 = free[cpu] + (d if chunk_head[i] else 0.0)
            for p in preds[i]:
                if finish[p] > t0:
                    t0 = finish[p]
            t1 = t0 + costs[i]
            finish[i] = t1
            free[cpu] = t1
            out[i] = (cpu, t0, t1)
        return out

    # dynamic family (dynamic/guided/nonmonotonic): greedy FIFO list
    # scheduling off a central ready queue, one dispatch per task
    nsuccs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, ps in enumerate(preds):
        for p in ps:
            if not 0 <= p < i:
                raise SimulationError(
                    f"pred {p} of task {i} violates topological order"
                )
            nsuccs[p].append(i)
            indeg[i] += 1
    ready: list[tuple[float, int]] = [
        (start_time, i) for i in range(n) if indeg[i] == 0
    ]
    heapq.heapify(ready)
    cpus: list[tuple[float, int]] = [(start_time, c) for c in range(ncpus)]
    heapq.heapify(cpus)
    scheduled = 0
    while ready:
        rel, i = heapq.heappop(ready)
        free_t, cpu = heapq.heappop(cpus)
        t0 = max(rel, free_t) + d
        t1 = t0 + costs[i]
        finish[i] = t1
        out[i] = (cpu, t0, t1)
        heapq.heappush(cpus, (t1, cpu))
        scheduled += 1
        for s in nsuccs[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                release = max(finish[p] for p in preds[s])
                heapq.heappush(ready, (release, s))
    if scheduled != n:
        raise SimulationError(
            f"scheduled {scheduled}/{n} tasks — graph has a cycle?"
        )
    return out


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
    dynamic family greedily dispatches whatever is ready.
    """
    slots = _schedule_policy(costs, preds, policy, ncpus, model, start_time)
    if items is None:
        items = list(range(len(costs)))
    elif len(items) != len(costs):
        raise SimulationError(f"{len(items)} items for {len(costs)} costs")
    base_meta = dict(meta or {})
    timeline = Timeline(ncpus=ncpus)
    for i, (cpu, t0, t1) in enumerate(slots):
        m = dict(base_meta)
        m["index"] = i
        m["tid"] = i
        m["preds"] = sorted(preds[i])
        timeline.append(TaskExec(items[i], cpu, t0, t1, m))
    return timeline
