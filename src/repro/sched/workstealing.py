"""Work-stealing simulation for ``nonmonotonic:dynamic``.

The paper (Fig. 4c) describes OpenMP 5's nonmonotonic dynamic schedule
as observed through the tiling window: *"tiles are first distributed in
a static manner, but work-stealing is eventually used to correct load
imbalance"*.  We model exactly that: each CPU owns a contiguous block of
the iteration space and consumes it from the front in chunks of ``k``;
a CPU whose block is exhausted steals from the *back* of the block of
the victim with the most remaining iterations (or half the victim's
block with ``steal_half=True`` — the ABL2 ablation knob).

:func:`_steal_dispatch` is the family's one decision point; it emits
dispatch records (:mod:`repro.sched.records`) that
:func:`simulate_stealing` expands into a timeline and
:func:`stealing_makespan` reduces to the makespan.  Its heapq
event-loop oracle is in ``tests/oracles/sched.py``.
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from repro.sched.costmodel import CostModel
from repro.sched.policies import Chunk, NonMonotonicDynamic
from repro.sched.records import Record, SimResult, expand, folder, makespan

__all__ = ["simulate_stealing", "stealing_makespan"]


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
) -> SimResult:
    """Timeline of work stealing; stolen iterations carry ``stolen`` meta."""
    records = _steal_dispatch(costs, policy, ncpus, model, start_time)
    return expand(records, costs, items, base_meta, ncpus)


def stealing_makespan(
    costs: Sequence[float],
    policy: NonMonotonicDynamic,
    ncpus: int,
    model: CostModel,
    start_time: float = 0.0,
) -> float:
    """Makespan of :func:`simulate_stealing` without the timeline."""
    return makespan(_steal_dispatch(costs, policy, ncpus, model, start_time))


def _steal_dispatch(
    costs: Sequence[float],
    policy: NonMonotonicDynamic,
    ncpus: int,
    model: CostModel,
    start_time: float,
) -> list[Record]:
    """Deterministic: ties in free time break by CPU index, victim choice
    is the largest remaining block (ties by lowest CPU index).

    Every dispatch removes its chunk from the blocks, so while items
    remain some block is non-empty and a CPU out of work always finds a
    victim.
    """
    n = len(costs)
    fold = folder(costs)
    blocks = [_Block(b.lo, b.hi) for b in policy.initial_blocks(n, ncpus)]
    k = policy.chunk
    records: list[Record] = []
    free = [(start_time, cpu) for cpu in range(ncpus)]  # sorted: a valid heap
    done = 0
    while done < n:
        t, cpu = heapq.heappop(free)
        own = blocks[cpu]
        stolen = own.remaining == 0
        if not stolen:
            t += model.dispatch_overhead
            chunk = own.take_front(k)
        else:
            victim = blocks[max(range(ncpus), key=lambda i: (blocks[i].remaining, -i))]
            t += model.steal_overhead
            chunk = victim.take_back(
                max(victim.remaining // 2, k) if policy.steal_half else k
            )
        end = fold(t, chunk.lo, chunk.hi)
        records.append((cpu, t, chunk.lo, chunk.hi, stolen, end))
        done += len(chunk)
        heapq.heappush(free, (end, cpu))
    return records
