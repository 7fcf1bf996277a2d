"""Dispatch records: the one output every scheduler family produces.

Each policy family decides its dispatches in exactly one function
(static and queue in :mod:`~repro.sched.simulator`, work stealing in
:mod:`~repro.sched.workstealing`, DAGs in :mod:`~repro.sched.dag_sim`).
That function walks the decisions once and records every chunk it hands
out as a :data:`Record` ``(cpu, start, lo, hi, stolen, end)``: virtual
CPU ``cpu`` runs iterations ``[lo, hi)`` back to back from ``start``
(dispatch or steal overhead already paid) until ``end``.

Timeline consumers expand the records into one :class:`TaskExec` per
iteration (:func:`expand`); perf mode only needs the largest ``end``
(:func:`makespan`).  Both read the same records, so the two paths agree
bit for bit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.sched.policies import Chunk
from repro.sched.timeline import TaskExec, Timeline

__all__ = ["ChunkGrab", "SimResult", "Record", "Fold", "folder", "expand", "makespan"]

#: ``(cpu, start, lo, hi, stolen, end)`` of one dispatched chunk
Record = tuple[int, float, int, int, bool, float]

#: ``fold(t, lo, hi)``: see :func:`folder`
Fold = Callable[[float, int, int], float]

#: below this chunk size a plain Python loop beats building a NumPy array;
#: both produce bit-identical sums, so the cutoff is purely a speed knob
_ACCUMULATE_CUTOFF = 32


class ChunkGrab(NamedTuple):
    """One chunk hand-out: who got iterations ``[lo, hi)``, when, and how.

    A named tuple, not a frozen dataclass: :func:`expand` builds one per
    chunk, and a tuple is several times cheaper to construct.
    """

    cpu: int
    time: float
    lo: int
    hi: int
    stolen: bool = False

    @property
    def chunk(self) -> Chunk:
        return Chunk(self.lo, self.hi)

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass
class SimResult:
    """Timeline plus scheduler-level bookkeeping.

    ``fast_makespan`` is set (and the timeline left empty) when the
    result comes from the perf-mode fast path, which computes the
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


def folder(costs: Sequence[float]) -> Fold:
    """The fold that computes chunk ends: ``fold(t, lo, hi)`` is ``t``
    plus ``costs[lo], ..., costs[hi - 1]``, added one at a time.

    Chunks of at least ``_ACCUMULATE_CUTOFF`` items go through
    ``np.add.accumulate``, which sums strictly left to right, so both
    branches give the float the per-item ``t = t + cost`` loop of
    :func:`expand` gives, bit for bit.  Short chunks add Python floats,
    which is faster than NumPy scalars.  Each form of ``costs`` (list,
    array) is built on first use, so a run of only long or only short
    chunks never converts.
    """
    is_array = isinstance(costs, np.ndarray)
    short = None if is_array else costs
    long = costs if is_array else None

    def fold(t: float, lo: int, hi: int) -> float:
        nonlocal short, long
        if hi - lo < _ACCUMULATE_CUTOFF:
            if short is None:
                short = costs.tolist()
            for cost in short[lo:hi]:
                t += cost
            return t
        if long is None:
            long = np.asarray(costs, dtype=np.float64)
        seg = np.empty(hi - lo + 1)
        seg[0] = t
        seg[1:] = long[lo:hi]
        return float(np.add.accumulate(seg)[-1])

    return fold


def expand(
    records: list[Record],
    costs: Sequence[float],
    items: Sequence[Any],
    base_meta: dict,
    ncpus: int,
) -> SimResult:
    """One :class:`TaskExec` per iteration and one :class:`ChunkGrab`
    per chunk, in dispatch order."""
    execs: list[TaskExec] = []
    grabs: list[ChunkGrab] = []
    steals = 0
    for cpu, t, lo, hi, stolen, _end in records:
        grabs.append(ChunkGrab(cpu, t, lo, hi, stolen))
        steals += stolen
        for idx in range(lo, hi):
            end = t + costs[idx]
            m = base_meta.copy()
            m["index"] = idx
            if stolen:
                m["stolen"] = True
            execs.append(TaskExec(items[idx], cpu, t, end, m))
            t = end
    return SimResult(Timeline(execs, ncpus=ncpus), grabs, steals)


def makespan(records: list[Record]) -> float:
    """Virtual completion time of the records (``0.0`` when empty)."""
    return max((r[5] for r in records), default=0.0)
