"""Host-speed calibration: a fixed reference task timed beside the program.

The benchmark runs on a few vCPUs of a shared host, and the speed at
which those vCPUs execute drifts over seconds to minutes as neighbours
load the physical cores.  The guest cannot see it: CPU time equals wall
time, steal reads zero and a busy loop shows no pauses, yet one fixed
command takes anywhere from 1x to 2x its idle time.  Raw wall times
then measure the neighbours as much as the program.

So every timed run also times a fixed task of its own, interleaved
with the commands: about :data:`SHARE` seconds of it per second of
command time.  The ratio of the task's reference time to its measured
time is the host's speed over the same stretch of wall clock.  Reported
times are the measured ones multiplied by that ratio: seconds on a host
where one unit takes :data:`UNIT_REF_S`.  The task is part of the
benchmark, not of the program, so a change to the program moves the
command times and leaves the task alone.  How much of the drift this
cancels depends on how alike the task and the program respond to a
loaded core; see :func:`unit`.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

#: seconds one :func:`unit` takes on the reference host, a constant
#: close to its time on an idle 2-vCPU x86-64 VM (Python 3.11, numpy
#: 2.4); reported times are expressed on that host
UNIT_REF_S = 0.005
#: calibration seconds run per second of command time
SHARE = 0.25

_C = np.linspace(-2.0, 0.5, 256)[None, :] + 1j * np.linspace(-1.2, 1.2, 256)[:, None]
_WORK = [(i * 2654435761) % 997 + 1 for i in range(1024)]


def unit() -> float:
    """One unit of reference work, shaped like the program's two hot
    paths: a whole-frame masked Mandelbrot iteration on a 256x256 grid
    (the kernels' numpy fast path) and a heap-driven list-scheduling
    event loop over 1024 tasks on 2, 4 and 8 CPUs (the ``sched``
    replay).  Of the candidates tried, this pair's time tracked the
    workloads' command times most closely while the host's speed
    drifted."""
    z = np.zeros_like(_C)
    count = np.zeros(_C.shape, np.int32)
    alive = np.ones(_C.shape, bool)
    for _ in range(12):
        z[alive] = z[alive] ** 2 + _C[alive]
        alive &= np.abs(z) <= 2.0
        count += alive
    makespan = 0.0
    for ncpu in (2, 4, 8):
        heap = [(0.0, cpu) for cpu in range(ncpu)]
        busy = dict.fromkeys(range(ncpu), 0.0)
        for w in _WORK:
            t, cpu = heapq.heappop(heap)
            busy[cpu] += w
            heapq.heappush(heap, (t + w * 1.01, cpu))
        makespan += max(t for t, _cpu in heap)
    return makespan + int(count.sum())


class HostMeter:
    """Accumulates timed reference units; :attr:`scale` converts a
    measured duration into reference-host seconds."""

    def __init__(self) -> None:
        self.units = 0
        self.wall = 0.0
        #: host scale of each :meth:`measure` call, in order
        self.samples: list[float] = []
        unit()  # warm: first-call costs are not host speed

    def measure(self, units: int) -> None:
        t0 = time.perf_counter()
        for _ in range(units):
            unit()
        wall = time.perf_counter() - t0
        self.wall += wall
        self.units += units
        self.samples.append(units * UNIT_REF_S / wall)

    def follow(self, seconds: float) -> None:
        """Calibrate right after ``seconds`` of command time, for about
        :data:`SHARE` of it, so the units sample the host over the same
        stretch of wall clock as the commands."""
        self.measure(max(1, math.ceil(SHARE * seconds / UNIT_REF_S)))

    @property
    def scale(self) -> float:
        """Reference-host seconds per measured second (< 1 on a host
        slower than the reference)."""
        return self.units * UNIT_REF_S / self.wall
