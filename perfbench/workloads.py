"""The four workloads: the commands EASYPAP users run.

Each workload drives the program through its public Python API in a
closed loop (one client; each command starts when the previous one and
its output check have finished).  A *command* is what a user types; an
*op* is the unit the end-to-end metrics count:

* ``perf_mandel`` — perf-mode ``mandel omp_tiled``; op = one frame.
* ``traced_life`` — ``life omp_tiled`` with trace and monitoring,
  then ``save_trace``; op = one frame.
* ``procs_mpi`` — a procs-backend ``blur`` run followed by an MPI
  ``life`` run; op = the command pair.
* ``sweep_fig6`` — a cold Fig. 6 expTools sweep; op = one sweep point.

Every command calls ``on_op()`` at each op boundary, so the runner can
time ops from outside.  Output checks and reference runs happen in
:meth:`Workload.check` and :meth:`Workload.finish`, outside the timed
section.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.config import RunConfig
from repro.core import engine
from repro.core.engine import RunResult
from repro.omp.procs import live_arena_blocks

__all__ = ["WORKLOADS", "Outcome", "Workload"]


def run(config: RunConfig, **kw) -> RunResult:
    """``repro.core.engine.run``, looked up at call time so the traced
    run's wrapper sees the benchmark's own calls too."""
    return engine.run(config, **kw)


def derive_seed(seed: int, index: int) -> int:
    """The input seed of variant ``index`` under benchmark seed ``seed``."""
    return (seed * 1_000_003 + index * 7919) % (2**31 - 1)


@dataclass
class Outcome:
    """What one command produced, kept for its untimed checks."""

    variant: int
    results: list[RunResult] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload: set-up, commands, checks and tear-down."""

    name = ""
    #: ops a command completes (for counting the ops of a failed one)
    ops_per_command = 1
    #: commands of a traced run: a fixed number, so counts repeat exactly
    traced_commands = 1
    #: distinct inputs the commands cycle through
    variants = 4

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work = work_dir
        #: per input variant, the first output seen; later commands on
        #: the same input must reproduce it, and :meth:`finish` compares
        #: it with a reference run
        self.seen: dict[int, Any] = {}

    def variant_of(self, index: int) -> int:
        return index % self.variants

    def setup(self) -> None:
        """Everything before the first timed op, warm-up op included."""

    def command(self, index: int, on_op: Callable[[], None]) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> list[str]:
        """Problems with one command's outputs (empty = correct)."""
        return []

    def finish(self) -> dict[int | None, str]:
        """Reference checks after the timed section: a problem per input
        variant (``None`` = every command failed)."""
        return {}

    def close(self) -> None:
        """Stop every pool and process the workload started."""

    def counters(self, out: Outcome) -> dict[str, float]:
        """Program-side counts of one command (per-layer metrics)."""
        return {
            "telemetry.dropped_events": sum(r.dropped_events for r in out.results),
        }

    def provenance(self, out: Outcome) -> dict[str, Any]:
        return {
            "jit_tier": sorted({r.jit_tier for r in out.results if r.jit_tier}),
            "fastpath_regions": sum(r.fastpath_regions for r in out.results),
        }

    # -- shared checks -------------------------------------------------------
    @staticmethod
    def run_problems(r: RunResult, iterations: int) -> list[str]:
        problems = []
        if r.early_stop or r.completed_iterations != iterations:
            problems.append(
                f"early stop: {r.completed_iterations}/{iterations} iterations"
            )
        if r.dropped_events:
            problems.append(f"{r.dropped_events} telemetry events dropped")
        leaked = live_arena_blocks()
        if leaked:
            problems.append(f"leaked shm blocks: {leaked}")
        return problems

    def same_as_seen(self, out: Outcome, key: Any, value: Any) -> list[str]:
        """Record the first output of an input variant; later commands
        must reproduce it exactly."""
        slot = (out.variant, key)
        if slot not in self.seen:
            self.seen[slot] = value
            return []
        if not _equal(self.seen[slot], value):
            return [f"{key} differs from an earlier run of the same input"]
        return []


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


# --------------------------------------------------------------------------


class PerfMandel(Workload):
    """The paper's PERF point in perf mode: kernel core only."""

    name = "perf_mandel"
    ops_per_command = 5
    traced_commands = 4
    variants = 1

    def config(self, iterations: int) -> RunConfig:
        return RunConfig(
            kernel="mandel", variant="omp_tiled", dim=512, tile_w=16, tile_h=16,
            nthreads=4, iterations=iterations,
        )

    def setup(self) -> None:
        run(self.config(1))

    def command(self, index, on_op):
        r = run(self.config(self.ops_per_command), frame_hook=lambda _c, _i: on_op())
        return Outcome(self.variant_of(index), [r])

    def check(self, out):
        r = out.results[0]
        return (
            self.run_problems(r, self.ops_per_command)
            + self.same_as_seen(out, "image", r.image)
            + self.same_as_seen(out, "virtual_time", r.virtual_time)
        )

    def finish(self):
        if (0, "image") not in self.seen:
            return {}
        ref = run(self.config(self.ops_per_command).with_(fastpath="off"))
        problems = {}
        if not np.array_equal(ref.image, self.seen[(0, "image")]):
            problems[0] = "image differs from the per-tile reference"
        elif ref.virtual_time != self.seen[(0, "virtual_time")]:
            problems[0] = "virtual time differs from the per-tile reference"
        return problems


class TracedLife(Workload):
    """Cheap tile bodies under trace + monitoring: the instrumentation
    layers carry most of the cost."""

    name = "traced_life"
    ops_per_command = 5
    traced_commands = 4

    def config(self, variant: int, iterations: int, **kw) -> RunConfig:
        base = RunConfig(
            kernel="life", variant="omp_tiled", dim=512, tile_w=16, tile_h=16,
            nthreads=4, schedule="dynamic,2", trace=True, monitoring=True,
            arg="random", seed=derive_seed(self.seed, variant), iterations=iterations,
        )
        return base.with_(**kw) if kw else base

    def setup(self) -> None:
        from repro.trace.format import save_trace

        r = run(self.config(0, 1))
        save_trace(r.trace, self.work / "warmup.evt")

    def command(self, index, on_op):
        from repro.trace.format import save_trace

        variant = self.variant_of(index)
        r = run(self.config(variant, self.ops_per_command),
                frame_hook=lambda _c, _i: on_op())
        path = save_trace(r.trace, self.work / "life.evt")
        return Outcome(variant, [r], {"path": path, "tiles": len(r.context.domain)})

    def check(self, out):
        from repro.trace.format import load_trace

        r = out.results[0]
        problems = self.run_problems(r, self.ops_per_command)
        want = out.extra["tiles"] * self.ops_per_command
        got = len(load_trace(out.extra["path"]).events)
        if got != want:
            problems.append(f"saved trace holds {got} events, expected {want}")
        return (
            problems
            + self.same_as_seen(out, "image", r.image)
            + self.same_as_seen(out, "virtual_time", r.virtual_time)
        )

    def finish(self):
        problems = {}
        for variant in sorted({v for v, _k in self.seen}):
            cfg = self.config(variant, self.ops_per_command)
            seq = run(cfg.with_(variant="seq", trace=False, monitoring=False))
            plain = run(cfg.with_(trace=False, monitoring=False))
            if not np.array_equal(seq.image, self.seen[(variant, "image")]):
                problems[variant] = "image differs from the seq variant"
            elif plain.virtual_time != self.seen[(variant, "virtual_time")]:
                problems[variant] = "virtual time differs from the untraced run"
        return problems


class ProcsMpi(Workload):
    """Real processes: procs-backend IPC, the shm block lifecycle and
    the MPI substrate do the work."""

    name = "procs_mpi"
    ops_per_command = 1
    traced_commands = 20
    mpi_iterations = 2

    def blur(self, variant: int) -> RunConfig:
        return RunConfig(
            kernel="blur", variant="omp_tiled", dim=256, tile_w=16, tile_h=16,
            nthreads=2, schedule="dynamic,4", backend="procs", iterations=1,
            seed=derive_seed(self.seed, variant),
        )

    def life(self) -> RunConfig:
        return RunConfig(
            kernel="life", variant="mpi_omp", dim=512, tile_w=16, tile_h=16,
            mpi_np=2, iterations=self.mpi_iterations,
        )

    def setup(self) -> None:
        run(self.blur(0))
        run(self.life())

    def command(self, index, on_op):
        variant = self.variant_of(index)
        out = Outcome(variant)
        out.results.append(run(self.blur(variant)))
        out.extra["leaked"] = live_arena_blocks()
        out.results.append(run(self.life()))
        on_op()
        return out

    def check(self, out):
        blur, life = out.results
        problems = self.run_problems(blur, 1) + self.run_problems(life, self.mpi_iterations)
        if out.extra["leaked"]:
            problems.append(f"blur leaked shm blocks: {out.extra['leaked']}")
        return (
            problems
            + self.same_as_seen(out, "blur", blur.image)
            + self.same_as_seen(out, "life", life.image)
        )

    def counters(self, out):
        c = super().counters(out)
        life = out.results[1].counters
        c["mpi.msgs"] = life.get("mpi_msgs_sent_world", 0)
        c["mpi.bytes"] = life.get("mpi_bytes_sent_world", 0)
        c["mpi.collectives"] = life.get("mpi_collectives_world", 0)
        return c

    def finish(self):
        from repro.mpi import live_mpi_blocks, shutdown_mpi_pools

        problems = {}
        shutdown_mpi_pools()
        leaked = live_mpi_blocks()
        if leaked:
            problems[None] = f"MPI shm blocks left after shutdown: {leaked}"
        life_ref = run(RunConfig(
            kernel="life", variant="omp_tiled", dim=512, tile_w=16, tile_h=16,
            iterations=self.mpi_iterations,
        ))
        for variant in sorted({v for v, _k in self.seen}):
            ref = run(self.blur(variant).with_(backend="sim"))
            if not np.array_equal(ref.image, self.seen[(variant, "blur")]):
                problems.setdefault(variant, "procs blur differs from the sim reference")
            if not np.array_equal(life_ref.image, self.seen[(variant, "life")]):
                problems.setdefault(variant, "MPI life differs from the sim reference")
        return problems

    def close(self) -> None:
        from repro.mpi import shutdown_mpi_pools
        from repro.omp.procs import shutdown_pools

        shutdown_mpi_pools()
        shutdown_pools()


class SweepFig6(Workload):
    """A cold Fig. 6 sweep on the serial executor: sched replay and the
    expt fabric (capture, replay, CSV) do the work."""

    name = "sweep_fig6"
    grains = (8, 16, 32)
    threads = (1, 2, 4, 8)
    schedules = ("static", "dynamic,1", "guided", "nonmonotonic:dynamic")
    runs = 2
    iterations = 1
    jitter = 0.05
    ops_per_command = len(grains) * len(threads) * len(schedules) * runs
    traced_commands = 2

    def grid(self, seed: int, grains=grains, threads=threads, schedules=schedules):
        icvs = {"OMP_NUM_THREADS=": list(threads), "OMP_SCHEDULE=": list(schedules)}
        options = {
            "--kernel ": ["mandel"], "--variant ": ["omp_tiled"], "--size ": [512],
            "--grain ": list(grains), "--iterations ": [self.iterations],
            "--jitter ": [self.jitter], "--seed ": [seed],
        }
        return icvs, options

    def sweep(self, tag: str, icvs, options, runs: int, on_op=None) -> list[dict]:
        from repro.expt.executors.serial import SerialExecutor
        from repro.expt.exptools import execute

        class OpExecutor(SerialExecutor):
            """The serial executor, marking an op boundary per point."""

            def drain(self):
                for row in super().drain():
                    if on_op is not None:
                        on_op()
                    yield row

        d = self.work / tag
        shutil.rmtree(d, ignore_errors=True)
        return execute(
            "easypap", icvs, options, runs, csv_path=d / "sweep.csv",
            reuse_work=True, cache_dir=d / "cache", executor=OpExecutor(),
        )

    def setup(self) -> None:
        icvs, options = self.grid(derive_seed(self.seed, 0), grains=(32,),
                                  threads=(1,), schedules=("static",))
        self.sweep("warmup", icvs, options, 1)

    def command(self, index, on_op):
        seed = derive_seed(self.seed, index)
        icvs, options = self.grid(seed)
        rows = self.sweep("cmd", icvs, options, self.runs, on_op)
        return Outcome(index, extra={"rows": rows, "seed": seed, "grid": (icvs, options)})

    def check(self, out):
        from repro.expt.exptools import sweep_points

        rows = out.extra["rows"]
        problems = []
        if len(rows) != self.ops_per_command:
            problems.append(f"{len(rows)} rows, expected {self.ops_per_command}")
        bad = [r for r in rows if r.get("status") != "ok"]
        if bad:
            problems.append(f"{len(bad)} rows not ok: {bad[0].get('error')}")
        by_key = {
            (int(r["tile_w"]), int(r["threads"]), r["schedule"], int(r["run"])): r
            for r in rows
        }
        # one point per grain re-runs without work reuse: same time_us
        points = sweep_points(*out.extra["grid"], self.runs)
        rng = np.random.default_rng(out.extra["seed"])
        for grain in self.grains:
            mine = [(c, rep) for c, rep in points if c.tile_w == grain]
            config, rep = mine[int(rng.integers(len(mine)))]
            row = by_key.get((grain, config.nthreads, config.schedule, rep))
            full = run(config.with_(run_index=rep))
            if row is None or row.get("time_us") != round(full.elapsed * 1e6, 3):
                problems.append(
                    f"grain {grain}: replayed time {row and row.get('time_us')} != "
                    f"full run {round(full.elapsed * 1e6, 3)}"
                )
        return problems

    def provenance(self, out):
        rows = out.extra["rows"]
        return {"jit_tier": sorted({r.get("jit_tier", "") for r in rows}),
                "fastpath_regions": None}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PerfMandel, TracedLife, ProcsMpi, SweepFig6)
}
