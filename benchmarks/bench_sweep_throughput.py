"""SWEEP — parallel sweep-runner throughput (Fig. 6-style grid).

The acceptance target of the parallel expTools runner: a Fig. 6-style
sweep with ``workers=4`` completes markedly faster than the serial
driver on the same machine and yields the identical row set (the
simulator is deterministic, so only wall-clock — never results — may
differ).  Also measures the resume fast-path: re-invoking a completed
sweep must cost (almost) nothing.
"""

import os
import time

from _common import fmt_table, report
from repro.expt.csvdb import read_rows, strip_provenance
from repro.expt.exptools import execute

ICVS = {"OMP_NUM_THREADS=": [2, 4, 6], "OMP_SCHEDULE=": ["static", "dynamic,2"]}
OPTS = {
    "--kernel ": ["mandel"],
    "--variant ": ["omp_tiled"],
    "--size ": [256],
    "--grain ": [16],
    "--iterations ": [4],
    "--arg ": [128],
}
RUNS = 2  # 3 threads x 2 schedules x 2 runs = 12 points


def canon(row):
    """Row identity: every column except where/how it was produced."""
    return tuple(sorted((k, str(v)) for k, v in strip_provenance(row).items()))


def test_sweep_throughput(benchmark, tmp_path):
    t0 = time.perf_counter()
    serial = execute("easypap", ICVS, OPTS, runs=RUNS,
                     csv_path=tmp_path / "serial.csv")
    t_serial = time.perf_counter() - t0

    def parallel_sweep():
        csv = tmp_path / f"par-{time.monotonic_ns()}.csv"
        rows = execute("easypap", ICVS, OPTS, runs=RUNS, csv_path=csv,
                       workers=4)
        return rows, csv

    t0 = time.perf_counter()
    (par_rows, par_csv) = benchmark.pedantic(parallel_sweep, rounds=1,
                                             iterations=1)
    t_parallel = time.perf_counter() - t0

    t0 = time.perf_counter()
    resumed = execute("easypap", ICVS, OPTS, runs=RUNS, csv_path=par_csv,
                      resume=True, workers=4)
    t_resume = time.perf_counter() - t0

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    table = fmt_table(
        ["mode", "points", "wall s", "speedup"],
        [
            ["serial", len(serial), f"{t_serial:.2f}", "1.00"],
            ["workers=4", len(par_rows), f"{t_parallel:.2f}", f"{speedup:.2f}"],
            ["resume (complete)", len(resumed), f"{t_resume:.2f}", "-"],
        ],
    )
    identical = sorted(map(canon, serial)) == sorted(map(canon, par_rows))
    ncores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    text = (
        f"Fig. 6-style grid: {len(serial)} points "
        f"(threads x schedule x {RUNS} runs), mandel 256^2, "
        f"{ncores} core(s) available\n\n" + table +
        f"\n\nparallel row set identical to serial: {identical}\n"
        f"resume after completion reran {len(resumed)} points"
    )
    report("sweep_throughput", text)

    assert identical
    assert resumed == []
    assert sorted(map(canon, read_rows(par_csv))) == sorted(map(canon, serial))
    # wall-clock: the expectation depends on the silicon actually
    # granted to this process — 4 workers need 4 cores for the 2.5x
    # acceptance target; on fewer cores the run only checks correctness
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    default_target = 2.5 if cores >= 4 else (1.2 if cores >= 2 else 0.0)
    min_speedup = float(os.environ.get("SWEEP_MIN_SPEEDUP", default_target))
    assert speedup >= min_speedup, (
        f"parallel speedup {speedup:.2f} < {min_speedup} on {cores} cores"
    )
