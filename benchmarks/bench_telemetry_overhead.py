"""Perf-regression harness for the telemetry bus (ISSUE-5 gate).

The unified telemetry pipeline must be effectively free: a traced run
may cost at most 5% more wall-clock than the identical uninstrumented
run.  This harness times the GIL-bound ``pymandel`` kernel (see
``kernels_purepy.py``) plain vs ``trace=True`` on both the ``sim``
channel (in-process bus dispatch into the TraceRecorder) and the
``procs`` channel (worker-side ring emission + master drain), and
reports the overhead as medians of *paired* ratios — the same
same-machine statistic the other perf harnesses use.  The footprint
path (``--check-races``-grade collection over the ring) is measured
and reported too, but not gated: footprints intercept every buffer
access, which is honest observability work, not bus overhead.

The ``sim_trace_save`` case times what a user waits for after a traced
run: writing its ``.evt`` file.  It runs ``life omp_tiled`` (512², tile
16, 5 iterations, ``trace=True``) and gates best-of-N ``save_trace``
wall ÷ best-of-N traced-run wall at :data:`SAVE_GATE_RATIO`, reporting
µs per event beside it.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry_overhead.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry_overhead.py \
        --out BENCH_telemetry.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry_overhead.py \
        --quick --check BENCH_telemetry.json

``--check`` exits non-zero when a gated overhead ratio exceeds the
1.05x ceiling or regresses more than ``--tolerance`` (additive) above
the committed baseline, or when the trace-save ratio exceeds its
0.5 ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from _common import fmt_table, report
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.core.kernel import load_kernel_module
from repro.omp.procs import shutdown_pools
from repro.trace.format import save_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
KERNEL_FILE = Path(__file__).resolve().parent / "kernels_purepy.py"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_telemetry.json"

#: instrumentation-overhead ceiling: traced / plain, median paired ratio
GATE_RATIO = 1.05
WORKERS = 2

CONFIG = dict(
    kernel="pymandel", variant="omp_tiled", dim=128, tile_w=32, tile_h=32,
    iterations=2, schedule="dynamic,1",
)

#: trace-save ceiling: best save_trace wall / best traced-run wall
SAVE_GATE_RATIO = 0.5
SAVE_CONFIG = dict(
    kernel="life", variant="omp_tiled", dim=512, tile_w=16, tile_h=16,
    iterations=5, arg="random", trace=True,
)

#: (name, gated) — each case is timed plain vs instrumented
CASES = [
    ("sim_trace", True, dict(backend="sim"), dict(trace=True)),
    ("procs_trace", True, dict(backend="procs", nthreads=WORKERS), dict(trace=True)),
    ("procs_footprints", False, dict(backend="procs", nthreads=WORKERS),
     dict(trace=True, footprints=True)),
]


def _timed(extra: dict) -> float:
    cfg = RunConfig(**CONFIG, **extra)
    t0 = time.perf_counter()
    run(cfg)
    return time.perf_counter() - t0


def measure_trace_save(reps: int) -> dict:
    """Best-of-``reps`` traced Life run and ``save_trace`` of its trace."""
    cfg = RunConfig(**SAVE_CONFIG)
    run(cfg)  # warmup
    run_ts, save_ts = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(reps):
            t0 = time.perf_counter()
            trace = run(cfg).trace
            t1 = time.perf_counter()
            save_trace(trace, Path(tmp) / "life.evt")
            run_ts.append(t1 - t0)
            save_ts.append(time.perf_counter() - t1)
    return {
        "run_s": round(min(run_ts), 4),
        "save_s": round(min(save_ts), 4),
        "events": len(trace.events),
        "us_per_event": round(min(save_ts) / len(trace.events) * 1e6, 2),
        "save_ratio": round(min(save_ts) / min(run_ts), 4),
    }


def measure(reps: int) -> dict:
    load_kernel_module(str(KERNEL_FILE))
    results = {}
    for name, gated, base_kw, instr_kw in CASES:
        plain_kw = dict(base_kw)
        traced_kw = {**base_kw, **instr_kw}
        _timed(plain_kw)  # warmup (spawns the procs pool where relevant)
        _timed(traced_kw)
        ratios = []
        plain_ts, traced_ts = [], []
        for _ in range(reps):
            p = _timed(plain_kw)
            t = _timed(traced_kw)
            plain_ts.append(p)
            traced_ts.append(t)
            ratios.append(t / p)
        ratios.sort()
        results[name] = {
            "gated": gated,
            "plain_s": round(min(plain_ts), 4),
            "instrumented_s": round(min(traced_ts), 4),
            # median paired ratio: the stable regression statistic
            "overhead_ratio": round(ratios[len(ratios) // 2], 4),
            "overhead_ratio_best": round(ratios[0], 4),
        }
    return {
        "schema": 2,
        "cpu_count": os.cpu_count() or 1,
        "workers": WORKERS,
        "gate": {"max_overhead_ratio": GATE_RATIO, "max_save_ratio": SAVE_GATE_RATIO},
        "results": results,
        "sim_trace_save": measure_trace_save(reps),
    }


def render(payload: dict) -> str:
    rows = []
    for name, r in payload["results"].items():
        rows.append([
            name, "yes" if r["gated"] else "no",
            f"{r['plain_s']:.4f}", f"{r['instrumented_s']:.4f}",
            f"{r['overhead_ratio']:.3f}x",
            f"{(r['overhead_ratio'] - 1.0) * 100:+.1f}%",
        ])
    table = fmt_table(
        ["case", "gated", "plain s", "instr s", "ratio", "overhead"], rows
    )
    r = payload["sim_trace_save"]
    save_row = ["sim_trace_save", r["events"], f"{r['run_s']:.4f}", f"{r['save_s']:.4f}",
                f"{r['us_per_event']:.2f}", f"{r['save_ratio']:.3f}"]
    return table + "\n\n" + fmt_table(
        ["case", "events", "run s", "save s", "us/event", "save/run"], [save_row]
    )


def check(measured: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Return a list of failures (empty == pass)."""
    failures = []
    for name, r in measured["results"].items():
        if not r["gated"]:
            continue
        # absolute ceiling on the best paired ratio (best-of-N, same
        # convention as bench_backend_procs): what the machine is capable
        # of must be within 5%, whatever the noise on individual reps
        if r["overhead_ratio_best"] > GATE_RATIO:
            failures.append(
                f"{name}: instrumentation overhead {r['overhead_ratio_best']:.3f}x "
                f"(best of N) exceeds the {GATE_RATIO:.2f}x ceiling"
            )
    save = measured["sim_trace_save"]
    if save["save_ratio"] > SAVE_GATE_RATIO:
        failures.append(
            f"sim_trace_save: save_trace takes {save['save_ratio']:.3f}x the traced run "
            f"({save['us_per_event']:.2f} us/event), above the "
            f"{SAVE_GATE_RATIO:.2f}x ceiling"
        )
    baseline = json.loads(baseline_path.read_text())
    for name, r in measured["results"].items():
        base = baseline["results"].get(name)
        if base is None or not r["gated"]:
            continue
        # a sub-1.0 baseline ratio is measurement luck, not a bar to hold
        # future runs to; the comparison floor is "no overhead at all"
        ceiling = max(base["overhead_ratio"], 1.0) + tolerance
        if r["overhead_ratio"] > ceiling:
            failures.append(
                f"{name}: overhead {r['overhead_ratio']:.3f}x regressed more "
                f"than +{tolerance:.2f} above baseline {base['overhead_ratio']:.3f}x"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer reps (CI smoke)")
    ap.add_argument("--reps", type=int, default=None,
                    help="paired reps; default 7, 3 with --quick")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the measured baseline JSON here")
    ap.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                    help="compare against a committed baseline; exit 1 on regression")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed additive ratio regression above baseline "
                         "(default 0.05)")
    args = ap.parse_args(argv)

    reps = args.reps if args.reps is not None else (3 if args.quick else 7)
    try:
        payload = measure(reps)
    finally:
        shutdown_pools()
    report("telemetry_overhead", render(payload))

    if args.out:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.out}")
    if args.check:
        failures = check(payload, args.check, args.tolerance)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print(f"telemetry overhead check OK vs {args.check} "
              f"(ceiling {GATE_RATIO:.2f}x, tolerance +{args.tolerance:.2f}, "
              f"trace save <= {SAVE_GATE_RATIO:.2f}x the run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
