"""Perf-regression harness for the whole-frame fast path.

Measures the wall-clock milliseconds per frame of the perf-mode engine
on the vectorized fast path (``fastpath="auto"``) over a fixed
kernel x schedule x ncpus grid, and compares them against the committed
baseline ``BENCH_engine.json``.

Raw wall times drift with the load neighbours put on a shared host, so
every config also times the fixed reference task of
``perfbench/calibrate.py`` beside its runs and reports its milliseconds
scaled to that task's reference host.  The per-tile path
(``fastpath="off"``) is timed too and the fast/per-tile speedup ratio is
printed, but not gated: both paths call the same compute core per
kernel, so the ratio says how much the per-tile loop costs, not how
fast the fast path is.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py            # measure
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --quick --check BENCH_engine.json

``--check`` exits non-zero when any config's scaled fast-path ms per
frame (best of N) rises more than ``tolerance`` (default 30%) above its
baseline, or when a config's fast path did not engage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import fmt_table, report
from repro.core.config import RunConfig
from repro.core.engine import run

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_engine.json"
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from calibrate import HostMeter  # noqa: E402

#: id -> RunConfig kwargs (fastpath is toggled by the harness)
CONFIGS: dict[str, dict] = {
    "mandel-512-static-8": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=8, schedule="static",
    ),
    "mandel-512-dynamic4-8": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=8, schedule="dynamic,4",
    ),
    "mandel-512-guided-8": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=8, schedule="guided",
    ),
    "mandel-512-static-4": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=4, schedule="static",
    ),
    "blur-256-static-8": dict(
        kernel="blur", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
    "life-256-static-8": dict(
        kernel="life", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static", arg="random",
    ),
    "heat-256-static-8": dict(
        kernel="heat", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
    "sandpile-256-static-8": dict(
        kernel="sandpile", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
}


def _timed(cfg_kwargs: dict, fastpath: str) -> tuple[float, int]:
    t0 = time.perf_counter()
    res = run(RunConfig(fastpath=fastpath, **cfg_kwargs))
    return time.perf_counter() - t0, res.fastpath_regions


def _bench_pair(cfg_kwargs: dict, reps: int) -> dict:
    """Interleaved fast/per-tile timings plus the host-speed scale.

    The reference task runs right after each fast-path run, for about a
    quarter of its time, so the scale samples the host over the same
    stretch of wall clock as the timed frames.  One untimed warmup per
    path absorbs first-call costs (allocator growth, ufunc loop
    selection) that would otherwise dominate ``--quick``'s few reps.
    """
    _, fast_regions = _timed(cfg_kwargs, "auto")
    _timed(cfg_kwargs, "off")
    meter = HostMeter()
    fast_ts, ref_ts = [], []
    for _ in range(reps):
        t, _ = _timed(cfg_kwargs, "auto")
        meter.follow(t)
        fast_ts.append(t)
        t, _ = _timed(cfg_kwargs, "off")
        ref_ts.append(t)
    ratios = sorted(r / f for f, r in zip(fast_ts, ref_ts))
    frames = cfg_kwargs["iterations"]
    return {
        # the gated statistic: best-of-N, in reference-host ms per frame
        "ms_per_frame": round(min(fast_ts) * meter.scale * 1e3 / frames, 3),
        "host_scale": round(meter.scale, 3),
        "fps_fast": round(frames / min(fast_ts), 3),
        "fps_ref": round(frames / min(ref_ts), 3),
        # median paired ratio, reported only
        "speedup": round(ratios[len(ratios) // 2], 3),
        "fast_regions": fast_regions,
    }


def measure(reps: int) -> dict:
    """Measure every config; returns the BENCH_engine.json payload."""
    results = {}
    for cid, kwargs in CONFIGS.items():
        # sub-10ms runs: a single OS hiccup doubles one rep's time, and
        # reps are nearly free at this size; best of >= 7
        r = max(reps, 7) if kwargs["dim"] <= 256 else reps
        results[cid] = _bench_pair(kwargs, r)
    return {"schema": 2, "configs": results}


def render(payload: dict) -> str:
    rows = [[cid, f"{r['ms_per_frame']:.3f}", r["host_scale"], r["fps_fast"],
             r["fps_ref"], f"{r['speedup']:.2f}x"]
            for cid, r in payload["configs"].items()]
    return fmt_table(
        ["config", "ms/frame (ref host)", "host scale", "fps fast", "fps per-tile",
         "speedup"],
        rows,
    )


def check(measured: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Return a list of failures (empty == pass)."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for cid, base in baseline["configs"].items():
        got = measured["configs"].get(cid)
        if got is None:
            failures.append(f"{cid}: present in baseline but not measured")
            continue
        if got["fast_regions"] == 0:
            failures.append(f"{cid}: the whole-frame fast path did not engage")
        ceiling = base["ms_per_frame"] * (1.0 + tolerance)
        if got["ms_per_frame"] > ceiling:
            failures.append(
                f"{cid}: fast path {got['ms_per_frame']:.3f} ms/frame is more than "
                f"{tolerance:.0%} above baseline {base['ms_per_frame']:.3f} ms/frame"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer reps per config (CI smoke)")
    ap.add_argument("--reps", type=int, default=None,
                    help="paired reps per config; default 5, 3 with --quick "
                         "(at least 7 for 256^2 configs)")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the measured baseline JSON here")
    ap.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                    help="compare against a committed baseline; exit 1 on regression")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional ms/frame regression (default 0.30)")
    args = ap.parse_args(argv)

    reps = args.reps if args.reps is not None else (3 if args.quick else 5)
    payload = measure(reps)
    report("engine_hotpath", render(payload))

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
        print(f"perf check OK vs {args.check} (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
