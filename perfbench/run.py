"""The repository's benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload perf_mandel --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload traced_life --seed 1 --trace 1
    python3 perfbench/run.py --selftest

``--trace 0`` times the workload's commands in a closed loop for
``--seconds`` (and at least ``MIN_OPS`` ops) with no span tracing, and
prints the end-to-end metrics, its times scaled to a reference host by
the calibration task of ``calibrate.py``.  ``--trace 1`` runs a fixed number of
commands twice — untraced, then with every layer entry point wrapped —
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero when any op failed its output check.

See ``perfbench/README.md`` for the workloads, the metrics and the
predictions each layer metric makes.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # workload start: before any numpy / repro import

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import HostMeter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: each timed run completes at least this many ops, so at least ten
#: samples lie beyond the reported p90
MIN_OPS = 100
#: set-up samples per run: this process plus fresh child processes
SETUP_PROBES = 4
#: calibration units timed after each set-up to scale it (about 0.15 s)
SETUP_UNITS = 30

END_TO_END = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up once, print the set-up time, exit")
    p.add_argument("--selftest", action="store_true",
                   help="quick self-test: span arithmetic and exact counts")
    return p.parse_args(argv)


# -- measurement helpers -------------------------------------------------------

def _children(pid: int) -> list[int]:
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids += [int(x) for x in task.read_text().split()]
        except OSError:
            pass
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of the peak RSS of this process and every live descendant
    (procs workers, MPI ranks, their forkserver), in MB."""
    total, todo, seen = 0, [os.getpid()], set()
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _hwm_kb(pid)
        todo += _children(pid)
    return total * 1024 / 1e6


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def private_tmp() -> None:
    """Point temporary files (the forkserver's socket directory) into the
    checkout.  AF_UNIX socket paths are limited to about 107 bytes, so a
    deeply nested checkout keeps the system default."""
    tmp = WORK / "tmp"
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)


def stop_helpers() -> None:
    """Stop multiprocessing's forkserver and resource tracker and wait
    for them, so a run leaves no process behind.  Pools are shut down
    first; these helpers would otherwise outlive them until exit."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def provenance(args, extra: dict) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(), **extra,
    }


# -- the closed loop -------------------------------------------------------------

class Loop:
    """Runs commands back to back, timing each op from outside.

    An op ends at its ``on_op()`` call; the command's epilogue (after
    the last boundary: finalize, ``save_trace``, the CSV tail) belongs
    to its last op.  Output checks run between commands, off the clock.
    """

    def __init__(self, wl, rec=None, meter: HostMeter | None = None) -> None:
        self.wl = wl
        #: span recorder switched on for the commands only, never for
        #: their checks (traced runs)
        self.rec = rec
        #: host-speed calibration run right after each command (timed runs)
        self.meter = meter
        self.ops: list[tuple[float, float]] = []  # (start, end) per op
        #: op latencies in reference-host seconds: each command's ops
        #: times the host scale timed right after that command
        self.scaled: list[float] = []
        self.commands: list[tuple[int | None, int, bool]] = []  # (variant, ops, ok)
        self.counters: dict[str, float] = {}
        self.last = None
        self.index = 0

    @property
    def wall(self) -> float:
        return sum(hi - lo for lo, hi in self.ops)

    @property
    def attempted(self) -> int:
        return sum(n for _v, n, _ok in self.commands)

    def step(self) -> None:
        wl, index = self.wl, self.index
        self.index += 1
        stamps: list[float] = []
        if self.rec is not None:
            self.rec.active = True
        t0 = time.perf_counter()
        try:
            out = wl.command(index, lambda: stamps.append(time.perf_counter()))
        except Exception:
            t1 = time.perf_counter()
            if self.rec is not None:
                self.rec.active = False
            traceback.print_exc()
            self.record([(t0, t1)])
            self.commands.append((None, wl.ops_per_command, False))
            return
        t1 = time.perf_counter()
        if self.rec is not None:
            self.rec.active = False
        edges = [t0] + stamps
        ops = list(zip(edges[:-1], edges[1:]))
        if ops:
            ops[-1] = (ops[-1][0], t1)
        else:
            ops = [(t0, t1)]
        self.record(ops)
        problems = wl.check(out)
        if len(stamps) != wl.ops_per_command:
            problems.append(f"{len(stamps)} ops completed, expected {wl.ops_per_command}")
        for p in problems:
            print(f"FAIL {wl.name} command {index}: {p}", file=sys.stderr)
        self.commands.append((out.variant, max(len(ops), wl.ops_per_command), not problems))
        for k, v in wl.counters(out).items():
            self.counters[k] = self.counters.get(k, 0) + v
        self.last = out

    def record(self, ops: list[tuple[float, float]]) -> None:
        """Keep one command's ops; calibrate right after it (timed runs)."""
        self.ops += ops
        scale = 1.0
        if self.meter is not None:
            self.meter.follow(ops[-1][1] - ops[0][0])
            scale = self.meter.samples[-1]
        self.scaled += [(hi - lo) * scale for lo, hi in ops]

    def fail_variants(self, problems: dict) -> None:
        """Mark every command on an input that failed its reference."""
        for variant, p in problems.items():
            print(f"FAIL {self.wl.name} input {variant}: {p}", file=sys.stderr)
        self.commands = [
            (v, n, ok and None not in problems and v not in problems)
            for v, n, ok in self.commands
        ]

    @property
    def failed(self) -> int:
        return sum(n for _v, n, ok in self.commands if not ok)


def setup_sample() -> tuple[float, float]:
    """(scaled, measured) set-up time: from ``T0`` to now, and scaled by
    calibration units timed right after."""
    measured = time.perf_counter() - T0
    meter = HostMeter()
    meter.measure(SETUP_UNITS)
    return measured * meter.scale, measured


def timed_run(args, wl) -> tuple[dict, int, int, dict]:
    wl.setup()
    setups = [setup_sample()]
    loop = Loop(wl, meter=HostMeter())
    while loop.wall < args.seconds or len(loop.ops) < MIN_OPS:
        if loop.wall > 4 * max(args.seconds, 1.0) and loop.attempted >= MIN_OPS:
            break
        loop.step()
    rss = peak_rss_mb()
    lat = [hi - lo for lo, hi in loop.ops]
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"latencies-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "op_ms": [x * 1e3 for x in lat],
        "command_ops": [n for _v, n, _ok in loop.commands],
        "command_host_scale": loop.meter.samples,
    }))
    loop.fail_variants(wl.finish())
    wl.close()
    for _ in range(SETUP_PROBES - 1):
        setups.append(setup_probe(args))
    # times as measured, and then scaled to the reference host
    measured = {
        "ops_per_s": len(lat) / loop.wall,
        "op_ms_p50": percentile(lat, 50) * 1e3,
        "op_ms_p90": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(raw for _s, raw in setups),
    }
    metrics = {
        "ops_per_s": len(loop.scaled) / sum(loop.scaled),
        "op_ms_p50": percentile(loop.scaled, 50) * 1e3,
        "op_ms_p90": percentile(loop.scaled, 90) * 1e3,
        "setup_s": statistics.median(s for s, _raw in setups),
        "peak_rss_mb": rss,
    }
    extra = {
        "ops": len(lat), "commands": len(loop.commands), "timed_wall_s": loop.wall,
        "host_scale": sum(loop.scaled) / loop.wall, "calibration_s": loop.meter.wall,
        "measured": measured,
        "setup_samples_s": [s for s, _raw in setups],
        "setup_scales": [s / raw for s, raw in setups],
        **(wl.provenance(loop.last) if loop.last is not None else {}),
    }
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            loop.attempted, loop.failed, extra)


def setup_probe(args) -> tuple[float, float]:
    """(scaled, measured) set-up time of the workload in a fresh
    interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["measured_s"])


def traced_run(args, wl) -> tuple[dict, int, int, dict]:
    import spans

    rec = spans.SpanRecorder()
    patcher = spans.install(rec)
    try:
        rec.active = True
        t0 = time.perf_counter()
        wl.setup()
        setup_wall = time.perf_counter() - t0
        rec.active = False
        # the same commands untraced and traced, alternating which runs
        # first, so warm-up favours neither side of the overhead ratio
        plain, traced = Loop(wl), Loop(wl, rec)
        for i in range(wl.traced_commands):
            for loop in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                loop.step()
    finally:
        patcher.restore()
    problems = wl.finish()
    for loop in (plain, traced):
        loop.fail_variants(problems)
    wl.close()
    overhead = (len(traced.ops) / traced.wall) / (len(plain.ops) / plain.wall)
    metrics = spans.layer_metrics(rec, counters=traced.counters, ops=traced.ops,
                                  trace_overhead=overhead)
    missing = spans.check_coverage(wl.name, rec.spans)
    if missing:
        print(f"FAIL span coverage on {wl.name}: zero calls for {', '.join(missing)}",
              file=sys.stderr)
    rec.dump(WORK / f"spans-{wl.name}-seed{args.seed}.jsonl", traced.ops)
    result = {
        k: {"value": metrics[k], "unit": unit}
        for k, (unit, _better) in spans.PER_LAYER_METRICS.items()
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if missing:
        failed = attempted
    extra = {"span_coverage": "fail" if missing else "pass",
             "timed_wall_s": traced.wall, "setup_wall_s": setup_wall,
             "bindings_patched": patcher.bindings,
             **(wl.provenance(traced.last) if traced.last is not None else {})}
    return result, attempted, failed, extra


def report(args, metrics: dict, attempted: int, failed: int, extra: dict) -> int:
    prov = provenance(args, extra)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:26s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:12s} {'failed_frac':26s} "
          f"{failed / max(attempted, 1):14.6g} ratio")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    private_tmp()
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        import selftest

        try:
            return selftest.main()
        finally:
            stop_helpers()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    try:
        if args.setup_probe:
            wl.setup()
            scaled, measured = setup_sample()
            wl.close()
            print(json.dumps({"setup_s": scaled, "measured_s": measured}))
            return 0
        if args.trace:
            metrics, attempted, failed, extra = traced_run(args, wl)
        else:
            metrics, attempted, failed, extra = timed_run(args, wl)
    finally:
        wl.close()
        stop_helpers()
        shutil.rmtree(work, ignore_errors=True)
    return report(args, metrics, attempted, failed, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
