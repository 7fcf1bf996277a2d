"""Quick self-test of the benchmark itself: ``run.py --selftest``.

1. Self-time and op-attribution arithmetic on a synthetic span tree.
2. Every binding of a by-name import is patched: a call through
   ``repro.expt.replay.simulate`` lands in the ``sched.event_loop`` span.
3. Exact counts: the traced run of every workload, made twice at one
   seed with one command per side, repeats the counts below exactly,
   passes its span-coverage check and its output checks.
4. Attribution: each workload's wall lands on the layers its README
   entry predicts.

Exits non-zero on the first failed assertion group.
"""

from __future__ import annotations

import shutil
import sys
from types import SimpleNamespace

#: counts the program makes deterministically; two traced runs at one
#: seed must agree on every one
EXACT_COUNTS = (
    "kernels.tiles", "kernels.work_units", "trace.events", "trace.bytes",
    "mpi.msgs", "mpi.bytes", "sched.event_loop_calls", "sched.closed_form_calls",
)


def check_arithmetic() -> None:
    import spans

    # A [0,10] has children B [1,4] and C [3,6] (overlapping: union 5);
    # B has child D [2,3]; E [11,12] is a second top-level span
    tree = [
        (0, "a", 0.0, 10.0, -1),
        (1, "b", 1.0, 4.0, 0),
        (2, "c", 3.0, 6.0, 0),
        (3, "d", 2.0, 3.0, 1),
        (4, "e", 11.0, 12.0, -1),
    ]
    got = spans.self_times(tree)
    want = {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert got == want, f"self times {got} != {want}"
    ops = [(0.0, 5.0), (5.0, 11.5)]
    assert spans.attributed(tree, ops) == 10.5, spans.attributed(tree, ops)
    starts = [lo for lo, _hi in ops]
    assert [spans.op_of(starts, ops, t) for t in (-1.0, 0.0, 4.9, 5.0, 11.6)] == [0, 1, 1, 2, 0]


def check_bindings() -> None:
    import spans

    rec = spans.SpanRecorder()
    patcher = spans.install(rec)
    try:
        assert patcher.bindings["repro.sched.simulator.simulate"] >= 3, patcher.bindings
        from repro.expt import replay
        from repro.sched.costmodel import DEFAULT_COST_MODEL
        from repro.sched.policies import parse_schedule

        rec.active = True
        replay.simulate([1.0, 2.0], parse_schedule("static"), 2, model=DEFAULT_COST_MODEL)
        rec.active = False
        assert [s[1] for s in rec.spans] == ["sched.event_loop"], rec.spans
    finally:
        patcher.restore()
    from repro.expt import replay
    from repro.sched import simulator

    assert replay.simulate is simulator.simulate, "restore left a wrapper behind"


def traced_once(name: str, seed: int) -> tuple[dict, int, int, dict]:
    import run as bench
    from workloads import WORKLOADS

    work = bench.WORK / f"selftest-{name}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, work)
    wl.traced_commands = 1
    args = SimpleNamespace(workload=name, seed=seed, trace=1)
    try:
        return bench.traced_run(args, wl)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


def check_attribution(name: str, m: dict, extra: dict) -> None:
    v = {k: x["value"] for k, x in m.items()}
    selfs = {k: x for k, x in v.items() if k.endswith("_s") and not k.startswith("bench.")}
    if name == "perf_mandel":
        assert max(selfs, key=selfs.get) == "kernels.frame_s", selfs
    elif name == "sweep_fig6":
        assert max(selfs, key=selfs.get) == "sched.event_loop_s", selfs
    elif name == "traced_life":
        instr = sum(x for k, x in v.items() if k.split(".")[0] in
                    ("trace", "telemetry", "monitor") and k.endswith("_s"))
        assert instr > v["sched.event_loop_s"], (instr, v["sched.event_loop_s"])
    elif name == "procs_mpi":
        # the span totals include the set-up, so the wall does too
        wall = extra["timed_wall_s"] + extra["setup_wall_s"]
        share = (v["omp.procs.region_s"] + v["mpi.run_s"]) / wall
        assert share > 0.5, f"procs region + mpi run cover {share:.0%} of the wall"


def main() -> int:
    from workloads import WORKLOADS

    check_arithmetic()
    print("selftest: span arithmetic ok")
    check_bindings()
    print("selftest: by-name bindings patched ok")
    failures = []
    for name in WORKLOADS:
        runs = [traced_once(name, seed=7) for _ in range(2)]
        for metrics, attempted, failed, extra in runs:
            if failed or extra["span_coverage"] != "pass":
                failures.append(f"{name}: {failed}/{attempted} ops failed, "
                                f"coverage {extra['span_coverage']}")
        first, second = (r[0] for r in runs)
        for key in EXACT_COUNTS:
            if first[key]["value"] != second[key]["value"]:
                failures.append(f"{name}: {key} {first[key]['value']} != "
                                f"{second[key]['value']}")
        try:
            check_attribution(name, runs[1][0], runs[1][3])
        except AssertionError as exc:
            failures.append(f"{name}: attribution: {exc}")
        print(f"selftest: {name} exact counts, coverage and attribution checked")
    for f in failures:
        print(f"selftest FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("selftest: ok")
    return 0
