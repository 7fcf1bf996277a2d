"""EXT2 — extension: OpenCL-style device execution with profiling.

Paper §V: "Currently, EASYPAP only partially supports OpenCL: users can
observe animated output of kernels, but monitoring and trace exploration
are not yet implemented.  These features will soon be developed by
leveraging OpenCL profiling events."

Our SIMT device simulator provides exactly that: the mandel ``ocl``
variant runs one work-group per tile in lockstep and produces the same
timelines/traces as CPU variants.  This bench measures the divergence
penalty (boundary tiles stall on their slowest lane) as a function of
work-group size.
"""

import numpy as np

from _common import fmt_table, report
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.gpu.device import DeviceSpec, GpuDevice
from repro.kernels.mandel import mandel_counts_frame


def run_ext2():
    # per-pixel costs of one mandel frame
    dim = 256
    xs = np.linspace(-2.5, 1.5, dim)[np.newaxis, :]
    ys = np.linspace(1.5, -2.5, dim)[:, np.newaxis]
    counts = mandel_counts_frame(xs, ys, 128)
    lane = counts.astype(np.float64)
    rows = []
    for g in (4, 8, 16, 32):
        device = GpuDevice(DeviceSpec(num_cus=8))
        launch = device.launch(lane, group_w=g, group_h=g)
        rows.append((g, launch.divergence_penalty, launch.makespan))
    # the ocl kernel variant end-to-end, with trace
    res = run(RunConfig(kernel="mandel", variant="ocl", dim=128, tile_w=16,
                        tile_h=16, iterations=2, nthreads=8, trace=True,
                        arg="128"))
    # transfer-bound vs compute-bound (the host<->device bus model)
    tcfg = dict(dim=256, tile_w=16, tile_h=16, iterations=1, nthreads=8)
    blur_frac = run(RunConfig(kernel="blur", variant="ocl", **tcfg)
                    ).context.data["transfer_fraction"]
    mandel_frac = run(RunConfig(kernel="mandel", variant="ocl", arg="1024",
                                **tcfg)).context.data["transfer_fraction"]
    return rows, res, blur_frac, mandel_frac


def test_ext_gpu(benchmark):
    rows, res, blur_frac, mandel_frac = benchmark.pedantic(
        run_ext2, rounds=1, iterations=1
    )
    table = fmt_table(
        ["group size", "divergence penalty", "makespan (ms)"],
        [[g, f"{d:.2f}", f"{m * 1e3:.3f}"] for g, d, m in rows],
    )
    kinds = {e.kind for e in res.trace.events}
    text = (
        table
        + f"\n\nmandel ocl variant: {len(res.trace)} profiling events "
        + f"(kinds {sorted(kinds)}), divergence {res.context.data['divergence']:.2f}"
        + f"\n\nhost<->device transfer fraction at dim 256: blur "
        + f"{blur_frac * 100:.1f}% (transfer-bound stencil) vs mandel "
        + f"{mandel_frac * 100:.1f}% (compute amortizes the bus)"
        + "\n\nexpected: larger work-groups -> more divergence (the set "
        "boundary crosses more groups' lanes); trace integration is the "
        "paper's stated future work, demonstrated here."
    )
    report("ext_gpu", text)

    penalties = [d for _, d, _ in rows]
    assert all(b >= a - 0.05 for a, b in zip(penalties, penalties[1:])), \
        "divergence should grow (weakly) with group size"
    assert penalties[-1] > penalties[0]
    assert kinds == {"ocl"}
    assert len(res.trace) == 2 * 64  # 2 iterations x 8x8 groups
    assert blur_frac > 0.5  # the stencil mostly pays the bus
    assert mandel_frac < blur_frac / 1.5  # compute amortizes it
