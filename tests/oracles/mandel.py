"""The Mandelbrot/Julia escape loop in its plainest masked-numpy form:
the oracle for :func:`repro.kernels.mandel.mandel_counts_frame`, the
kernel's one compute core."""

from __future__ import annotations

import numpy as np

__all__ = ["mandel_counts"]


def mandel_counts(
    cr: np.ndarray,
    ci: np.ndarray,
    max_iter: int,
    *,
    julia_c: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Escape-iteration counts for a grid of complex points.

    Returns ``(counts, work)`` where ``counts[i, j]`` is the iteration
    at which the point escaped (``max_iter`` if it never did) and
    ``work`` is the total number of inner-loop iterations executed —
    the deterministic cost the simulator charges.

    With ``julia_c`` set, iterates the Julia dynamics instead: z starts
    at the pixel's coordinates and c is the fixed parameter.
    """
    shape = np.broadcast_shapes(cr.shape, ci.shape)
    if julia_c is not None:
        zr = np.broadcast_to(cr, shape).astype(np.float64).copy()
        zi = np.broadcast_to(ci, shape).astype(np.float64).copy()
        cr = np.float64(julia_c[0])
        ci = np.float64(julia_c[1])
    else:
        zr = np.zeros(shape)
        zi = np.zeros(shape)
    counts = np.full(shape, max_iter, dtype=np.int32)
    active = np.ones(shape, dtype=bool)
    work = 0.0
    # dead lanes keep being updated (and may overflow to inf/nan) but are
    # never read again and cost nothing in the work model
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            nactive = int(active.sum())
            if nactive == 0:
                break
            work += nactive
            zr2 = zr * zr
            zi2 = zi * zi
            escaped = active & (zr2 + zi2 > 4.0)
            counts[escaped] = it
            active &= ~escaped
            zi = 2.0 * zr * zi + ci
            zr = zr2 - zi2 + cr
    return counts, work
