"""One Life step as the plain 8-neighbour sum on an ``int16`` pad: the
oracle for :func:`repro.kernels.life.life_step_rect`, the kernel's one
compute core."""

from __future__ import annotations

import numpy as np

__all__ = ["life_step_rect"]


def life_step_rect(
    cells: np.ndarray, nxt: np.ndarray, y: int, x: int, h: int, w: int
) -> int:
    """Apply one Life step to the rectangle (y, x, h, w) of ``cells``
    into ``nxt``; cells outside the array count as dead.

    Returns the number of cells whose state changed.
    """
    H, W = cells.shape
    pad = np.zeros((h + 2, w + 2), dtype=np.int16)
    ys0, ys1 = max(y - 1, 0), min(y + h + 1, H)
    xs0, xs1 = max(x - 1, 0), min(x + w + 1, W)
    pad[ys0 - y + 1 : ys1 - y + 1, xs0 - x + 1 : xs1 - x + 1] = cells[ys0:ys1, xs0:xs1]
    neigh = (
        pad[0:-2, 0:-2] + pad[0:-2, 1:-1] + pad[0:-2, 2:]
        + pad[1:-1, 0:-2] + pad[1:-1, 2:]
        + pad[2:, 0:-2] + pad[2:, 1:-1] + pad[2:, 2:]
    )
    cur = pad[1:-1, 1:-1]
    alive = ((neigh == 3) | ((cur == 1) & (neigh == 2))).astype(np.uint8)
    changed = int((alive != cur).sum())
    nxt[y : y + h, x : x + w] = alive
    return changed
