"""The 3×3 blur as nine shifted ``float64`` adds over split channel
planes: the oracle for :func:`repro.kernels.blur.blur_rect_vectorized`,
the kernel's one compute core."""

from __future__ import annotations

import numpy as np

from repro.kernels.api import merge_channels, split_channels

__all__ = ["blur_rect"]


def blur_rect(src: np.ndarray, dst: np.ndarray, x: int, y: int, w: int, h: int) -> None:
    """Blur the rectangle (x, y, w, h) of ``src`` into ``dst``, averaging
    each pixel over the neighbours that exist (variable divisor)."""
    dim_y, dim_x = src.shape
    # only the rectangle plus its 1-pixel halo (clipped to the image) is
    # ever read; plane indices below are offset by the halo origin
    y0, x0 = max(0, y - 1), max(0, x - 1)
    planes = split_channels(src[y0 : min(dim_y, y + h + 1), x0 : min(dim_x, x + w + 1)])
    acc = np.zeros((4, h, w))
    cnt = np.zeros((h, w))
    for dy in (-1, 0, 1):
        sy0 = y + dy
        for dx in (-1, 0, 1):
            sx0 = x + dx
            # clip the shifted window to the image
            ty0 = max(0, -sy0)
            tx0 = max(0, -sx0)
            ty1 = h - max(0, sy0 + h - dim_y)
            tx1 = w - max(0, sx0 + w - dim_x)
            if ty0 >= ty1 or tx0 >= tx1:
                continue
            acc[:, ty0:ty1, tx0:tx1] += planes[
                :, sy0 + ty0 - y0 : sy0 + ty1 - y0, sx0 + tx0 - x0 : sx0 + tx1 - x0
            ]
            cnt[ty0:ty1, tx0:tx1] += 1.0
    dst[y : y + h, x : x + w] = merge_channels(acc / cnt)
