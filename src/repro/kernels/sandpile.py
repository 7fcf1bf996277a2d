"""The Abelian sandpile kernel (one of EASYPAP's predefined kernels).

Synchronous toppling: a cell holding 4+ grains gives one grain to each
4-neighbour; grains falling off the border are lost.  The update
``next = cur % 4 + inflow`` is applied simultaneously everywhere, so
tiles are independent within an iteration (double buffering), and the
kernel stabilizes — giving a second early-termination kernel besides
Life, with beautifully fractal stable states.

Datasets (``--arg``): ``uniform5`` (every cell starts with 5 grains,
the default), ``center`` (a large central pile).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile
from repro.kernels.api import halo_region, tile_works

__all__ = ["SandpileKernel", "sandpile_step_rect"]

GRAIN_WORK = 6.0

#: colors for 0..3 grains (stable), and a hot color for unstable cells
PALETTE = np.array(
    [0x000000FF, 0x203080FF, 0x4060C0FF, 0x80A0FFFF, 0xFF4000FF], dtype=np.uint32
)


def sandpile_step_rect(
    grains: np.ndarray, nxt: np.ndarray, y: int, x: int, h: int, w: int
) -> int:
    """Synchronous toppling step on a rectangle; returns #changed cells.

    Cells outside the array are sinks (grains vanish at the border).
    """
    H, W = grains.shape
    pad = np.zeros((h + 2, w + 2), dtype=grains.dtype)
    ys0, ys1 = max(y - 1, 0), min(y + h + 1, H)
    xs0, xs1 = max(x - 1, 0), min(x + w + 1, W)
    pad[ys0 - y + 1 : ys1 - y + 1, xs0 - x + 1 : xs1 - x + 1] = grains[ys0:ys1, xs0:xs1]
    inflow = (
        (pad[0:-2, 1:-1] // 4)
        + (pad[2:, 1:-1] // 4)
        + (pad[1:-1, 0:-2] // 4)
        + (pad[1:-1, 2:] // 4)
    )
    cur = pad[1:-1, 1:-1]
    new = cur % 4 + inflow
    changed = int((new != cur).sum())
    nxt[y : y + h, x : x + w] = new
    return changed


@register_kernel
class SandpileKernel(Kernel):
    """Kernel ``sandpile`` with variants seq / omp_tiled."""

    name = "sandpile"
    #: the quadtree variant iterates a center-refined adaptive tiling
    #: (small tiles over the active center pile, big tiles elsewhere)
    variant_domains = {"omp_quadtree": "quadtree"}

    def init(self, ctx) -> None:
        dataset = (ctx.arg or "uniform5").lower()
        grains = np.zeros((ctx.dim, ctx.dim), dtype=np.int64)
        if dataset == "uniform5":
            grains[1:-1, 1:-1] = 5
        elif dataset == "center":
            grains[ctx.dim // 2, ctx.dim // 2] = 16 * ctx.dim
        else:
            raise ValueError(f"unknown sandpile dataset {dataset!r}")
        ctx.data["grains"] = grains
        ctx.data["next"] = np.zeros_like(grains)

    def refresh_img(self, ctx) -> None:
        grains = ctx.data.get("grains")
        if grains is not None:
            ctx.img.cur[:] = PALETTE[np.minimum(grains, 4)]

    def do_tile(self, ctx, tile: Tile) -> float:
        ctx.declare_access(
            reads=[halo_region("grains", tile.x, tile.y, tile.w, tile.h, ctx.dim)],
            writes=[("next", tile.x, tile.y, tile.w, tile.h)],
        )
        changed = sandpile_step_rect(
            ctx.data["grains"], ctx.data["next"], tile.y, tile.x, tile.h, tile.w
        )
        if changed:
            ctx.data["changed"] = True
        return tile.area * GRAIN_WORK

    # -- whole-frame fast path (perf mode) ----------------------------------
    def compute_frame(self, ctx, tiles) -> np.ndarray | None:
        """Whole-frame toppling step (integer ops — trivially exact)."""
        if len(tiles) != len(ctx.grid):
            return None
        changed = sandpile_step_rect(
            ctx.data["grains"], ctx.data["next"], 0, 0, ctx.dim, ctx.dim
        )
        if changed:
            ctx.data["changed"] = True
        return tile_works(tiles, GRAIN_WORK)

    def _end_iter(self, ctx) -> bool:
        ctx.data["grains"], ctx.data["next"] = ctx.data["next"], ctx.data["grains"]
        return bool(ctx.data["changed"])

    @variant("seq")
    def compute_seq(self, ctx, nb_iter: int) -> int:
        for it in ctx.iterations(nb_iter):
            ctx.data["changed"] = False
            ctx.sequential_for(lambda t: self.do_tile(ctx, t), frame=self.compute_frame)
            if not self._end_iter(ctx):
                return it
        return 0

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        for it in ctx.iterations(nb_iter):
            ctx.data["changed"] = False
            ctx.parallel_for(ctx.body(self.do_tile), frame=self.compute_frame)
            stable = not ctx.run_on_master(lambda: self._end_iter(ctx))
            if stable:
                return it
        return 0

    @variant("omp_quadtree")
    def compute_omp_quadtree(self, ctx, nb_iter: int) -> int:
        """Same toppling bodies over the adaptive quadtree tiling: the
        default item list *is* the refined domain, and because the tiles
        still partition the image exactly, the result is bit-identical
        to ``omp_tiled`` — only the schedule's load profile changes
        (finer grains where the dataset is active)."""
        for it in ctx.iterations(nb_iter):
            ctx.data["changed"] = False
            ctx.parallel_for(ctx.body(self.do_tile))
            stable = not ctx.run_on_master(lambda: self._end_iter(ctx))
            if stable:
                return it
        return 0
