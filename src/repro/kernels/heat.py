"""Heat diffusion: a floating-point Jacobi stencil with convergence.

A second stencil besides blur, closer to the "simulations involving
stencil computations" the paper's §III-B motivates: a temperature field
relaxes under the 5-point Jacobi operator with fixed-temperature
sources, and the kernel stops when the largest update falls below a
tolerance — so students see early termination driven by a *numeric*
criterion rather than a boolean one.

Datasets (``--arg``): ``corners`` (hot corners / cold center, default),
``bar`` (a hot horizontal bar).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile
from repro.kernels.api import halo_region, tile_works

__all__ = ["HeatKernel", "jacobi_step_rect"]

CELL_WORK = 8.0
TOLERANCE = 1e-4


def jacobi_step_rect(
    temp: np.ndarray,
    nxt: np.ndarray,
    sources: np.ndarray,
    y: int,
    x: int,
    h: int,
    w: int,
) -> float:
    """One Jacobi step on a rectangle; returns the max absolute update.

    Cells outside the grid mirror their boundary neighbour (insulated
    borders); source cells keep their fixed temperature.
    """
    H, W = temp.shape
    ys0, ys1 = max(y - 1, 0), min(y + h + 1, H)
    xs0, xs1 = max(x - 1, 0), min(x + w + 1, W)
    pad = np.empty((h + 2, w + 2), dtype=temp.dtype)
    # fill with edge replication (insulation), then paste the real halo
    pad[:] = 0.0
    inner = temp[ys0:ys1, xs0:xs1]
    pad[ys0 - y + 1 : ys1 - y + 1, xs0 - x + 1 : xs1 - x + 1] = inner
    if y == 0:
        pad[0, 1 : w + 1] = temp[0, x : x + w]
    if y + h == H:
        pad[-1, 1 : w + 1] = temp[H - 1, x : x + w]
    if x == 0:
        pad[1 : h + 1, 0] = temp[y : y + h, 0]
    if x + w == W:
        pad[1 : h + 1, -1] = temp[y : y + h, W - 1]
    new = 0.25 * (pad[0:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, 0:-2] + pad[1:-1, 2:])
    src = sources[y : y + h, x : x + w]
    cur = temp[y : y + h, x : x + w]
    new = np.where(np.isnan(src), new, src)
    nxt[y : y + h, x : x + w] = new
    delta = float(np.abs(new - cur).max()) if new.size else 0.0
    return delta


def _make_field(name: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial temperatures + source map (NaN = free cell)."""
    temp = np.zeros((dim, dim), dtype=np.float64)
    sources = np.full((dim, dim), np.nan)
    name = (name or "corners").lower()
    if name == "corners":
        k = max(dim // 16, 1)
        for sy, sx in [(0, 0), (0, dim - k), (dim - k, 0), (dim - k, dim - k)]:
            sources[sy : sy + k, sx : sx + k] = 1.0
    elif name == "bar":
        sources[dim // 2 - 1 : dim // 2 + 1, dim // 8 : -dim // 8 or None] = 1.0
    else:
        raise ValueError(f"unknown heat dataset {name!r}")
    temp[~np.isnan(sources)] = sources[~np.isnan(sources)]
    return temp, sources


@register_kernel
class HeatKernel(Kernel):
    """Kernel ``heat`` with variants seq / omp_tiled."""

    name = "heat"

    def init(self, ctx) -> None:
        temp, sources = _make_field(ctx.arg or "corners", ctx.dim)
        ctx.data["temp"] = temp
        ctx.data["next"] = temp.copy()
        ctx.data["sources"] = sources

    def refresh_img(self, ctx) -> None:
        temp = ctx.data.get("temp")
        if temp is None:
            return
        t = np.clip(temp, 0.0, 1.0)
        r = (255 * t).astype(np.uint32)
        b = (255 * (1.0 - t)).astype(np.uint32)
        ctx.img.cur[:] = (r << 24) | (b << 8) | np.uint32(0xFF)

    def do_tile_delta(self, ctx, tile: Tile) -> tuple[float, float]:
        """Tile body in reduction style: returns (work, local max delta)."""
        ctx.declare_access(
            reads=[
                halo_region("temp", tile.x, tile.y, tile.w, tile.h, ctx.dim),
                ("sources", tile.x, tile.y, tile.w, tile.h),
            ],
            writes=[("next", tile.x, tile.y, tile.w, tile.h)],
        )
        delta = jacobi_step_rect(
            ctx.data["temp"], ctx.data["next"], ctx.data["sources"],
            tile.y, tile.x, tile.h, tile.w,
        )
        return tile.area * CELL_WORK, delta

    def do_tile(self, ctx, tile: Tile) -> float:
        work, delta = self.do_tile_delta(ctx, tile)
        ctx.data["max_delta"] = max(ctx.data["max_delta"], delta)
        return work

    # -- whole-frame fast path (perf mode) ----------------------------------
    def compute_frame_delta(self, ctx, tiles):
        """One whole-frame Jacobi step; returns ``(works, max delta)``.

        The rectangle (0, 0, dim, dim) triggers all four border
        replication branches, exactly as the border tiles would, and the
        interior update keeps the same operand association — new values
        are bit-identical to the per-tile path.  The global max |update|
        equals the fold of per-tile maxima (max is order-independent).
        """
        if len(tiles) != len(ctx.grid):
            return None
        delta = jacobi_step_rect(
            ctx.data["temp"], ctx.data["next"], ctx.data["sources"],
            0, 0, ctx.dim, ctx.dim,
        )
        return tile_works(tiles, CELL_WORK), delta

    def compute_frame(self, ctx, tiles) -> np.ndarray | None:
        """Sequential-loop flavour: folds the delta into ``max_delta``
        like the chain of ``do_tile`` calls would."""
        out = self.compute_frame_delta(ctx, tiles)
        if out is None:
            return None
        works, delta = out
        ctx.data["max_delta"] = max(ctx.data["max_delta"], delta)
        return works

    def _end_iter(self, ctx) -> bool:
        ctx.data["temp"], ctx.data["next"] = ctx.data["next"], ctx.data["temp"]
        return ctx.data["max_delta"] > TOLERANCE

    @variant("seq")
    def compute_seq(self, ctx, nb_iter: int) -> int:
        for it in ctx.iterations(nb_iter):
            ctx.data["max_delta"] = 0.0
            ctx.sequential_for(lambda t: self.do_tile(ctx, t), frame=self.compute_frame)
            if not self._end_iter(ctx):
                return it
        return 0

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        """Parallel Jacobi with the convergence test as a *reduction* —
        the race-free OpenMP idiom (``reduction(max: delta)``) rather
        than tile bodies mutating shared state."""
        for it in ctx.iterations(nb_iter):
            _, max_delta = ctx.parallel_reduce(
                ctx.body(self.do_tile_delta), combine=max, init=0.0,
                frame=self.compute_frame_delta,
            )
            ctx.data["max_delta"] = max_delta
            converged = not ctx.run_on_master(lambda: self._end_iter(ctx))
            if converged:
                return it
        return 0

    # -- MPI: 2D block decomposition with non-blocking ghost exchange --------
    @variant("mpi_2d")
    def compute_mpi_2d(self, ctx, nb_iter: int) -> int:
        """Advanced distribution: the process grid is 2D (``grid_shape``),
        each rank owns a block and exchanges its four boundary edges with
        non-blocking ``isend``/``irecv`` — all four receives are posted
        first, then waited, the canonical halo-exchange idiom.
        """
        if ctx.mpi is None:
            raise RuntimeError("variant mpi_2d requires --mpirun (mpi_np > 0)")
        from repro.errors import ConfigError
        from repro.mpi.decomposition import block_of, grid_shape

        mpi = ctx.mpi
        comm = mpi.comm
        rows, cols = grid_shape(mpi.size)
        pr, pc = divmod(mpi.rank, cols)
        y0, x0, h, w = block_of(mpi.rank, mpi.size, ctx.dim)
        if (y0 % ctx.grid.tile_h or x0 % ctx.grid.tile_w
                or ((y0 + h) % ctx.grid.tile_h and y0 + h != ctx.dim)
                or ((x0 + w) % ctx.grid.tile_w and x0 + w != ctx.dim)):
            raise ConfigError(
                "heat/mpi_2d requires blocks aligned to tiles "
                f"(dim={ctx.dim}, np={mpi.size}, tile={ctx.grid.tile_w}x"
                f"{ctx.grid.tile_h})"
            )
        tiles = [t for t in ctx.grid
                 if y0 <= t.y < y0 + h and x0 <= t.x < x0 + w]

        def rank_of(r: int, c: int) -> int | None:
            if 0 <= r < rows and 0 <= c < cols:
                return r * cols + c
            return None

        neighbours = {
            "up": (rank_of(pr - 1, pc), 10, 11),
            "down": (rank_of(pr + 1, pc), 11, 10),
            "left": (rank_of(pr, pc - 1), 12, 13),
            "right": (rank_of(pr, pc + 1), 13, 12),
        }
        temp = ctx.data["temp"]
        for it in ctx.iterations(nb_iter):
            # post all four receives, then send our edges, then wait
            reqs = {}
            for side, (peer, _, rtag) in neighbours.items():
                if peer is not None:
                    reqs[side] = comm.irecv(source=peer, tag=rtag)
            edges = {
                "up": temp[y0, x0 : x0 + w].copy(),
                "down": temp[y0 + h - 1, x0 : x0 + w].copy(),
                "left": temp[y0 : y0 + h, x0].copy(),
                "right": temp[y0 : y0 + h, x0 + w - 1].copy(),
            }
            for side, (peer, stag, _) in neighbours.items():
                if peer is not None:
                    comm.isend(edges[side], dest=peer, tag=stag)
            for side, req in reqs.items():
                ghost = req.wait()
                if side == "up":
                    temp[y0 - 1, x0 : x0 + w] = ghost
                elif side == "down":
                    temp[y0 + h, x0 : x0 + w] = ghost
                elif side == "left":
                    temp[y0 : y0 + h, x0 - 1] = ghost
                else:
                    temp[y0 : y0 + h, x0 + w] = ghost
            ctx.data["max_delta"] = 0.0
            ctx.parallel_for(ctx.body(self.do_tile), tiles)
            ctx.data["temp"], ctx.data["next"] = ctx.data["next"], ctx.data["temp"]
            temp = ctx.data["temp"]
            global_delta = comm.allreduce(ctx.data["max_delta"], op=max)
            if global_delta <= TOLERANCE:
                self._gather_blocks(ctx, y0, x0, h, w)
                return it
        self._gather_blocks(ctx, y0, x0, h, w)
        return 0

    def _gather_blocks(self, ctx, y0: int, x0: int, h: int, w: int) -> None:
        """Compose the full field on the master at the end of the run."""
        comm = ctx.mpi.comm
        block = ctx.data["temp"][y0 : y0 + h, x0 : x0 + w].copy()
        gathered = comm.gather((y0, x0, block), root=0)
        if ctx.mpi.rank == 0 and gathered:
            for gy, gx, b in gathered:
                ctx.data["temp"][gy : gy + b.shape[0], gx : gx + b.shape[1]] = b
