"""Conway's Game of Life (paper §III-D): lazy evaluation + MPI.

The advanced assignment: an efficient Game of Life that

* uses its own low-memory data structure (a ``uint8`` cell grid, not
  the image — the image is only refreshed for display),
* *lazily* skips tiles whose neighbourhood was steady at the previous
  iteration (the tiling window shows untouched areas, Fig. 13),
* distributes row bands over MPI ranks, exchanging ghost rows **and**
  tile-state metadata so laziness works across rank boundaries.

Datasets (selected with ``--arg``): ``random``, ``diag`` (gliders
travelling along the diagonals — the sparse dataset of Fig. 13),
``gun`` (a Gosper glider gun) and ``blinkers``.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile
from repro.kernels.api import halo_region, tile_works
from repro.util.rng import make_rng

__all__ = ["LifeKernel", "life_step_rect", "make_dataset", "GLIDER"]

#: work units charged per cell update (branch-free rule evaluation)
CELL_WORK = 4.0

ALIVE_COLOR = np.uint32(0xFFFF00FF)  # EASYPAP-style yellow
DEAD_COLOR = np.uint32(0x000000FF)

# Glider travelling towards +y,+x (down-right)
GLIDER = [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def life_step_rect(
    cells: np.ndarray, nxt: np.ndarray, y: int, x: int, h: int, w: int
) -> int:
    """Apply one Life step to the rectangle (y, x, h, w) of ``cells``
    into ``nxt``; cells outside the array count as dead.

    Returns the number of cells whose state changed.
    """
    H, W = cells.shape
    # pad[1 + i, 1 + j] == cells[y + i, x + j] for in-bounds cells, else 0,
    # so every target cell sees a full 3x3 window
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


# --------------------------------------------------------------------------
# Datasets
# --------------------------------------------------------------------------


def _place(cells: np.ndarray, pattern, y: int, x: int, flip_x: bool = False) -> None:
    H, W = cells.shape
    for dy, dx in pattern:
        yy = y + dy
        xx = x + (2 - dx if flip_x else dx)
        if 0 <= yy < H and 0 <= xx < W:
            cells[yy, xx] = 1


GUN = [
    (4, 0), (5, 0), (4, 1), (5, 1),
    (2, 12), (2, 13), (3, 11), (4, 10), (5, 10), (6, 10), (7, 11), (8, 12), (8, 13),
    (5, 14), (3, 15), (7, 15), (4, 16), (5, 16), (6, 16), (5, 17),
    (2, 20), (3, 20), (4, 20), (2, 21), (3, 21), (4, 21), (1, 22), (5, 22),
    (0, 24), (1, 24), (5, 24), (6, 24),
    (2, 34), (3, 34), (2, 35), (3, 35),
]


def make_dataset(name: str, dim: int, seed: int | None = None) -> np.ndarray:
    """Build a ``(dim, dim)`` uint8 cell grid for a named dataset."""
    cells = np.zeros((dim, dim), dtype=np.uint8)
    name = (name or "diag").lower()
    if name == "random":
        rng = make_rng(seed)
        cells[:] = (rng.random((dim, dim)) < 0.25).astype(np.uint8)
    elif name == "diag":
        # gliders along both diagonals, moving away along them (sparse!)
        step = max(dim // 8, 16)
        for k in range(4, dim - 8, step):
            _place(cells, GLIDER, k, k)  # main diagonal, heading down-right
            _place(cells, GLIDER, k, dim - 8 - k, flip_x=True)  # anti-diagonal
    elif name == "gun":
        _place(cells, GUN, 2, 2)
    elif name == "blinkers":
        for y in range(2, dim - 2, 8):
            for x in range(2, dim - 3, 8):
                cells[y, x : x + 3] = 1
    else:
        raise ValueError(f"unknown life dataset {name!r}")
    return cells


# --------------------------------------------------------------------------
# Kernel
# --------------------------------------------------------------------------


@register_kernel
class LifeKernel(Kernel):
    """Kernel ``life`` with seq / tiled / omp_tiled / lazy / mpi_omp variants."""

    name = "life"

    # lazy skips steady tiles; mpi_omp additionally computes one band per rank
    lazy_variants = frozenset({"lazy", "mpi_omp"})

    def init(self, ctx) -> None:
        if ctx.mpi is not None:
            self._init_mpi(ctx)
            return
        cells = make_dataset(ctx.arg or "diag", ctx.dim, ctx.config.seed)
        ctx.data["cells"] = cells
        ctx.data["next"] = np.zeros_like(cells)
        # per-tile "changed at previous iteration" flags; initially all True
        ctx.data["dirty"] = np.ones((ctx.grid.rows, ctx.grid.cols), dtype=bool)

    def refresh_img(self, ctx) -> None:
        if ctx.mpi is not None:
            self._refresh_mpi(ctx)
            return
        cells = ctx.data.get("cells")
        if cells is not None:
            ctx.img.cur[:] = np.where(cells == 1, ALIVE_COLOR, DEAD_COLOR)

    # -- tile body -----------------------------------------------------------
    def do_tile(self, ctx, tile: Tile) -> float:
        ctx.declare_access(
            reads=[halo_region("cells", tile.x, tile.y, tile.w, tile.h, ctx.dim)],
            writes=[("next", tile.x, tile.y, tile.w, tile.h)],
        )
        changed = life_step_rect(
            ctx.data["cells"], ctx.data["next"], tile.y, tile.x, tile.h, tile.w
        )
        ctx.data["changes"][tile.row, tile.col] = changed > 0
        return tile.area * CELL_WORK

    # -- whole-frame fast path (perf mode) ----------------------------------
    def compute_frame(self, ctx, tiles) -> np.ndarray | None:
        """Whole-frame step; per-tile change flags recovered by a
        vectorized ``logical_or`` reduction.

        Accepts the full grid, or exactly the dirty-tile subset the
        ``lazy`` variant schedules: a non-dirty tile's neighbourhood was
        steady, so recomputing it reproduces its current cells — the
        invariant laziness itself relies on — which makes the whole-frame
        step write the same bytes as computing only the subset, and
        leaves those tiles' change flags False either way.
        """
        if ctx.mpi is not None:
            return None
        if len(tiles) != len(ctx.grid):
            dirty = ctx.data.get("dirty")
            if dirty is None:
                return None
            mask = np.zeros(len(ctx.grid), dtype=bool)
            mask[ctx.grid.tile_index_array(tiles)] = True
            if not np.array_equal(mask, dirty.ravel()):
                return None
        cells, nxt = ctx.data["cells"], ctx.data["next"]
        life_step_rect(cells, nxt, 0, 0, ctx.dim, ctx.dim)
        ctx.data["changes"] = ctx.grid.tile_reduce(nxt != cells, np.logical_or)
        return tile_works(tiles, CELL_WORK)

    def _begin_iter(self, ctx) -> None:
        ctx.data["changes"] = np.zeros((ctx.grid.rows, ctx.grid.cols), dtype=bool)

    def _end_iter(self, ctx) -> bool:
        """Swap grids, update dirtiness; True if anything changed."""
        ctx.data["cells"], ctx.data["next"] = ctx.data["next"], ctx.data["cells"]
        changes = ctx.data["changes"]
        # a tile must be recomputed if it or any 8-neighbour changed
        dirty = changes.copy()
        dirty[1:, :] |= changes[:-1, :]
        dirty[:-1, :] |= changes[1:, :]
        dirty[:, 1:] |= changes[:, :-1]
        dirty[:, :-1] |= changes[:, 1:]
        dirty[1:, 1:] |= changes[:-1, :-1]
        dirty[1:, :-1] |= changes[:-1, 1:]
        dirty[:-1, 1:] |= changes[1:, :-1]
        dirty[:-1, :-1] |= changes[1:, 1:]
        ctx.data["dirty"] = dirty
        return bool(changes.any())

    # -- variants ----------------------------------------------------------------
    @variant("seq")
    def compute_seq(self, ctx, nb_iter: int) -> int:
        for it in ctx.iterations(nb_iter):
            self._begin_iter(ctx)
            ctx.sequential_for(lambda t: self.do_tile(ctx, t), frame=self.compute_frame)
            if not self._end_iter(ctx):
                return it
        return 0

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        """Eager parallel version: every tile, every iteration."""
        for it in ctx.iterations(nb_iter):
            self._begin_iter(ctx)
            ctx.parallel_for(ctx.body(self.do_tile), frame=self.compute_frame)
            stable = not ctx.run_on_master(lambda: self._end_iter(ctx))
            if stable:
                return it
        return 0

    @variant("lazy")
    def compute_lazy(self, ctx, nb_iter: int) -> int:
        """Lazy evaluation: skip tiles whose neighbourhood was steady.

        Skipped tiles still need their *next* buffer refreshed (cheap
        copy), since buffers swap every iteration.
        """
        for it in ctx.iterations(nb_iter):
            self._begin_iter(ctx)
            dirty = ctx.data["dirty"]
            todo = [t for t in ctx.grid if dirty[t.row, t.col]]
            # steady tiles: carry their cells over to the next buffer
            cells, nxt = ctx.data["cells"], ctx.data["next"]
            for t in ctx.grid:
                if not dirty[t.row, t.col]:
                    nxt[t.y : t.y + t.h, t.x : t.x + t.w] = cells[
                        t.y : t.y + t.h, t.x : t.x + t.w
                    ]
            if todo:
                ctx.parallel_for(ctx.body(self.do_tile), todo, frame=self.compute_frame)
            stable = not ctx.run_on_master(lambda: self._end_iter(ctx))
            if stable:
                return it
        return 0

    # -- MPI ------------------------------------------------------------------------
    def _init_mpi(self, ctx) -> None:
        from repro.mpi.decomposition import band_of

        mpi = ctx.mpi
        y0, h = band_of(mpi.rank, mpi.size, ctx.dim)
        if y0 % ctx.grid.tile_h or (y0 + h) % ctx.grid.tile_h and (y0 + h) != ctx.dim:
            from repro.errors import ConfigError

            raise ConfigError(
                "life/mpi_omp requires rank bands aligned to tile rows "
                f"(dim={ctx.dim}, np={mpi.size}, tile_h={ctx.grid.tile_h})"
            )
        # root-only dataset construction: rank 0 builds the grid once and
        # shares it as a zero-copy window (shared memory under the procs
        # substrate, a read-only view inproc); every rank then carves out
        # just its band instead of redundantly materializing the world
        full = mpi.comm.shared_window(
            make_dataset(ctx.arg or "diag", ctx.dim, ctx.config.seed)
            if mpi.rank == 0 else None,
            root=0,
        )
        # local band with one ghost row above and below
        local = np.zeros((h + 2, ctx.dim), dtype=np.uint8)
        local[1 : h + 1] = full[y0 : y0 + h]
        ctx.data.update(
            band_y0=y0,
            band_h=h,
            cells=local,
            next=np.zeros_like(local),
        )
        tiles = [t for t in ctx.grid if y0 <= t.y < y0 + h]
        ctx.data["tiles"] = tiles
        ctx.data["dirty"] = np.ones((ctx.grid.rows, ctx.grid.cols), dtype=bool)

    def _refresh_mpi(self, ctx) -> None:
        mpi = ctx.mpi
        y0, h = ctx.data["band_y0"], ctx.data["band_h"]
        band = ctx.data["cells"][1 : h + 1]
        pixels = np.where(band == 1, ALIVE_COLOR, DEAD_COLOR)
        ctx.img.cur[y0 : y0 + h] = pixels
        # master composes the full picture for display/result
        gathered = mpi.comm.gather((y0, pixels), root=0)
        if mpi.rank == 0 and gathered:
            for gy0, gpix in gathered:
                ctx.img.cur[gy0 : gy0 + gpix.shape[0]] = gpix

    def _exchange_ghosts(self, ctx) -> None:
        """Swap boundary rows and border tile-states with the neighbours."""
        mpi = ctx.mpi
        comm = mpi.comm
        h = ctx.data["band_h"]
        cells = ctx.data["cells"]
        grid = ctx.grid
        changes = ctx.data.get("prev_changes")
        up, down = mpi.rank - 1, mpi.rank + 1
        y0 = ctx.data["band_y0"]
        top_trow = min(y0 // grid.tile_h, grid.rows - 1)
        bot_trow = min((y0 + h - 1) // grid.tile_h, grid.rows - 1)
        top_state = changes[top_trow] if changes is not None else None
        bot_state = changes[bot_trow] if changes is not None else None
        if up >= 0:
            # neighbour's bottom boundary row + its tile-change flags
            got = comm.sendrecv((cells[1].copy(), top_state), dest=up, source=up)
            cells[0] = got[0]
            if got[1] is not None:
                ctx.data["dirty"][top_trow] |= got[1]
        else:
            cells[0] = 0
        if down < mpi.size:
            got = comm.sendrecv((cells[h].copy(), bot_state), dest=down, source=down)
            cells[h + 1] = got[0]
            if got[1] is not None:
                ctx.data["dirty"][bot_trow] |= got[1]
        else:
            cells[h + 1] = 0

    def _do_tile_mpi(self, ctx, tile: Tile) -> float:
        """Tile body in band-local coordinates (ghost row offset +1)."""
        y0 = ctx.data["band_y0"]
        # footprint in global coordinates (ghost rows map to the
        # neighbour's boundary rows)
        ctx.declare_access(
            reads=[halo_region("cells", tile.x, tile.y, tile.w, tile.h, ctx.dim)],
            writes=[("next", tile.x, tile.y, tile.w, tile.h)],
        )
        changed = life_step_rect(
            ctx.data["cells"], ctx.data["next"], tile.y - y0 + 1, tile.x, tile.h, tile.w
        )
        ctx.data["changes"][tile.row, tile.col] = changed > 0
        return tile.area * CELL_WORK

    @variant("mpi_omp")
    def compute_mpi_omp(self, ctx, nb_iter: int) -> int:
        """MPI band decomposition + lazy OpenMP tiles within each rank."""
        if ctx.mpi is None:
            raise RuntimeError("variant mpi_omp requires --mpirun (mpi_np > 0)")
        mpi = ctx.mpi
        h = ctx.data["band_h"]
        for it in ctx.iterations(nb_iter):
            self._begin_iter(ctx)
            self._exchange_ghosts(ctx)
            dirty = ctx.data["dirty"]
            todo = [t for t in ctx.data["tiles"] if dirty[t.row, t.col]]
            cells, nxt = ctx.data["cells"], ctx.data["next"]
            y0 = ctx.data["band_y0"]
            for t in ctx.data["tiles"]:
                if not dirty[t.row, t.col]:
                    ly = t.y - y0 + 1
                    nxt[ly : ly + t.h, t.x : t.x + t.w] = cells[
                        ly : ly + t.h, t.x : t.x + t.w
                    ]
            if todo:
                ctx.parallel_for(ctx.body(self._do_tile_mpi), todo)
            ctx.data["prev_changes"] = ctx.data["changes"].copy()
            local_changed = bool(ctx.data["changes"].any())
            ctx.data["cells"], ctx.data["next"] = ctx.data["next"], ctx.data["cells"]
            # ghost rows of the swapped-in buffer are stale; refreshed next iter
            changes = ctx.data["changes"]
            dirty = changes.copy()
            dirty[1:, :] |= changes[:-1, :]
            dirty[:-1, :] |= changes[1:, :]
            dirty[:, 1:] |= changes[:, :-1]
            dirty[:, :-1] |= changes[:, 1:]
            dirty[1:, 1:] |= changes[:-1, :-1]
            dirty[1:, :-1] |= changes[:-1, 1:]
            dirty[:-1, 1:] |= changes[1:, :-1]
            dirty[:-1, :-1] |= changes[1:, 1:]
            ctx.data["dirty"] = dirty
            any_changed = mpi.comm.allreduce(local_changed, op=lambda a, b: a or b)
            if not any_changed:
                return it
        return 0
