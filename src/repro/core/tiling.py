"""Tile grids and iteration orders.

EASYPAP decomposes the image into rectangular *tiles*; parallel variants
distribute tiles to threads.  A :class:`TileGrid` enumerates the tiles of
a ``dim x dim`` image for a given tile width/height, in the linearized
order produced by ``#pragma omp for collapse(2)`` (row-major over the
(tile_row, tile_col) space), which is the order every loop-scheduling
policy chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

__all__ = ["Tile", "TileGrid"]


@dataclass(frozen=True)
class Tile:
    """One rectangular tile: pixel rectangle + grid coordinates.

    ``index`` is the tile's position in collapse(2) row-major order, the
    canonical identity used by schedulers, monitors and traces.
    """

    x: int
    y: int
    w: int
    h: int
    row: int
    col: int
    index: int

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains(self, y: int, x: int) -> bool:
        return self.y <= y < self.y + self.h and self.x <= x < self.x + self.w

    def as_rect(self) -> tuple[int, int, int, int]:
        """(x, y, w, h) — the signature of EASYPAP's ``do_tile``."""
        return (self.x, self.y, self.w, self.h)


class TileGrid:
    """All tiles of a rectangular image for a given tile size.

    Tile sizes need not divide the image sides: edge tiles are clipped,
    exactly like EASYPAP handles ``--tile-size`` values that do not
    divide ``--size``.  ``dim_y`` defaults to ``dim`` (square images,
    the EASYPAP norm); a different height yields a ``dim x dim_y``
    image with independent row/column tile counts.

    A :class:`TileGrid` is also the canonical (dependency-free)
    :class:`~repro.core.domains.WorkDomain`: items are tiles in
    collapse(2) order, there are no ordering edges, and the render
    projection is the image plane itself.
    """

    #: WorkDomain protocol: the domain kind this class implements
    kind = "grid"
    #: WorkDomain protocol: grids are 2D (one voxel deep)
    dim_z = 1

    def __init__(
        self, dim: int, tile_w: int, tile_h: int | None = None,
        *, dim_y: int | None = None,
    ):
        if tile_h is None:
            tile_h = tile_w
        if dim_y is None:
            dim_y = dim
        if dim <= 0 or dim_y <= 0:
            raise ConfigError(f"dim must be positive, got {dim}x{dim_y}")
        if tile_w <= 0 or tile_h <= 0:
            raise ConfigError(f"tile size must be positive, got {tile_w}x{tile_h}")
        if tile_w > dim or tile_h > dim_y:
            raise ConfigError(
                f"tile size {tile_w}x{tile_h} larger than image dim {dim}"
                + (f"x{dim_y}" if dim_y != dim else "")
            )
        self.dim = dim  # x side (legacy name: EASYPAP images are square)
        self.dim_x = dim
        self.dim_y = dim_y
        self.tile_w = tile_w
        self.tile_h = tile_h
        self.cols = -(-dim // tile_w)  # ceil division
        self.rows = -(-dim_y // tile_h)
        self._tiles: list[Tile] = []
        idx = 0
        for r in range(self.rows):
            y = r * tile_h
            h = min(tile_h, dim_y - y)
            for c in range(self.cols):
                x = c * tile_w
                w = min(tile_w, dim - x)
                self._tiles.append(Tile(x=x, y=y, w=w, h=h, row=r, col=c, index=idx))
                idx += 1

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._tiles)

    def __iter__(self) -> Iterator[Tile]:
        """Tiles in collapse(2) row-major order."""
        return iter(self._tiles)

    def __getitem__(self, index: int) -> Tile:
        return self._tiles[index]

    # -- lookups ---------------------------------------------------------------
    def at(self, row: int, col: int) -> Tile:
        """Tile at grid coordinates (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigError(
                f"tile ({row}, {col}) out of a {self.rows}x{self.cols} grid"
            )
        return self._tiles[row * self.cols + col]

    def tile_of_pixel(self, y: int, x: int) -> Tile:
        """The tile containing pixel (y, x)."""
        if not (0 <= y < self.dim_y and 0 <= x < self.dim_x):
            raise ConfigError(f"pixel ({y}, {x}) outside a {self.dim}px image")
        return self.at(y // self.tile_h, x // self.tile_w)

    # -- WorkDomain protocol ---------------------------------------------------
    def dependencies(self) -> None:
        """Grids are dependency-free: every tile of a region may run
        concurrently (``None`` = no ordering edges)."""
        return None

    def projection(self) -> str:
        """Render hint: tiles live directly in the image plane."""
        return "plane"

    # -- iteration orders ------------------------------------------------------
    def by_rows(self) -> Iterator[list[Tile]]:
        """Tiles grouped per tile-row (the non-collapsed ``omp for`` order)."""
        for r in range(self.rows):
            yield self._tiles[r * self.cols : (r + 1) * self.cols]

    def border_tiles(self) -> list[Tile]:
        """Tiles touching the image border (the blur 'outer tiles')."""
        return [
            t
            for t in self._tiles
            if t.row in (0, self.rows - 1) or t.col in (0, self.cols - 1)
        ]

    def inner_tiles(self) -> list[Tile]:
        """Tiles with a full 1-pixel neighbourhood inside the image."""
        return [
            t
            for t in self._tiles
            if 0 < t.row < self.rows - 1 and 0 < t.col < self.cols - 1
        ]

    def neighbours(self, tile: Tile, diagonal: bool = False) -> list[Tile]:
        """Adjacent tiles in the grid (4- or 8-connectivity)."""
        out = []
        deltas = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if diagonal:
            deltas += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for dr, dc in deltas:
            r, c = tile.row + dr, tile.col + dc
            if 0 <= r < self.rows and 0 <= c < self.cols:
                out.append(self.at(r, c))
        return out

    def tile_reduce(
        self, array: np.ndarray, op: np.ufunc = np.add, *, y0: int = 0
    ) -> np.ndarray:
        """Per-tile reduction of a ``(dim_y, dim_x)`` array → ``(rows, cols)``.

        The workhorse of the whole-frame fast path: per-tile work and
        change profiles are recovered from a full-frame array with two
        ``reduceat`` passes instead of one NumPy call per tile.  Integer
        and boolean reductions are exact, so the recovered values equal
        the per-tile computations bit for bit.

        With ``y0`` the array is a row band instead: it holds image rows
        ``y0 ..``, which must span whole tile rows (the last one may end
        at the image border), and the result has one row per tile row of
        the band (an MPI rank's band).
        """
        y1 = y0 + array.shape[0]
        if (
            array.shape[1] != self.dim_x
            or y0 % self.tile_h
            or y1 <= y0
            or y1 > self.dim_y
            or (y1 % self.tile_h and y1 != self.dim_y)
        ):
            raise ConfigError(
                f"tile_reduce expects a ({self.dim_y}, {self.dim_x}) array"
                f" or a band of whole tile rows, got {array.shape} at row {y0}"
            )
        row_starts = np.arange(0, array.shape[0], self.tile_h)
        col_starts = np.arange(self.cols) * self.tile_w
        return op.reduceat(op.reduceat(array, row_starts, axis=0), col_starts, axis=1)

    def tile_index_array(self, tiles) -> np.ndarray:
        """Collapse(2) indices of ``tiles`` as an array (fast-path gather)."""
        return np.fromiter((t.index for t in tiles), dtype=np.intp, count=len(tiles))

    def coverage_ok(self) -> bool:
        """True iff tiles exactly partition the image (used as an invariant)."""
        covered = 0
        for t in self._tiles:
            covered += t.area
        return covered == self.dim_x * self.dim_y

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TileGrid(dim={self.dim}, tile={self.tile_w}x{self.tile_h}, "
            f"{self.rows}x{self.cols} tiles)"
        )
