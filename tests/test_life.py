"""Tests for the Game of Life kernel: rule, laziness, datasets, MPI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import run
from repro.kernels.life import GLIDER, life_step_rect, make_dataset
from tests.conftest import make_config
from tests.oracles import life as oracle


def step_full(cells):
    nxt = np.zeros_like(cells)
    life_step_rect(cells, nxt, 0, 0, cells.shape[0], cells.shape[1])
    return nxt


class TestRule:
    def test_blinker_oscillates(self):
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[2, 1:4] = 1  # horizontal blinker
        nxt = step_full(cells)
        expected = np.zeros_like(cells)
        expected[1:4, 2] = 1  # vertical
        assert np.array_equal(nxt, expected)
        assert np.array_equal(step_full(nxt), cells)

    def test_block_is_still_life(self):
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[1:3, 1:3] = 1
        assert np.array_equal(step_full(cells), cells)

    def test_lonely_cell_dies(self):
        cells = np.zeros((3, 3), dtype=np.uint8)
        cells[1, 1] = 1
        assert step_full(cells).sum() == 0

    def test_border_cells_have_dead_outside(self):
        cells = np.ones((2, 2), dtype=np.uint8)  # block in the corner
        assert np.array_equal(step_full(cells), cells)

    def test_glider_translates_diagonally(self):
        cells = np.zeros((10, 10), dtype=np.uint8)
        for dy, dx in GLIDER:
            cells[2 + dy, 2 + dx] = 1
        c = cells
        for _ in range(4):  # glider period is 4, moving (+1, +1)
            c = step_full(c)
        expected = np.zeros_like(cells)
        for dy, dx in GLIDER:
            expected[3 + dy, 3 + dx] = 1
        assert np.array_equal(c, expected)

    def test_rect_update_matches_full_update(self):
        rng = np.random.default_rng(3)
        cells = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        full = step_full(cells)
        tiled = np.zeros_like(cells)
        for y in range(0, 12, 4):
            for x in range(0, 12, 4):
                life_step_rect(cells, tiled, y, x, 4, 4)
        assert np.array_equal(full, tiled)

    def test_changed_count(self):
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[2, 1:4] = 1
        nxt = np.zeros_like(cells)
        changed = life_step_rect(cells, nxt, 0, 0, 5, 5)
        assert changed == 4  # 2 births + 2 deaths


@st.composite
def boards_and_rects(draw):
    """A random 0/1 board of any ``(H, W)`` up to 40x40 and a rectangle
    in it.  Each side of the rectangle is snapped to the board's edge
    half of the time, so edges and corners come up often."""
    H, W = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.1, 0.35, 0.6]))
    seed = draw(st.integers(0, 2**32 - 1))
    cells = (np.random.default_rng(seed).random((H, W)) < density).astype(np.uint8)

    def span(n):
        lo = 0 if draw(st.booleans()) else draw(st.integers(0, n - 1))
        hi = n if draw(st.booleans()) else draw(st.integers(lo + 1, n))
        return lo, hi - lo

    y, h = span(H)
    x, w = span(W)
    return cells, y, x, h, w


def garbage_like(cells, seed=7):
    """A ``nxt`` buffer whose every byte differs from a fresh step's."""
    return np.random.default_rng(seed).integers(2, 256, cells.shape, dtype=np.uint8)


class TestSingleCoreMatchesOracle:
    """Per-tile, whole-frame and MPI-band execution share
    ``life_step_rect``, so only these properties check the core against
    independent code: the 8-neighbour ``int16`` stencil."""

    @settings(max_examples=200, deadline=None)
    @given(case=boards_and_rects())
    def test_rect_equals_oracle(self, case):
        cells, y, x, h, w = case
        before = cells.copy()
        got, want = garbage_like(cells), garbage_like(cells)
        changed = life_step_rect(cells, got, y, x, h, w)
        assert changed == oracle.life_step_rect(cells, want, y, x, h, w)
        assert np.array_equal(got[y : y + h, x : x + w], want[y : y + h, x : x + w])
        outside = np.ones(cells.shape, dtype=bool)
        outside[y : y + h, x : x + w] = False
        assert np.array_equal(got[outside], garbage_like(cells)[outside])
        assert np.array_equal(got, want)
        assert np.array_equal(cells, before)

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 48), st.integers(1, 48)),
        tile=st.tuples(st.integers(1, 17), st.integers(1, 17)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tiles_and_whole_frame_equal_oracle(self, shape, tile, seed):
        cells = (np.random.default_rng(seed).random(shape) < 0.35).astype(np.uint8)
        H, W = shape
        th, tw = tile
        want = garbage_like(cells)
        want_changed = oracle.life_step_rect(cells, want, 0, 0, H, W)
        frame = garbage_like(cells)
        assert life_step_rect(cells, frame, 0, 0, H, W) == want_changed
        assert np.array_equal(frame, want)
        tiled = garbage_like(cells)
        total = 0
        for y in range(0, H, th):
            for x in range(0, W, tw):
                h, w = min(th, H - y), min(tw, W - x)
                total += life_step_rect(cells, tiled, y, x, h, w)
        assert total == want_changed
        assert np.array_equal(tiled, want)


class TestDatasets:
    def test_known_names(self):
        for name in ["random", "diag", "gun", "blinkers"]:
            cells = make_dataset(name, 64, seed=1)
            assert cells.shape == (64, 64)
            assert cells.any()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_dataset("nope", 32)

    def test_random_is_seed_deterministic(self):
        assert np.array_equal(make_dataset("random", 32, 5), make_dataset("random", 32, 5))
        assert not np.array_equal(make_dataset("random", 32, 5), make_dataset("random", 32, 6))

    def test_diag_is_sparse(self):
        cells = make_dataset("diag", 128)
        assert cells.mean() < 0.02


class TestVariants:
    @pytest.mark.parametrize("v", ["omp_tiled", "lazy"])
    @pytest.mark.parametrize("dataset", ["random", "diag", "gun"])
    def test_equivalent_to_seq(self, v, dataset):
        cfg = dict(kernel="life", dim=48, tile_w=16, tile_h=16, iterations=6,
                   arg=dataset, seed=9)
        ref = run(make_config(variant="seq", **cfg))
        got = run(make_config(variant=v, **cfg))
        assert np.array_equal(ref.image, got.image), f"{v}/{dataset} diverges"

    def test_early_stop_on_still_life(self):
        # blinkers oscillate (no stop); an empty-ish board stabilizes fast:
        r = run(make_config(kernel="life", variant="omp_tiled", dim=32,
                            tile_w=16, tile_h=16, iterations=50, arg="random",
                            seed=12))
        if r.early_stop:
            assert r.completed_iterations == r.early_stop
            assert r.completed_iterations < 50

    def test_lazy_skips_steady_tiles(self):
        r = run(make_config(kernel="life", variant="lazy", dim=256, tile_w=16,
                            tile_h=16, iterations=6, arg="diag",
                            monitoring=True))
        fractions = [rec.computed_fraction() for rec in r.monitor.records]
        assert fractions[0] == 1.0  # first iteration computes everything
        # afterwards only the diagonal bands are recomputed (Fig. 13)
        assert all(f < 0.6 for f in fractions[1:])

    def test_eager_computes_everything(self):
        r = run(make_config(kernel="life", variant="omp_tiled", dim=64,
                            tile_w=16, tile_h=16, iterations=3, arg="diag",
                            monitoring=True))
        assert all(rec.computed_fraction() == 1.0 for rec in r.monitor.records)

    def test_image_refresh_colors(self):
        r = run(make_config(kernel="life", variant="seq", dim=32, tile_w=16,
                            tile_h=16, iterations=1, arg="gun"))
        vals = set(np.unique(r.image).tolist())
        assert vals <= {0x000000FF, 0xFFFF00FF}
        assert len(vals) == 2


class TestMpiVariant:
    def test_matches_single_process(self):
        cfg = dict(kernel="life", dim=64, tile_w=16, tile_h=16, iterations=6,
                   arg="diag")
        ref = run(make_config(variant="seq", **cfg))
        mpi = run(make_config(variant="mpi_omp", mpi_np=2, **cfg))
        assert np.array_equal(ref.image, mpi.image)

    @pytest.mark.parametrize("np_", [2, 4])
    def test_various_world_sizes(self, np_):
        cfg = dict(kernel="life", dim=64, tile_w=16, tile_h=16, iterations=4,
                   arg="gun")
        ref = run(make_config(variant="seq", **cfg))
        mpi = run(make_config(variant="mpi_omp", mpi_np=np_, **cfg))
        assert np.array_equal(ref.image, mpi.image)

    def test_each_rank_works_its_band_only(self):
        r = run(make_config(kernel="life", variant="mpi_omp", mpi_np=2,
                            dim=64, tile_w=16, tile_h=16, iterations=3,
                            arg="diag", monitoring=True, debug="M"))
        assert len(r.rank_results) == 2
        for rank, rr in enumerate(r.rank_results):
            rec = rr.monitor.records[0]
            computed_rows = sorted(set(np.argwhere(rec.tiling >= 0)[:, 0]))
            if rank == 0:
                assert all(row < 2 for row in computed_rows)
            else:
                assert all(row >= 2 for row in computed_rows)

    def test_requires_mpirun(self):
        with pytest.raises(Exception):
            run(make_config(kernel="life", variant="mpi_omp", mpi_np=0))
