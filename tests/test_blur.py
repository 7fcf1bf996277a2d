"""Tests for the blur kernel: stencil semantics and the Fig. 10 story."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import run
from repro.core.image import rgba
from repro.core.tiling import TileGrid
from repro.kernels.api import SCALAR_PIXEL_WORK, VECTOR_PIXEL_WORK
from repro.kernels.blur import blur_rect_scalar, blur_rect_vectorized
from tests.conftest import make_config
from tests.oracles import blur as oracle


def random_img(dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=(dim, dim), dtype=np.uint32)


class TestBlurRect:
    def test_vectorized_matches_scalar_everywhere(self):
        src = random_img(16)
        d1 = np.zeros_like(src)
        d2 = np.zeros_like(src)
        blur_rect_scalar(src, d1, 0, 0, 16, 16)
        blur_rect_vectorized(src, d2, 0, 0, 16, 16)
        assert np.array_equal(d1, d2)

    @pytest.mark.parametrize("tile_w,tile_h", [(1, 1), (4, 3), (5, 8), (7, 13), (21, 13)])
    def test_vectorized_matches_scalar_on_every_tile(self, tile_w, tile_h):
        """Per-tile calls on a non-square image whose sides the tiles do
        not divide: corner and edge tiles clip their halo to the image,
        and the tiles together write the whole-frame call's bytes."""
        dim_x, dim_y = 21, 13
        src = np.random.default_rng(3).integers(
            0, 2**32, size=(dim_y, dim_x), dtype=np.uint32
        )
        scalar = np.zeros_like(src)
        blur_rect_scalar(src, scalar, 0, 0, dim_x, dim_y)
        tiled = np.zeros_like(src)
        for tile in TileGrid(dim_x, tile_w, tile_h, dim_y=dim_y):
            x, y, w, h = tile.as_rect()
            blur_rect_vectorized(src, tiled, x, y, w, h)
            assert np.array_equal(
                tiled[y : y + h, x : x + w], scalar[y : y + h, x : x + w]
            ), f"tile {tile.as_rect()} diverges"
        frame = np.zeros_like(src)
        blur_rect_vectorized(src, frame, 0, 0, dim_x, dim_y)
        assert np.array_equal(tiled, frame)

    def test_vectorized_matches_scalar_on_inner_rect(self):
        src = random_img(16)
        d1 = np.zeros_like(src)
        d2 = np.zeros_like(src)
        blur_rect_scalar(src, d1, 4, 4, 8, 8)
        blur_rect_vectorized(src, d2, 4, 4, 8, 8)
        assert np.array_equal(d1[4:12, 4:12], d2[4:12, 4:12])

    def test_corner_pixel_averages_4_neighbours(self):
        src = np.zeros((4, 4), dtype=np.uint32)
        src[0, 0] = rgba(40, 0, 0, 0)
        src[0, 1] = rgba(80, 0, 0, 0)
        src[1, 0] = rgba(80, 0, 0, 0)
        src[1, 1] = rgba(40, 0, 0, 0)
        dst = np.zeros_like(src)
        blur_rect_vectorized(src, dst, 0, 0, 1, 1)
        assert int(dst[0, 0]) >> 24 == (40 + 80 + 80 + 40) // 4

    def test_uniform_image_is_fixed_point(self):
        src = np.full((8, 8), rgba(10, 20, 30, 255), dtype=np.uint32)
        dst = np.zeros_like(src)
        blur_rect_vectorized(src, dst, 0, 0, 8, 8)
        assert np.array_equal(dst, src)


@st.composite
def images_and_rects(draw):
    """A random ``(H, W)`` image up to 40x40 and a rectangle in it: any
    rectangle, a single pixel, or the whole frame.  Half of the images
    draw their channel bytes from a small palette, so the averages over
    4 (corner) and 6 (edge) pixels often land exactly on a half."""
    H, W = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.sampled_from([None, (0, 1), (0, 255), (0, 1, 2, 3, 254, 255)]))
    if palette is None:
        img = rng.integers(0, 2**32, size=(H, W), dtype=np.uint32)
    else:
        channels = rng.choice(np.array(palette, dtype=np.uint8), size=(H, W, 4))
        img = channels.view("<u4")[..., 0].astype(np.uint32)
    kind = draw(st.sampled_from(["rect", "pixel", "frame"]))
    if kind == "frame":
        return img, 0, 0, W, H
    y, x = draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))
    if kind == "pixel":
        return img, x, y, 1, 1
    return img, x, y, draw(st.integers(1, W - x)), draw(st.integers(1, H - y))


def garbage_like(img, seed=11):
    return np.random.default_rng(seed).integers(0, 2**32, img.shape, dtype=np.uint32)


class TestSingleCoreMatchesOracle:
    """Per-tile, whole-frame, ``ocl`` and MPI-band blur share
    ``blur_rect_vectorized``; these properties check it against
    independent code: nine shifted ``float64`` adds over split channel
    planes."""

    @settings(max_examples=300, deadline=None)
    @given(case=images_and_rects())
    def test_rect_equals_oracle(self, case):
        src, x, y, w, h = case
        before = src.copy()
        got, want = garbage_like(src), garbage_like(src)
        blur_rect_vectorized(src, got, x, y, w, h)
        oracle.blur_rect(src, want, x, y, w, h)
        assert np.array_equal(got, want)  # the rect, and nothing outside it
        assert np.array_equal(src, before)

    @settings(max_examples=100, deadline=None)
    @given(case=images_and_rects())
    def test_in_place_equals_oracle(self, case):
        """``src is dst``, the call examples/buggy_blur_writes_cur.py
        makes: the whole halo is read before any pixel is written."""
        img, x, y, w, h = case
        got, want = img.copy(), img.copy()
        blur_rect_vectorized(got, got, x, y, w, h)
        oracle.blur_rect(want, want, x, y, w, h)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("total,divisor,expected", [
        (2, 4, 0), (6, 4, 2), (10, 4, 2),  # corners: x.5 rounds to even
        (3, 6, 0), (9, 6, 2), (15, 6, 2),  # edges
    ])
    def test_round_half_to_even(self, total, divisor, expected):
        # a 2x3 image: the corner (0, 0) averages 4 pixels, the edge
        # pixel (0, 1) averages 6; only the first pixel carries a value
        src = np.zeros((2, 3), dtype=np.uint32)
        src[0, 0] = rgba(total, 0, total, 0)
        src[1, 0] = rgba(0, total, 0, 0)
        target = (0, 0) if divisor == 4 else (0, 1)
        got, want = np.zeros_like(src), np.zeros_like(src)
        blur_rect_vectorized(src, got, 0, 0, 3, 2)
        oracle.blur_rect(src, want, 0, 0, 3, 2)
        assert np.array_equal(got, want)
        assert int(got[target]) == rgba(expected, expected, expected, 0)


class TestVariants:
    @pytest.mark.parametrize("v", ["tiled", "omp_tiled", "omp_tiled_opt"])
    def test_equivalent_to_scalar_seq(self, v):
        cfg = dict(kernel="blur", dim=24, tile_w=8, tile_h=8, iterations=2, seed=7)
        ref = run(make_config(variant="seq", **cfg))
        got = run(make_config(variant=v, **cfg))
        assert np.array_equal(ref.image, got.image), f"variant {v} diverges"

    def test_blur_smooths(self):
        before = run(make_config(kernel="blur", variant="tiled", dim=32,
                                 tile_w=8, tile_h=8, iterations=1, seed=7))
        # variance of channel values decreases under averaging
        r0 = run(make_config(kernel="blur", variant="tiled", dim=32, tile_w=8,
                             tile_h=8, iterations=4, seed=7))
        var_before = (before.image >> 24 & 0xFF).astype(float).var()
        var_after = (r0.image >> 24 & 0xFF).astype(float).var()
        assert var_after < var_before


class TestFig10WorkModel:
    def test_opt_variant_is_about_3x_cheaper_at_16x16_grid(self):
        """Paper: removing conditionals from inner tiles -> ~3x."""
        cfg = dict(kernel="blur", dim=128, tile_w=8, tile_h=8, iterations=2,
                   nthreads=4)
        basic = run(make_config(variant="omp_tiled", **cfg))
        opt = run(make_config(variant="omp_tiled_opt", **cfg))
        factor = basic.virtual_time / opt.virtual_time
        assert 2.0 < factor < 4.5

    def test_inner_tiles_8x_cheaper_in_heatmap(self):
        r = run(make_config(kernel="blur", variant="omp_tiled_opt", dim=64,
                            tile_w=8, tile_h=8, iterations=1, nthreads=4,
                            monitoring=True))
        heat = r.monitor.records[0].heat
        border = np.concatenate([heat[0], heat[-1], heat[1:-1, 0], heat[1:-1, -1]])
        inner = heat[1:-1, 1:-1].ravel()
        ratio = border.mean() / inner.mean()
        assert ratio == pytest.approx(SCALAR_PIXEL_WORK / VECTOR_PIXEL_WORK, rel=0.2)

    def test_basic_variant_uniform_heat(self):
        r = run(make_config(kernel="blur", variant="omp_tiled", dim=64,
                            tile_w=8, tile_h=8, iterations=1, nthreads=4,
                            monitoring=True))
        heat = r.monitor.records[0].heat
        assert heat.max() == pytest.approx(heat.min(), rel=0.01)

    def test_real_python_vectorization_gap_is_large(self):
        """The honest measurement behind the work-model constants: the
        scalar path really is an order of magnitude slower."""
        import time

        src = random_img(32)
        dst = np.zeros_like(src)
        t0 = time.perf_counter()
        blur_rect_scalar(src, dst, 0, 0, 32, 32)
        scalar_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            blur_rect_vectorized(src, dst, 0, 0, 32, 32)
        vec_t = (time.perf_counter() - t0) / 5
        assert scalar_t > 3 * vec_t  # conservative: usually >> 10x
