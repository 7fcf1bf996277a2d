"""Tests for the mandel kernel: math, work model, variant equivalence."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import run
from repro.core.kernel import get_kernel
from repro.kernels.mandel import DEFAULT_MAX_ITER, mandel_counts_frame
from tests.conftest import make_config
from tests.oracles.mandel import mandel_counts


class TestMandelCounts:
    def test_known_interior_point(self):
        # c = 0 is in the set: never escapes
        counts, _ = mandel_counts(np.array([[0.0]]), np.array([[0.0]]), 100)
        assert counts[0, 0] == 100

    def test_known_exterior_point(self):
        # c = 2 + 0i escapes immediately (|z1| = 2, |z2| = 6 > 2)
        counts, _ = mandel_counts(np.array([[2.0]]), np.array([[0.0]]), 100)
        assert counts[0, 0] <= 2

    def test_period_2_bulb_member(self):
        counts, _ = mandel_counts(np.array([[-1.0]]), np.array([[0.0]]), 200)
        assert counts[0, 0] == 200

    def test_work_equals_sum_of_active_iterations(self):
        cr = np.array([[0.0, 2.0]])
        ci = np.array([[0.0, 0.0]])
        counts, work = mandel_counts(cr, ci, 50)
        # work >= iterations actually spent; interior point spends all 50
        assert work >= 50
        assert work <= 2 * 50

    def test_work_deterministic(self):
        rng = np.random.default_rng(0)
        cr = rng.uniform(-2, 1, (8, 8))
        ci = rng.uniform(-1.5, 1.5, (8, 8))
        w1 = mandel_counts(cr, ci, 64)[1]
        w2 = mandel_counts(cr, ci, 64)[1]
        assert w1 == w2

    def test_broadcasting(self):
        counts, _ = mandel_counts(np.zeros((1, 4)), np.zeros((3, 1)), 10)
        assert counts.shape == (3, 4)


ORACLE_DIM = 48


@st.composite
def viewport_rects(draw):
    """A rectangle of the kernel's viewport after a random number of
    zoom steps (deeper views put more pixels on the set's boundary)."""
    x = draw(st.integers(0, ORACLE_DIM - 1))
    y = draw(st.integers(0, ORACLE_DIM - 1))
    w = draw(st.integers(1, ORACLE_DIM - x))
    h = draw(st.integers(1, ORACLE_DIM - y))
    return x, y, w, h, draw(st.integers(0, 120))


class TestSingleCoreMatchesOracle:
    """Per-tile and whole-frame execution share ``mandel_counts_frame``,
    so only this property checks the core against independent code."""

    @settings(max_examples=40, deadline=None)
    @given(
        rect=viewport_rects(),
        max_iter=st.integers(1, 512),
        julia=st.booleans(),
    )
    def test_counts_and_work_equal_oracle(self, rect, max_iter, julia):
        x, y, w, h, zooms = rect
        kernel = get_kernel("mandel")
        ctx = SimpleNamespace(
            dim=ORACLE_DIM, arg=f"julia:-0.8:0.156:{max_iter}" if julia else str(max_iter),
            data={},
        )
        kernel.init(ctx)
        for _ in range(zooms):
            kernel.zoom(ctx)
        julia_c = ctx.data["julia_c"]
        cr, ci = kernel._coords(ctx, x, y, w, h)
        want_counts, want_work = mandel_counts(cr, ci, max_iter, julia_c=julia_c)
        counts = mandel_counts_frame(cr, ci, max_iter, julia_c=julia_c)
        assert np.array_equal(counts, want_counts)
        assert counts.sum() + np.count_nonzero(counts < max_iter) == want_work
        tile_counts, tile_work = kernel._rect_counts(ctx, x, y, w, h)
        assert np.array_equal(tile_counts, want_counts)
        assert tile_work == want_work


class TestVariants:
    @pytest.mark.parametrize("v", ["tiled", "omp", "omp_tiled", "ocl"])
    def test_equivalent_to_seq(self, v):
        cfg = dict(kernel="mandel", dim=64, tile_w=16, tile_h=16, iterations=2)
        ref = run(make_config(variant="seq", **cfg))
        got = run(make_config(variant=v, **cfg))
        assert np.array_equal(ref.image, got.image), f"variant {v} diverges"

    def test_zoom_changes_image_between_iterations(self):
        one = run(make_config(kernel="mandel", variant="seq", iterations=1))
        two = run(make_config(kernel="mandel", variant="seq", iterations=2))
        assert not np.array_equal(one.image, two.image)

    def test_max_iter_from_arg(self):
        r = run(make_config(kernel="mandel", variant="seq", arg="32", iterations=1))
        assert r.context.data["max_iter"] == 32
        d = run(make_config(kernel="mandel", variant="seq", iterations=1))
        assert d.context.data["max_iter"] == DEFAULT_MAX_ITER

    def test_bad_arg_falls_back_to_default(self):
        r = run(make_config(kernel="mandel", variant="seq", arg="huge", iterations=1))
        assert r.context.data["max_iter"] == DEFAULT_MAX_ITER

    def test_set_pixels_are_black(self):
        r = run(make_config(kernel="mandel", variant="omp_tiled", dim=64,
                            iterations=1, arg="64"))
        # the viewport contains the set: some pixels must be pure black
        black = (r.image >> 8) == 0
        assert black.any()
        assert not black.all()


class TestLoadImbalance:
    """The pedagogical core: mandel under static scheduling is imbalanced."""

    def test_static_is_imbalanced_dynamic_is_not(self):
        cfg = dict(kernel="mandel", variant="omp_tiled", dim=128, tile_w=16,
                   tile_h=16, iterations=2, nthreads=4, monitoring=True)
        stat = run(make_config(schedule="static", **cfg))
        dyn = run(make_config(schedule="dynamic", **cfg))
        assert stat.monitor.load_imbalance() > 1.5
        assert dyn.monitor.load_imbalance() < 1.2

    def test_dynamic_beats_static(self):
        cfg = dict(kernel="mandel", variant="omp_tiled", dim=128, tile_w=16,
                   tile_h=16, iterations=2, nthreads=4)
        stat = run(make_config(schedule="static", **cfg))
        dyn = run(make_config(schedule="dynamic", **cfg))
        assert dyn.virtual_time < stat.virtual_time

    def test_tile_costs_reflect_set_membership(self):
        r = run(make_config(kernel="mandel", variant="omp_tiled", dim=128,
                            tile_w=16, tile_h=16, iterations=1, nthreads=4,
                            monitoring=True))
        heat = r.monitor.records[0].heat
        assert heat.max() > 4 * heat.min()  # strong cost heterogeneity
