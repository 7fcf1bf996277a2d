"""Tests for the mpirun launcher."""

import numpy as np
import pytest

from repro.core.engine import run
from repro.errors import ConfigError
from repro.mpi.launcher import parse_mpirun_args
from tests.conftest import make_config


class TestParseMpirun:
    @pytest.mark.parametrize("spec,np_", [("-np 2", 2), ("-n 4", 4),
                                          ("--oversubscribe -np 3", 3),
                                          ("  -np   8  ", 8)])
    def test_valid(self, spec, np_):
        assert parse_mpirun_args(spec) == np_

    @pytest.mark.parametrize("spec", ["", "-np", "-np zero", "-np 0"])
    def test_invalid(self, spec):
        with pytest.raises(ConfigError):
            parse_mpirun_args(spec)


class TestLauncher:
    def _cfg(self, **kw):
        base = dict(kernel="life", variant="mpi_omp", dim=64, tile_w=16,
                    tile_h=16, iterations=4, arg="gun", mpi_np=2)
        base.update(kw)
        return make_config(**base)

    def test_returns_master_with_rank_results(self):
        r = run(self._cfg())
        assert len(r.rank_results) == 2
        assert r.config.mpi_np == 2

    def test_virtual_time_is_slowest_rank(self):
        r = run(self._cfg())
        assert r.virtual_time == max(rr.virtual_time for rr in r.rank_results)

    def test_monitoring_master_only_by_default(self):
        r = run(self._cfg(monitoring=True))
        assert r.rank_results[0].monitor is not None
        assert r.rank_results[1].monitor is None

    def test_debug_m_monitors_every_rank(self):
        r = run(self._cfg(monitoring=True, debug="M"))
        assert all(rr.monitor is not None for rr in r.rank_results)

    def test_traces_labelled_per_rank(self):
        r = run(self._cfg(trace=True, debug="M"))
        labels = [rr.trace.meta.label for rr in r.rank_results]
        assert labels == ["cur.0", "cur.1"]

    def test_master_composes_full_image(self):
        ref = run(make_config(kernel="life", variant="seq", dim=64, tile_w=16,
                              tile_h=16, iterations=4, arg="gun"))
        r = run(self._cfg())
        assert np.array_equal(r.image, ref.image)

    def test_np1_works(self):
        r = run(self._cfg(mpi_np=1))
        assert len(r.rank_results) == 1

    def test_failure_in_kernel_surfaces(self):
        from repro.errors import MpiError

        # band misaligned with tile rows -> per-rank ConfigError wrapped
        with pytest.raises(MpiError):
            run(self._cfg(mpi_np=3, dim=64))


class TestParseMpirunStrict:
    @pytest.mark.parametrize("spec", ["-np 2 junk", "garbage -np 2",
                                      "-np 2 3"])
    def test_trailing_junk_rejected(self, spec):
        with pytest.raises(ConfigError, match="unparsed|cannot find"):
            parse_mpirun_args(spec)

    @pytest.mark.parametrize("spec,np_", [("--oversubscribe -np 3", 3),
                                          ("-np 2 --tag-output", 2)])
    def test_known_flag_shapes_still_parse(self, spec, np_):
        assert parse_mpirun_args(spec) == np_


class TestMergedResult:
    def _cfg(self, **kw):
        base = dict(kernel="life", variant="mpi_omp", dim=64, tile_w=16,
                    tile_h=16, iterations=4, arg="gun", mpi_np=2)
        base.update(kw)
        return make_config(**base)

    def test_wall_time_is_laggard_rank(self):
        r = run(self._cfg())
        assert r.wall_time == max(rr.wall_time for rr in r.rank_results)

    def test_default_trace_label_is_mpi_not_none(self):
        r = run(self._cfg(trace=True, debug="M", trace_label=None))
        labels = [rr.trace.meta.label for rr in r.rank_results]
        assert labels == ["mpi.0", "mpi.1"]

    def test_world_comm_counters_on_master(self):
        r = run(self._cfg())
        assert r.counters["mpi_msgs_sent_world"] > 0
        assert r.counters["mpi_bytes_sent_world"] > 0
        assert r.counters["mpi_collectives_world"] > 0


@pytest.mark.usefixtures("mpi_pools_shut_down_after")
class TestRankTier:
    """Each rank result reports its own execution tier and fast-path
    region count, on both substrates; the master sums the counts."""

    ITERATIONS = 3

    def _cfg(self, **kw):
        # random cells keep every rank's band dirty, so every iteration
        # runs one region per rank
        base = dict(kernel="life", variant="mpi_omp", dim=64, tile_w=16,
                    tile_h=16, iterations=self.ITERATIONS, arg="random", mpi_np=2)
        base.update(kw)
        return make_config(**base)

    @pytest.mark.parametrize("backend", ["inproc", "procs"])
    def test_plain_run_ranks_take_fast_path(self, backend):
        r = run(self._cfg(mpi_backend=backend))
        assert [rr.jit_tier for rr in r.rank_results] == ["fastpath", "fastpath"]
        assert [rr.fastpath_regions for rr in r.rank_results] == [self.ITERATIONS] * 2
        assert r.fastpath_regions == 2 * self.ITERATIONS
        assert r.jit_tier == ""  # aggregate result: tiers live on the ranks

    @pytest.mark.parametrize("backend", ["inproc", "procs"])
    def test_monitored_master_rank_is_interpreted(self, backend):
        r = run(self._cfg(mpi_backend=backend, monitoring=True))
        master, other = r.rank_results
        assert master.jit_tier == "interpreted"
        assert master.fastpath_regions == 0
        assert master.monitor is not None
        # only the master monitors, so the other rank keeps the fast path
        assert other.jit_tier == "fastpath"
        assert r.fastpath_regions == other.fastpath_regions == self.ITERATIONS
