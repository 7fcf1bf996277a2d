"""Tests for work-profile capture & replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import select_tier
from repro.core.engine import run
from repro.errors import ConfigError
from repro.expt.replay import WorkProfileCache, capture_log, replay_log
from tests.conftest import make_config


class TestCapture:
    def test_parallel_kernel_logs_par_regions(self):
        cfg = make_config(kernel="mandel", variant="omp_tiled", iterations=3)
        log, model = capture_log(cfg)
        pars = [e for e in log if e[0] == "par"]
        assert len(pars) == 3
        assert all(len(e[1]) == 16 for e in pars)  # 4x4 tiles

    def test_task_kernel_logs_dags(self):
        cfg = make_config(kernel="cc", variant="omp_task", iterations=4)
        log, _ = capture_log(cfg)
        dags = [e for e in log if e[0] == "dag"]
        assert dags
        works, preds = dags[0][1], dags[0][2]
        assert len(works) == len(preds) == 16

    def test_mpi_rejected(self):
        cfg = make_config(kernel="life", variant="mpi_omp", mpi_np=2)
        with pytest.raises(ConfigError):
            capture_log(cfg)


class TestReplay:
    @pytest.mark.parametrize("variant", ["omp_tiled", "tiled"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided",
                                          "nonmonotonic:dynamic"])
    def test_replay_equals_full_run(self, variant, schedule):
        base = make_config(kernel="mandel", variant=variant, iterations=2)
        cache = WorkProfileCache()
        for threads in (1, 3, 5):
            cfg = base.with_(nthreads=threads, schedule=schedule)
            assert cache.simulate(cfg) == pytest.approx(run(cfg).virtual_time)

    def test_replay_equals_full_run_for_tasks(self):
        base = make_config(kernel="cc", variant="omp_task", iterations=6)
        cache = WorkProfileCache()
        for threads in (2, 4):
            cfg = base.with_(nthreads=threads)
            assert cache.simulate(cfg) == pytest.approx(run(cfg).virtual_time)

    def test_cache_reused_across_configs(self):
        cache = WorkProfileCache()
        base = make_config(kernel="mandel", variant="omp_tiled")
        cache.simulate(base.with_(nthreads=2))
        cache.simulate(base.with_(nthreads=8, schedule="static"))
        assert len(cache._cache) == 1  # same workload key

    def test_different_workloads_not_conflated(self):
        cache = WorkProfileCache()
        base = make_config(kernel="mandel", variant="omp_tiled")
        cache.simulate(base)
        cache.simulate(base.with_(dim=32))
        assert len(cache._cache) == 2

    def test_unknown_entry_kind_rejected(self):
        from repro.sched.costmodel import DEFAULT_COST_MODEL
        from repro.sched.policies import parse_schedule

        with pytest.raises(ConfigError):
            replay_log([("bogus",)], nthreads=2,
                       policy=parse_schedule("dynamic"),
                       model=DEFAULT_COST_MODEL)


class TestSelectTier:
    def test_sim_defaults_to_fastpath(self):
        assert select_tier(make_config()) == "fastpath"

    def test_fastpath_off_is_interpreted(self):
        assert select_tier(make_config(fastpath="off")) == "interpreted"

    def test_monitoring_declines_fastpath(self):
        assert select_tier(make_config(monitoring=True)) == "interpreted"

    def test_real_backend_never_fastpath(self):
        assert select_tier(make_config(backend="threads")) == "interpreted"

    def test_fastpath_run_reports_fastpath(self):
        res = run(make_config(iterations=1))
        assert res.jit_tier == "fastpath"

    def test_per_tile_run_reports_interpreted(self):
        res = run(make_config(iterations=1, fastpath="off"))
        assert res.jit_tier == "interpreted"


class TestMemo:
    def test_hit_equals_fresh_replay(self):
        cfg = make_config(iterations=2)
        cache = WorkProfileCache()
        first = cache.simulate(cfg)
        assert cache.last_memo == "miss"
        again = cache.simulate(cfg)
        assert cache.last_memo == "hit"
        fresh = WorkProfileCache(memoize=False).simulate(cfg)
        assert first == again == fresh
        assert cache.counters == {"memo_hits": 1, "memo_misses": 1}

    def test_memoize_off_never_counts(self):
        cfg = make_config(iterations=1)
        cache = WorkProfileCache(memoize=False)
        cache.simulate(cfg)
        cache.simulate(cfg)
        assert cache.last_memo == ""
        assert cache.counters == {"memo_hits": 0, "memo_misses": 0}

    def test_distinct_points_do_not_collide(self):
        cache = WorkProfileCache()
        base = make_config(iterations=1)
        t2 = cache.simulate(base.with_(nthreads=2))
        t8 = cache.simulate(base.with_(nthreads=8))
        assert cache.counters["memo_misses"] == 2
        assert t2 != t8  # different thread counts really were replayed

    def test_memo_persists_across_instances(self, tmp_path):
        cfg = make_config(iterations=2, schedule="nonmonotonic:dynamic")
        first = WorkProfileCache(cache_dir=tmp_path)
        t1 = first.simulate(cfg)
        warm = WorkProfileCache(cache_dir=tmp_path)
        t2 = warm.simulate(cfg)
        assert warm.counters == {"memo_hits": 1, "memo_misses": 0}
        assert t1 == t2

    def test_corrupt_memo_file_recomputes(self, tmp_path):
        cfg = make_config(iterations=1)
        cache = WorkProfileCache(cache_dir=tmp_path)
        expected = cache.simulate(cfg)
        for memo_file in tmp_path.glob("memo-*.pkl"):
            memo_file.write_bytes(b"garbage")
        cold = WorkProfileCache(cache_dir=tmp_path)
        assert cold.simulate(cfg) == expected
        assert cold.counters["memo_misses"] == 1

    def test_workload_key_includes_tier(self):
        cfg = make_config()
        off = cfg.with_(fastpath="off")
        assert WorkProfileCache.tier_of(off) == "interpreted"
        assert WorkProfileCache.workload_key(cfg) != WorkProfileCache.workload_key(off)

    def test_tier_of_ignores_instrumentation(self):
        # capture always runs uninstrumented, so the key must too
        cfg = make_config()
        assert WorkProfileCache.tier_of(cfg) == \
            WorkProfileCache.tier_of(cfg.with_(monitoring=True))


@settings(max_examples=12, deadline=None)
@given(
    nthreads=st.integers(min_value=1, max_value=6),
    schedule=st.sampled_from([
        "static", "dynamic", "dynamic,3", "guided",
        "nonmonotonic:dynamic", "nonmonotonic:dynamic,2",
    ]),
    run_index=st.integers(min_value=0, max_value=2),
)
def test_memoized_equals_fresh_for_every_schedule(nthreads, schedule, run_index):
    """Property: for every schedule family — including work stealing,
    which perf mode replays closed-form — the memoized elapsed time
    equals a fresh replay of the same point, exactly."""
    cfg = make_config(
        dim=32, tile_w=8, tile_h=8, iterations=1,
        nthreads=nthreads, schedule=schedule, run_index=run_index,
    )
    memo_cache = WorkProfileCache()
    first = memo_cache.simulate(cfg)
    hit = memo_cache.simulate(cfg)
    fresh = WorkProfileCache(memoize=False).simulate(cfg)
    assert first == hit == fresh
    assert memo_cache.counters["memo_hits"] >= 1
