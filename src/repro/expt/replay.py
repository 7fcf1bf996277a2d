"""Work-profile capture & replay: fast parameter sweeps.

A kernel's per-tile *work* is deterministic and independent of thread
count and schedule (iteration-independence is precisely what a
worksharing loop requires).  So a sweep over (threads x schedule) only
needs the kernel to run **once** per workload: the captured sequence of
parallel regions (with their work vectors and task graphs) is then
re-simulated under each configuration.

Replayed times are identical to full runs — the simulator sees the
same costs either way — which makes paper-Fig. 6-sized sweeps (dozens
of configurations x 10 repetitions) run in seconds.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import RunConfig
from repro.core.context import ExecutionContext, select_tier
from repro.core.kernel import get_kernel
from repro.errors import ConfigError
from repro.sched.costmodel import CostModel
from repro.sched.dag_sim import dag_policy_makespan
from repro.sched.policies import DynamicSchedule
from repro.sched.simulator import simulate

__all__ = ["RegionLog", "WorkProfileCache", "replay_log"]


#: log entry kinds (first tuple element); "dag" is a FIFO task region
#: (``task_region``), "dagp" a policy-scheduled dependency-carrying
#: worksharing region (wavefront domains)
PAR, SEQ, MASTER, DAG, DAGP = "par", "seq", "master", "dag", "dagp"

RegionLog = list  # list of ("par", works) / ("seq", works) / ("master", w)
#                   / ("dag", works, preds) / ("dagp", works, preds)


def capture_log(config: RunConfig) -> tuple[RegionLog, CostModel]:
    """Run ``config`` once, recording every region's work profile."""
    from repro.core.engine import run

    if config.mpi_np:
        raise ConfigError("work-profile replay does not support MPI runs")
    capture_cfg = config.with_(monitoring=False, trace=False)
    log: RegionLog = []
    kernel = get_kernel(capture_cfg.kernel)
    compute = kernel.compute_fn(capture_cfg.variant)
    want = kernel.domain_for(capture_cfg.variant)
    if want != "grid" and capture_cfg.domain == "grid":
        # mirror engine.run: kernels with a non-grid iteration space
        # get their declared domain unless one was forced explicitly
        capture_cfg = capture_cfg.with_(domain=want)
    ctx = ExecutionContext(capture_cfg)
    ctx.region_log = log
    kernel.init(ctx)
    kernel.draw(ctx)
    compute(ctx, capture_cfg.iterations)
    kernel.finalize(ctx)
    return log, ctx.model


def replay_log(
    log: RegionLog,
    *,
    nthreads: int,
    policy,
    model: CostModel,
    jitter: float = 0.0,
    jitter_rng=None,
) -> float:
    """Virtual elapsed time of the captured run under a new configuration.

    When ``jitter > 0``, ``jitter_rng`` must be the stream a full run
    would use (:func:`repro.util.rng.make_jitter_rng`); noise is drawn
    region by region in the same order, so replayed times equal full-run
    times exactly, noise included.
    """
    from repro.sched.costmodel import perturb

    def noisy(costs: list[float]) -> list[float]:
        if jitter <= 0.0:
            return costs
        return perturb(costs, jitter_rng, jitter)

    vclock = 0.0
    for entry in log:
        kind = entry[0]
        if kind == PAR:
            # stays on the timeline path: perfbench's sweep_fig6 span
            # coverage expects these sched.event_loop calls (ROADMAP)
            costs = noisy(model.times_of(entry[1]))
            res = simulate(costs, policy, nthreads, model=model, start_time=vclock)
            vclock = max(res.timeline.makespan, vclock) + model.fork_join_overhead
        elif kind == SEQ:
            vclock += sum(noisy(model.times_of(entry[1])))
        elif kind == MASTER:
            vclock += model.time_of(entry[1])
        elif kind in (DAG, DAGP):
            # a task region ("dag") is FIFO list scheduling: the DAG
            # engine's dynamic branch, whatever the run's schedule
            works, preds = entry[1], entry[2]
            costs = noisy(model.times_of(works))
            end = dag_policy_makespan(
                costs, preds, policy if kind == DAGP else DynamicSchedule(),
                nthreads, model=model, start_time=vclock,
            )
            vclock = max(end, vclock) + model.fork_join_overhead
        else:  # pragma: no cover - defensive
            raise ConfigError(f"unknown region log entry {kind!r}")
    return vclock


#: bump when the persisted profile layout changes; older files are
#: silently ignored (and re-captured), never misread.
#: 2: the execution tier joined the workload key and schedule-result
#: memo files appeared alongside the profiles
#: 3: work domains — the workload key grew (domain, dim_y, dim_z) and
#: region logs may carry "dagp" entries
CACHE_FORMAT = 3


@dataclass
class WorkProfileCache:
    """Memoizes work profiles by workload key; replays per configuration.

    With ``cache_dir`` set, profiles are also persisted to disk,
    content-addressed by the workload key — concurrent sweep workers
    and *later invocations* share captures instead of redoing them.
    Files are written atomically (tmp + ``os.replace``) and verified
    against their key on load, so a corrupt or stale cache entry can
    only ever cause a re-capture, never a wrong result.

    On top of the profiles sits the **schedule-result memo**: the
    replayed elapsed time of each fully-specified point — workload key
    plus ``(threads, schedule, jitter, run_index)`` — is remembered (and
    disk-persisted next to the profiles as ``memo-*.pkl``), so repeated
    sweep points, resumed sweeps and identical requests skip even the
    replay simulation.  A memo hit returns the exact float a fresh
    replay would produce — the replay is deterministic, that is the
    whole premise of this module — and the hit/miss tally is exposed in
    :attr:`counters` (surfaced as sweep telemetry) with the last
    outcome in :attr:`last_memo` (the ``memo`` CSV column).
    """

    cache_dir: str | os.PathLike | None = None
    #: schedule-result memoization on/off (tests of the raw replay path
    #: and A/B measurements switch it off)
    memoize: bool = True
    _cache: dict[tuple, tuple[RegionLog, CostModel]] = field(default_factory=dict)
    #: workload key -> {(threads, schedule, jitter, run_index): elapsed}
    _memo: dict[tuple, dict[tuple, float]] = field(default_factory=dict)
    counters: dict[str, int] = field(
        default_factory=lambda: {"memo_hits": 0, "memo_misses": 0}
    )
    #: outcome of the most recent :meth:`simulate` call: "hit", "miss",
    #: or "" (memoization disabled)
    last_memo: str = ""

    @staticmethod
    def workload_key(config: RunConfig) -> tuple:
        """Everything the work profile depends on (NOT threads/schedule).

        Includes the execution tier (fastpath/interpreted): the tiers
        are bit-identical by construction, but the cache must not
        *assume* its own correctness proof — a profile captured on the
        whole-frame path never collides with a per-tile one, so a
        tier-selection change between sweep resumes can only re-capture,
        never serve a profile from a different code path.
        """
        return (
            config.kernel,
            config.variant,
            config.dim,
            config.tile_w,
            config.tile_h,
            config.iterations,
            config.arg,
            config.seed,
            config.time_scale,
            config.backend,
            WorkProfileCache.tier_of(config),
            config.domain,
            config.dim_y,
            config.dim_z,
        )

    @staticmethod
    def tier_of(config: RunConfig) -> str:
        """The execution tier a capture of ``config`` resolves to (the
        capture always runs uninstrumented, like :func:`capture_log`)."""
        return select_tier(config.with_(monitoring=False, trace=False))

    def _disk_path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr((CACHE_FORMAT, key)).encode()).hexdigest()
        return Path(self.cache_dir) / f"profile-{digest[:40]}.pkl"

    def _load_disk(self, path: Path, key: tuple):
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
            if payload.get("format") != CACHE_FORMAT or payload.get("key") != key:
                return None
            return payload["log"], payload["model"]
        except Exception:
            return None

    def _store_disk(self, path: Path, key: tuple, profile) -> None:
        log, model = profile
        payload = {"format": CACHE_FORMAT, "key": key, "log": log, "model": model}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:  # the cache is an optimization, never fatal
            tmp.unlink(missing_ok=True)

    def profile(self, config: RunConfig) -> tuple[RegionLog, CostModel]:
        key = self.workload_key(config)
        if key in self._cache:
            return self._cache[key]
        if self.cache_dir is not None:
            path = self._disk_path(key)
            cached = self._load_disk(path, key)
            if cached is not None:
                self._cache[key] = cached
                return cached
        profile = capture_log(config)
        self._cache[key] = profile
        if self.cache_dir is not None:
            self._store_disk(self._disk_path(key), key, profile)
        return profile

    # -- schedule-result memo ------------------------------------------------
    def _memo_path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr((CACHE_FORMAT, key)).encode()).hexdigest()
        return Path(self.cache_dir) / f"memo-{digest[:40]}.pkl"

    def _load_memo_disk(self, key: tuple) -> dict[tuple, float]:
        try:
            with self._memo_path(key).open("rb") as fh:
                payload = pickle.load(fh)
            if payload.get("format") != CACHE_FORMAT or payload.get("key") != key:
                return {}
            return dict(payload["memo"])
        except Exception:
            return {}

    def _store_memo_disk(self, key: tuple, memo: dict[tuple, float]) -> None:
        """Merge-and-replace the on-disk memo for ``key``.

        Concurrent writers merge with what is on disk at write time;
        a lost update between racing workers costs one extra replay
        later, never a wrong value (all writers compute the same
        deterministic floats).
        """
        merged = self._load_memo_disk(key)
        merged.update(memo)
        path = self._memo_path(key)
        payload = {"format": CACHE_FORMAT, "key": key, "memo": merged}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:  # the memo is an optimization, never fatal
            tmp.unlink(missing_ok=True)

    def _replay(self, config: RunConfig) -> float:
        from repro.util.rng import make_jitter_rng

        log, model = self.profile(config)
        return replay_log(
            log,
            nthreads=config.nthreads,
            policy=config.policy(),
            model=model,
            jitter=config.jitter,
            jitter_rng=make_jitter_rng(config.seed, config.run_index),
        )

    def simulate(self, config: RunConfig) -> float:
        """Elapsed virtual seconds of ``config`` (captures on first use).

        With :attr:`memoize` on (the default), the result is served from
        the schedule-result memo when the identical point was replayed
        before — by this instance, another worker sharing ``cache_dir``,
        or an earlier invocation.
        """
        if not self.memoize:
            self.last_memo = ""
            return self._replay(config)
        key = self.workload_key(config)
        subkey = (config.nthreads, config.schedule, config.jitter, config.run_index)
        memo = self._memo.get(key)
        if memo is None:
            memo = self._load_memo_disk(key) if self.cache_dir is not None else {}
            self._memo[key] = memo
        if subkey in memo:
            self.counters["memo_hits"] += 1
            self.last_memo = "hit"
            return memo[subkey]
        elapsed = self._replay(config)
        memo[subkey] = elapsed
        self.counters["memo_misses"] += 1
        self.last_memo = "miss"
        if self.cache_dir is not None:
            self._store_memo_disk(key, memo)
        return elapsed
