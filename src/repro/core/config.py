"""Run configuration.

A :class:`RunConfig` captures everything an ``easypap`` invocation
specifies (kernel, variant, size, tile geometry, iterations, thread
count, schedule, monitoring/trace flags...).  It is the single source
of truth shared by the CLI, the experiment driver and the engine, and
it round-trips into the performance-mode CSV rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError
from repro.omp.icv import DEFAULT_NUM_THREADS
from repro.sched.policies import SchedulePolicy, parse_schedule

__all__ = [
    "RunConfig", "BACKENDS", "MPI_BACKENDS", "DOMAINS",
    "DEFAULT_DIM", "DEFAULT_TILE",
]

DEFAULT_DIM = 256
DEFAULT_TILE = 32

#: the execution backends, in documentation order: ``sim`` replays the
#: loop through the virtual-time scheduler, ``threads`` runs a real
#: thread team (wall clock; parallel only for GIL-releasing bodies),
#: ``procs`` runs a persistent shared-memory process pool (wall clock,
#: true parallelism for pure-Python tile bodies).  This single tuple
#: drives both validation and the ``--backend`` CLI choices.
BACKENDS = ("sim", "threads", "procs")

#: the MPI rank substrates: ``procs`` runs each rank as a real process
#: from the persistent forkserver/spawn pool, communicating over
#: shared-memory lanes (GIL-free, wall-clock honest); ``inproc`` runs
#: ranks as threads of one interpreter (deterministic, cheap — the
#: substrate the test suite pins itself to).
MPI_BACKENDS = ("procs", "inproc")

#: the work-domain kinds (see :mod:`repro.core.domains`): ``grid`` is
#: the classic EASYPAP tile grid, ``wavefront`` a blocked-LU task DAG,
#: ``quadtree`` a center-refined adaptive tiling, ``slab3d`` a
#: z-slab decomposition of a 3D volume.  Re-exported here so config
#: validation and the ``--domain`` CLI choices share one tuple.
DOMAINS = ("grid", "wavefront", "quadtree", "slab3d")


@dataclass
class RunConfig:
    """Parameters of one kernel run."""

    kernel: str = "none"
    variant: str = "seq"
    dim: int = DEFAULT_DIM
    tile_w: int = DEFAULT_TILE
    tile_h: int = DEFAULT_TILE
    iterations: int = 1
    nthreads: int = DEFAULT_NUM_THREADS
    schedule: str = "dynamic"
    backend: str = "sim"  # one of BACKENDS: sim / threads / procs
    monitoring: bool = False
    trace: bool = False
    trace_label: str = "cur"
    footprints: bool = False  # record per-task read/write footprints (--check-races)
    display: bool = False
    arg: str | None = None  # kernel-specific parameter (EASYPAP --arg)
    seed: int | None = None
    mpi_np: int = 0  # 0 = no MPI; N = --mpirun "-np N"
    mpi_backend: str = "procs"  # one of MPI_BACKENDS: procs / inproc
    debug: str = ""  # EASYPAP-style debug flag letters (e.g. "M")
    time_scale: float = 1.0  # cost-model scaling (tests use tiny scales)
    jitter: float = 0.0  # relative sigma of simulated system noise
    run_index: int = 0  # repetition number (seeds the jitter stream)
    fastpath: str = "auto"  # "auto": whole-frame perf path when possible; "off": reference
    domain: str = "grid"  # work domain kind, one of DOMAINS
    dim_y: int = 0  # image height; 0 = square (dim x dim)
    dim_z: int = 0  # volume depth (slab3d only); 0 = dim
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    # -- validation -----------------------------------------------------------
    def validate(self) -> None:
        if self.dim <= 0:
            raise ConfigError(f"--size must be positive, got {self.dim}")
        if self.tile_w <= 0 or self.tile_h <= 0:
            raise ConfigError(
                f"tile size must be positive, got {self.tile_w}x{self.tile_h}"
            )
        if self.dim_y < 0:
            raise ConfigError(f"--size-y must be >= 0, got {self.dim_y}")
        if self.dim_z < 0:
            raise ConfigError(f"--depth must be >= 0, got {self.dim_z}")
        if self.domain not in DOMAINS:
            raise ConfigError(
                f"unknown work domain {self.domain!r} "
                f"(valid: {', '.join(DOMAINS)})"
            )
        height = self.dim_y or self.dim
        if self.tile_w > self.dim:
            raise ConfigError(
                f"tile {self.tile_w}x{self.tile_h} larger than image "
                f"({self.dim}x{height})"
            )
        # under slab3d, tile_h is the slab depth (checked against dim_z below)
        if self.domain != "slab3d" and self.tile_h > height:
            raise ConfigError(
                f"tile {self.tile_w}x{self.tile_h} larger than image "
                f"({self.dim}x{height})"
            )
        if self.domain == "wavefront":
            if self.dim_y not in (0, self.dim):
                raise ConfigError(
                    "domain 'wavefront' factorizes a square matrix; "
                    f"--size-y {self.dim_y} != --size {self.dim}"
                )
            if self.tile_w != self.tile_h:
                raise ConfigError(
                    "domain 'wavefront' uses square blocks; got tile "
                    f"{self.tile_w}x{self.tile_h}"
                )
        if self.domain == "slab3d":
            depth = self.dim_z or self.dim
            if self.tile_h > depth:
                raise ConfigError(
                    f"slab depth {self.tile_h} larger than volume depth {depth}"
                )
        elif self.dim_z:
            raise ConfigError(
                f"--depth only applies to domain 'slab3d', not {self.domain!r}"
            )
        if self.iterations < 1:
            raise ConfigError(f"--iterations must be >= 1, got {self.iterations}")
        if self.nthreads < 1:
            raise ConfigError(f"thread count must be >= 1, got {self.nthreads}")
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r} (valid: {', '.join(BACKENDS)})"
            )
        if self.mpi_np < 0:
            raise ConfigError(f"-np must be >= 0, got {self.mpi_np}")
        if self.backend == "procs" and self.mpi_np:
            raise ConfigError("backend 'procs' cannot be combined with --mpirun")
        if self.mpi_backend not in MPI_BACKENDS:
            raise ConfigError(
                f"unknown mpi backend {self.mpi_backend!r} "
                f"(valid: {', '.join(MPI_BACKENDS)})"
            )
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        if self.run_index < 0:
            raise ConfigError(f"run_index must be >= 0, got {self.run_index}")
        if self.fastpath not in ("auto", "off"):
            raise ConfigError(
                f"fastpath must be 'auto' or 'off', got {self.fastpath!r}"
            )
        # raises ScheduleError on bad specs:
        self.policy()

    # -- derived values ----------------------------------------------------------
    def policy(self) -> SchedulePolicy:
        return parse_schedule(self.schedule)

    @property
    def grain(self) -> int:
        """EASYPAP's ``--grain`` alias: square tile side."""
        return self.tile_w

    def with_(self, **kwargs) -> "RunConfig":
        """A modified copy (used heavily by sweeps and tests)."""
        return replace(self, **kwargs)

    # -- CSV round-trip --------------------------------------------------------------
    def csv_row(self) -> dict[str, Any]:
        """The configuration columns of a performance-mode CSV row."""
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "dim": self.dim,
            "tile_w": self.tile_w,
            "tile_h": self.tile_h,
            "iterations": self.iterations,
            "threads": self.nthreads,
            "schedule": self.schedule,
            "backend": self.backend,
            "arg": self.arg or "",
            "np": self.mpi_np,
            "domain": self.domain,
        }

    def label(self) -> str:
        """Human-readable one-liner (trace metadata, logs)."""
        parts = [
            f"kernel={self.kernel}",
            f"variant={self.variant}",
            f"dim={self.dim}",
            f"tile={self.tile_w}x{self.tile_h}",
            f"threads={self.nthreads}",
            f"schedule={self.schedule}",
        ]
        if self.domain != "grid":
            parts.insert(2, f"domain={self.domain}")
        if self.mpi_np:
            parts.append(f"np={self.mpi_np}")
        return " ".join(parts)
