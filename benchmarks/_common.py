"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark prints the rows/series of the paper artifact it
regenerates and also writes them to ``benchmarks/out/<name>.txt`` so the
results survive pytest's output capture; EXPERIMENTS.md records the
paper-claim vs measured comparison based on these outputs.
"""

from __future__ import annotations

from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"


def report(name: str, text: str) -> Path:
    """Print a benchmark report and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====")
    print(text)
    return path


def gate_skip_reason(measured: dict, needs_cpus: int = 2) -> str | None:
    """Hardware guard shared by the perf-gate benchmarks.

    Returns ``None`` when the absolute gate should be enforced on this
    measurement, else a human-readable reason it cannot be: the payload
    was recorded on a host with fewer than ``needs_cpus`` CPUs (its
    ``cpu_count`` field).  Callers apply this to the measured payload
    (skip the absolute gate) *and* to the committed baseline (skip the
    regression-ratio comparison — a baseline that could not exhibit the
    gated behaviour must never gate a host that can).
    """
    cpus = int(measured.get("cpu_count", 1))
    if cpus < needs_cpus:
        return f"host has {cpus} CPU(s); the gate needs >= {needs_cpus}"
    return None


def fmt_table(headers: list[str], rows: list[list]) -> str:
    """Minimal fixed-width table formatter."""
    cols = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)]
    def line(cells):
        return " | ".join(f"{str(c):>{w}}" for c, w in zip(cells, cols))
    sep = "-+-".join("-" * w for w in cols)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])
