"""Benchmark-regression harness: timed snapshots of the sampler hot paths.

The perf trajectory of this repo is a tracked artifact. ``make
bench-save`` runs the five sampler benchmarks (mirroring
``benchmarks/test_perf_samplers.py``) and writes their per-benchmark
medians to ``BENCH_<rev>.json``; ``make bench-compare`` re-times the same
workloads and fails when any median regresses more than 25% against the
committed snapshot. ``make perfcheck`` is the cheap tier-1 smoke variant.

Every snapshot records the host it ran on (:func:`host_fingerprint`), and
``compare`` warns when the baseline's host differs or is not recorded:
timings from another host are not comparable.

No pytest-benchmark dependency: timing is a plain ``perf_counter`` median
over a few rounds, which is exactly what the regression gate needs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..parallel.blas import openblas_libraries
from .benchmarks import BENCHMARKS

__all__ = [
    "BENCHMARKS",
    "DEFAULT_THRESHOLD",
    "BenchmarkTiming",
    "Regression",
    "time_callable",
    "run_benchmarks",
    "current_rev",
    "host_fingerprint",
    "snapshot_path",
    "save_snapshot",
    "load_snapshot",
    "latest_snapshot",
    "compare_to_baseline",
]

#: Default regression gate: fail when a median slows down by more than this.
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class BenchmarkTiming:
    """Timing of one benchmark: all rounds plus the median the gate uses."""

    name: str
    median_s: float
    times_s: tuple[float, ...]


@dataclass(frozen=True)
class Regression:
    """One benchmark that slowed beyond the threshold vs. the baseline."""

    name: str
    baseline_s: float
    current_s: float

    @property
    def slowdown(self) -> float:
        """Fractional slowdown, e.g. 0.4 for 40% slower than baseline."""
        return self.current_s / self.baseline_s - 1.0


def time_callable(fn: Callable[[], Any], rounds: int = 3) -> list[float]:
    """Wall-clock seconds of ``rounds`` calls of ``fn``, after one untimed call.

    The warm-up call pays the one-off costs (lazy imports, first-touch
    allocations, cold caches) that would otherwise land in round one.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def run_benchmarks(
    names: list[str] | None = None, rounds: int = 3
) -> dict[str, BenchmarkTiming]:
    """Set up and time the named benchmarks (all five by default)."""
    names = list(BENCHMARKS) if names is None else names
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks {unknown}; available: {list(BENCHMARKS)}")
    results: dict[str, BenchmarkTiming] = {}
    for name in names:
        fn = BENCHMARKS[name]()
        times = time_callable(fn, rounds=rounds)
        results[name] = BenchmarkTiming(
            name=name, median_s=_median(times), times_s=tuple(times)
        )
    return results


def current_rev() -> str:
    """Short git revision of the working tree, or ``"worktree"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        return out.stdout.strip() or "worktree"
    except (OSError, subprocess.SubprocessError):
        return "worktree"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """What a timing depends on besides the code: CPU, cores, runtimes, BLAS."""
    import numpy
    import scipy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu": _cpu_model(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [
            {"host": lib.host, "config": lib.config, "threads": lib.get_num_threads()}
            for lib in openblas_libraries()
        ],
    }


def snapshot_path(directory: Path | str = ".", rev: str | None = None) -> Path:
    """``BENCH_<rev>.json`` inside ``directory``."""
    return Path(directory) / f"BENCH_{rev or current_rev()}.json"


def save_snapshot(
    directory: Path | str = ".",
    rev: str | None = None,
    rounds: int = 3,
    names: list[str] | None = None,
) -> Path:
    """Run the benchmarks and write their medians to ``BENCH_<rev>.json``."""
    results = run_benchmarks(names=names, rounds=rounds)
    rev = rev or current_rev()
    payload = {
        "rev": rev,
        "rounds": rounds,
        "host": host_fingerprint(),
        "medians_s": {name: t.median_s for name, t in results.items()},
        "times_s": {name: list(t.times_s) for name, t in results.items()},
    }
    path = snapshot_path(directory, rev)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: Path | str) -> dict:
    """Read a ``BENCH_*.json`` snapshot."""
    payload = json.loads(Path(path).read_text())
    if "medians_s" not in payload:
        raise ValueError(f"{path} is not a benchmark snapshot (no 'medians_s' key)")
    return payload


def latest_snapshot(directory: Path | str = ".") -> Path | None:
    """Most recently modified ``BENCH_*.json`` in ``directory``, if any."""
    candidates = sorted(
        Path(directory).glob("BENCH_*.json"), key=lambda p: p.stat().st_mtime
    )
    return candidates[-1] if candidates else None


def compare_to_baseline(
    baseline: dict,
    current: dict[str, BenchmarkTiming],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Regression]:
    """Benchmarks whose current median exceeds baseline by > ``threshold``.

    Benchmarks present on only one side are ignored (new benchmarks can't
    regress; retired ones can't be re-timed).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    regressions = []
    for name, baseline_s in baseline["medians_s"].items():
        timing = current.get(name)
        if timing is None or baseline_s <= 0:
            continue
        if timing.median_s > baseline_s * (1.0 + threshold):
            regressions.append(
                Regression(name=name, baseline_s=baseline_s, current_s=timing.median_s)
            )
    return regressions
