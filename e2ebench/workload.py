"""One workload, once, in its own process: ``python3 e2ebench/workload.py``.

``run.py`` starts this script for every repetition so that each one
starts cold, and reads the CPU time and peak memory of this process and
all its workers from the operating system after it has exited. The
script writes ``result.json`` (and, traced, ``spans-<pid>.jsonl`` files)
into ``--out``.

Everything runs through ``repro``'s public API. With ``--trace 1`` the
wrappers of :mod:`tracer` are installed first; ``repro.telemetry`` stays
disabled either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import resource
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fold  # noqa: E402
import tracer  # noqa: E402
from repro.eval import experiment  # noqa: E402
from repro.parallel import shutdown_worker_pools  # noqa: E402

REFERENCES = HERE / "references.json"
REGIONS = ("A", "B", "C")
#: grid_small: the executor is passed as arguments, never via REPRO_* variables.
GRID = dict(
    regions=REGIONS, n_repeats=2, scale=0.05, fast=True, on_error="retry",
    executor="processes", jobs=2,
)
LARGE_SCALE = 0.25
AUC_TOL = 1e-9


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with ties counted half: an independent recomputation."""
    labels = np.asarray(labels) > 0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def digest(data) -> str:
    """SHA-256 over every field of a ``ModelData`` except private caches."""
    h = hashlib.sha256()
    for f in fields(data):
        if f.name.startswith("_"):
            continue
        value = getattr(data, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def data_ok(data) -> bool:
    """Structural invariants every built region must satisfy."""
    n_pipes, n_seg = data.n_pipes, data.n_segments
    binary = (data.seg_fail_train, data.pipe_fail_train, data.pipe_fail_test, data.seg_fail_test)
    return bool(
        n_pipes > 0
        and n_seg >= n_pipes
        and data.X_pipe.shape[0] == n_pipes
        and data.X_seg.shape[0] == n_seg
        and np.isfinite(data.X_pipe).all()
        and np.isfinite(data.X_seg).all()
        and data.seg_pipe_idx.min() >= 0
        and data.seg_pipe_idx.max() < n_pipes
        and all(np.isin(a, (0, 1)).all() for a in binary)
    )


def fit_ok(ev, labels, reference: float | None) -> bool:
    """One model fit: finite scores whose AUC recomputes (and matches the reference)."""
    scores = np.asarray(ev.scores, dtype=float)
    ok = scores.shape == labels.shape and bool(np.isfinite(scores).all())
    ok = ok and math.isclose(rank_auc(scores, labels), ev.auc, abs_tol=AUC_TOL)
    if reference is not None:
        ok = ok and math.isclose(ev.auc, reference, abs_tol=AUC_TOL)
    return ok


def cell_runs(result, regions) -> dict:
    """``cell_id -> RegionRun`` for the cells of a ``ComparisonResult`` that finished."""
    failed = {o.spec.cell_id for o in result.failures}
    cells = {}
    for region in regions:
        runs = iter(result.runs.get(region, ()))
        for repeat in range(GRID["n_repeats"]):
            cell = f"{region}-r{repeat:03d}"
            if cell not in failed:
                cells[cell] = next(runs)
    return cells


def same_run(a, b) -> bool:
    """Bit-identical AUCs and scores for every model of two cell results."""
    return list(a.evaluations) == list(b.evaluations) and all(
        a.evaluations[m].auc == b.evaluations[m].auc
        and np.array_equal(a.evaluations[m].scores, b.evaluations[m].scores)
        for m in a.evaluations
    )


# --------------------------------------------------------------- workloads
def run_grid_small(seed: int, out: Path):
    run_dir = out / "grid"
    first = experiment.run_comparison(**GRID, base_seed=seed, run_dir=run_dir)
    second = experiment.run_comparison(**GRID, base_seed=seed, resume=run_dir)
    return first, second


def run_compare_large(seed: int, out: Path):
    data = experiment.prepare_region_data("A", scale=LARGE_SCALE, seed=seed)
    models = experiment.default_models(seed=0, fast=True)
    return data, experiment.evaluate_models(data, models, region="A")


def run_region_build(seed: int, out: Path):
    return {r: experiment.prepare_region_data(r, scale=LARGE_SCALE, seed=seed) for r in REGIONS}


WORKLOADS = {
    "grid_small": run_grid_small,
    "compare_large": run_compare_large,
    "region_build": run_region_build,
}


# ------------------------------------------------------------------ checks
def check_grid_small(output, seed: int, refs: dict, out: Path) -> dict:
    """Units: 6 cells, 36 model fits, 6 resumed cells.

    Repeat-0 cells use their region's canonical seed whatever the base
    seed is, so their reference AUCs are checked on every seed.
    """
    first, second = output
    cells = cell_runs(first, REGIONS)
    resumed = cell_runs(second, REGIONS)
    n_cells = len(REGIONS) * GRID["n_repeats"]
    models = len(experiment.default_models(fast=True))
    failed_fits = models * (n_cells - len(cells))
    aucs, observed = [], {}
    for cell, run in cells.items():
        ref_cell = refs.get(cell, {}) if cell.endswith("r000") or seed == refs.get("seed") else {}
        observed[cell] = {m: ev.auc for m, ev in run.evaluations.items()}
        for name, ev in run.evaluations.items():
            failed_fits += not fit_ok(ev, run.labels, ref_cell.get(name))
            aucs.append(ev.auc)
    failed_resume = sum(
        cell not in resumed or not same_run(run, resumed[cell]) for cell, run in cells.items()
    ) + (n_cells - len(cells))
    events = [json.loads(line) for line in (out / "grid" / "events.jsonl").read_text().splitlines()]
    busy, grid_wall = fold.grid_busy(events)
    return {
        "attempted": n_cells + n_cells * models + n_cells,
        "failed": len(first.failures) + failed_fits + failed_resume,
        "aucs": aucs,
        "observed": observed,
        "retries": sum(e["event"] == "cell_retried" for e in events),
        "busy": [busy, [[grid_wall, GRID["jobs"]]]],
    }


def check_compare_large(output, seed: int, refs: dict, out: Path) -> dict:
    """Units: the region build and the 6 model fits."""
    data, run = output
    ref = refs.get("A", {}) if seed == refs.get("seed") else {}
    failed = not data_ok(data)
    failed += sum(not fit_ok(ev, run.labels, ref.get(m)) for m, ev in run.evaluations.items())
    return {
        "attempted": 1 + len(run.evaluations),
        "failed": failed,
        "aucs": [ev.auc for ev in run.evaluations.values()],
        "observed": {"A": {m: ev.auc for m, ev in run.evaluations.items()}},
    }


def check_region_build(output, seed: int, refs: dict, out: Path) -> dict:
    """Units: the 3 region builds."""
    observed = {r: digest(d) for r, d in output.items()}
    ref = refs if seed == refs.get("seed") else {}
    failed = sum(
        not data_ok(d) or observed[r] != ref.get(r, observed[r]) for r, d in output.items()
    )
    aucs = [history_auc(d) for d in output.values()]
    return {"attempted": len(output), "failed": failed, "aucs": aucs, "observed": observed}


def history_auc(data) -> float:
    """Model-free AUC of the built data: pipes ranked by their failures in the
    first half of the observed years (training years plus the test year),
    scored against any failure in the second half.

    It moves only when the generated data does. Pooling six label years
    keeps it steadier across seeds than the test year alone, which holds
    only ~10-15 failures per region.
    """
    years = np.column_stack([data.pipe_fail_train, data.pipe_fail_test])
    half = years.shape[1] // 2
    return rank_auc(years[:, :half].sum(axis=1), years[:, half:].any(axis=1))


CHECKS = {
    "grid_small": check_grid_small,
    "compare_large": check_compare_large,
    "region_build": check_region_build,
}


def reap_workers() -> None:
    """Stop the persistent pools and wait for every worker, so the OS folds
    their CPU time and peak memory into this process's children usage."""
    shutdown_worker_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refs_all = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    refs = dict(refs_all.get(args.workload, {}), seed=refs_all.get("seed"))
    root = contextlib.nullcontext()
    if args.trace:
        recorder = tracer.Tracer(args.out)
        tracer.install(recorder)
        root = recorder.span(fold.ROOT)
    cpu_before = cpu_self()
    start = time.perf_counter()
    with root:
        output = WORKLOADS[args.workload](args.seed, args.out)
    wall = time.perf_counter() - start
    result = CHECKS[args.workload](output, args.seed, refs, args.out)
    reap_workers()
    result.update(wall_s=wall, cpu_before_s=cpu_before, pid=os.getpid())
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
