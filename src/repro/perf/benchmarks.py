"""The sampler benchmarks (plus the run-journal overhead probe), as plain callables.

The five sampler workloads mirror ``benchmarks/test_perf_samplers.py``
workload-for-workload — same sizes, same seeds — but need no
pytest-benchmark, so the regression harness (``python -m repro.perf``) can
run them in bare CI and write comparable medians into ``BENCH_<rev>.json``
snapshots. ``run_journal`` times a full checkpoint round-trip so journal
overhead is held inside the same bench-compare budget as the samplers.

Each ``make_*`` factory performs its setup (data generation) once and
returns the zero-argument callable to be timed, keeping setup cost out of
the measurement.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..bayes.crp import sample_partition
from ..core.dpmhbp import DPMHBP
from ..core.hbp import fit_hbp
from ..core.ranking.evolutionary import EvolutionStrategy
from ..core.ranking.objective import empirical_auc

Benchmark = Callable[[], Callable[[], Any]]


def _failure_matrix(n: int = 2000, years: int = 11) -> np.ndarray:
    rng = np.random.default_rng(0)
    p = rng.choice([0.001, 0.01, 0.05], size=n, p=[0.7, 0.2, 0.1])
    return (rng.random((n, years)) < p[:, None]).astype(np.int8)


def make_dpmhbp_sweeps() -> Callable[[], Any]:
    """Five DPMHBP sweeps over 2k segments (includes CRP reseating)."""
    failures = _failure_matrix()
    features = np.random.default_rng(1).standard_normal((failures.shape[0], 20))
    return lambda: DPMHBP(n_sweeps=5, burn_in=1, seed=0).fit(failures, features)


def make_hbp_sweeps() -> Callable[[], Any]:
    """Fifty HBP sweeps over 2k units with 8 groups."""
    failures = _failure_matrix()
    groups = np.arange(failures.shape[0]) % 8
    return lambda: fit_hbp(failures, groups, n_sweeps=50, burn_in=10, seed=0)


def make_crp_partition() -> Callable[[], Any]:
    """Sequential CRP seating of 5k customers."""

    def run() -> np.ndarray:
        return sample_partition(5000, 3.0, np.random.default_rng(0))

    return run


def make_empirical_auc() -> Callable[[], Any]:
    """Exact AUC on 100k scores (rank-sum path)."""
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(100_000)
    labels = (rng.random(100_000) < 0.01).astype(float)
    labels[0] = 1.0
    return lambda: empirical_auc(scores, labels)


def make_es_generation() -> Callable[[], Any]:
    """One ES generation (40 evaluations) on a 30-dim AUC-like objective."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2000, 30))
    y = (rng.random(2000) < 0.05).astype(float)
    y[0] = 1.0

    def run():
        es = EvolutionStrategy(generations=1, population=40, seed=0)
        return es.maximise(lambda w: empirical_auc(X @ w, y), dim=30)

    return run


def make_ranksvm_fit() -> Callable[[], Any]:
    """One ``SVMRankingModel``-shaped RankSVM fit (150k Pegasos steps).

    On the temporal snapshots of region A at scale 0.05 — the fit the
    "SVM" model of every grid cell runs, and the block scan's workload.
    """
    from ..core.ranking.model import build_snapshots
    from ..core.ranking.ranksvm import RankSVM
    from ..data import load_region
    from ..features import build_model_data

    X, y = build_snapshots(build_model_data(load_region("A", scale=0.05, seed=0)))
    return lambda: RankSVM().fit(X, y)


def make_run_journal() -> Callable[[], Any]:
    """Checkpoint round-trip: save + validate + load 6 cells of 20k-pipe scores.

    Bounds the per-cell journal overhead (npz serialisation, SHA-256
    checksum, atomic rename, validated reload) that every journalled grid
    pays on top of the model fits.
    """
    import tempfile

    from ..eval.experiment import ModelEvaluation, RegionRun
    from ..eval.metrics import empirical_auc as exact_auc
    from ..runs import CellSpec, RunJournal

    rng = np.random.default_rng(0)
    n_pipes = 20_000
    labels = (rng.random(n_pipes) < 0.01).astype(float)
    lengths = rng.uniform(10.0, 500.0, n_pipes)
    cells = []
    for repeat in range(6):
        run = RegionRun(region="A", seed=repeat, labels=labels, pipe_lengths=lengths)
        for model in ("DPMHBP", "HBP", "Cox", "SVM", "Weibull", "AUC-Rank"):
            scores = rng.standard_normal(n_pipes)
            run.evaluations[model] = ModelEvaluation(
                model_name=model,
                scores=scores,
                auc=exact_auc(scores, labels),
                auc_budget_permyriad=0.0,
            )
        cells.append((CellSpec(region="A", repeat=repeat, seed=repeat), run))
    tmp = tempfile.mkdtemp(prefix="repro-bench-journal-")
    journal = RunJournal.create(tmp, {"bench": "run_journal"})

    def run_roundtrip() -> int:
        for spec, cell_run in cells:
            journal.save_cell(spec, cell_run)
        loaded = journal.load_completed([spec for spec, _ in cells])
        return len(loaded)

    return run_roundtrip


def _scaling_worker(task: "tuple[Any, int]") -> float:
    """Light reduction over one row of a shared bundle (new data plane).

    Module-level so process pools can pickle it. The handle travels in the
    task tuple — a few hundred bytes — and the arrays are resolved as
    read-only zero-copy views on the worker side.
    """
    from ..parallel import shm

    handle, i = task
    arrays = shm.resolve_bundle(handle)
    x = arrays["x"]
    return float(x[i % x.shape[0]].sum())


def _percall_worker(task: "tuple[np.ndarray, int]") -> float:
    """The pre-PR shape of the same work: the full array pickled per task."""
    x, i = task
    return float(x[i % x.shape[0]].sum())


_SCALING_SHAPE = (8, 75_000)  # ~4.8 MB of float64 — a generated-region-sized payload
_SCALING_MAPS = 6  # successive grids/chain fits in one process
_SCALING_TASKS = 8  # fan-out width per map


def make_parallel_scaling() -> Callable[[], Any]:
    """Six 8-task process-pool maps through the persistent pool + shm plane.

    Models the run_comparison shape: one parent publishing a large frozen
    array bundle once, then repeatedly fanning light per-cell work across
    a process pool. The persistent pool is warmed in setup (exactly what
    a real second map call sees) and each task ships only a handle, so
    the measurement isolates the steady-state dispatch cost the PR
    optimises. Compare against ``parallel_scaling_percall``.
    """
    from ..parallel import ExecutorConfig, parallel_map
    from ..parallel import shm

    config = ExecutorConfig(mode="processes", jobs=2)
    rng = np.random.default_rng(0)
    bundle = shm.publish_bundle(
        {"x": rng.standard_normal(_SCALING_SHAPE)}, config=config
    )
    tasks = [(bundle, i) for i in range(_SCALING_TASKS)]
    parallel_map(_scaling_worker, tasks, config, chunksize=1)  # warm the pool

    def run() -> float:
        total = 0.0
        for _ in range(_SCALING_MAPS):
            total += sum(parallel_map(_scaling_worker, tasks, config, chunksize=1))
        return total

    return run


def make_parallel_scaling_percall() -> Callable[[], Any]:
    """The pre-PR baseline for ``parallel_scaling``: per-call pools, pickled arrays.

    Same workload, same results, but each map spawns (and tears down) a
    fresh ``ProcessPoolExecutor`` and every task pickles the full array —
    exactly what ``parallel_map`` did before the persistent-pool and
    shared-memory data plane landed. The BENCH snapshot ratio between the
    two is the PR's headline win.
    """
    from concurrent.futures import ProcessPoolExecutor

    rng = np.random.default_rng(0)
    x = rng.standard_normal(_SCALING_SHAPE)
    tasks = [(x, i) for i in range(_SCALING_TASKS)]

    def run() -> float:
        total = 0.0
        for _ in range(_SCALING_MAPS):
            with ProcessPoolExecutor(max_workers=2) as pool:
                total += sum(pool.map(_percall_worker, tasks, chunksize=1))
        return total

    return run


def make_shm_roundtrip() -> Callable[[], Any]:
    """Publish + resolve + release one region-sized bundle through shared memory.

    Bounds the fixed cost of the data plane itself (segment creation,
    aligned copy-in, view reconstruction, unlink) so it stays negligible
    next to the pickling it replaces.
    """
    from ..parallel import ExecutorConfig
    from ..parallel import shm

    config = ExecutorConfig(mode="processes", jobs=2)
    rng = np.random.default_rng(0)
    arrays = {
        "failures": (rng.random((20_000, 11)) < 0.01).astype(np.int8),
        "features": rng.standard_normal((20_000, 20)),
        "lengths": rng.uniform(10.0, 500.0, 20_000),
    }

    def run() -> float:
        handle = shm.publish_bundle(arrays, config=config)
        try:
            views = shm.resolve_bundle(handle)
            return float(views["features"][0, 0])
        finally:
            shm.release(handle)

    return run


def make_telemetry_noop() -> Callable[[], Any]:
    """200k disabled span+counter calls — the cost instrumentation leaves behind.

    Telemetry lives permanently inside sweep loops and worker envelopes,
    so the *disabled* path must stay a near-free attribute check. This
    probe times it directly; any accidental work on the no-op path (a
    dict lookup, an allocation per call) shows up here long before it is
    visible inside ``dpmhbp_sweeps``.
    """
    from .. import telemetry

    def run() -> int:
        telemetry.disable()
        noop_span = telemetry.span
        noop_count = telemetry.count
        for _ in range(200_000):
            with noop_span("hot"):
                noop_count("iterations")
        return 0

    return run


def make_health_noop() -> Callable[[], Any]:
    """50k unmonitored Gibbs sweeps — the cost the health hook leaves behind.

    The :class:`~repro.inference.gibbs.GibbsSampler` sweep loop gained a
    per-sweep monitor hook; with ``monitor=None`` (the default) that hook
    must stay one ``None`` check, not a scalars-dict build. This probe
    times a trivial one-block sampler so any accidental work on the
    unmonitored path shows up here, mirroring ``telemetry_noop``.
    """
    from ..inference.gibbs import GibbsSampler

    def run() -> int:
        sampler = GibbsSampler(state={"x": 0.0}, rng=np.random.default_rng(0))
        sampler.add_block("noop", lambda state, rng: {"accept": 1.0})
        sampler.run(50_000)
        return 0

    return run


#: Registry consumed by ``repro.perf.run_benchmarks`` — name → factory.
BENCHMARKS: dict[str, Benchmark] = {
    "dpmhbp_sweeps": make_dpmhbp_sweeps,
    "hbp_sweeps": make_hbp_sweeps,
    "crp_partition": make_crp_partition,
    "empirical_auc": make_empirical_auc,
    "es_generation": make_es_generation,
    "ranksvm_fit": make_ranksvm_fit,
    "run_journal": make_run_journal,
    "parallel_scaling": make_parallel_scaling,
    "parallel_scaling_percall": make_parallel_scaling_percall,
    "shm_roundtrip": make_shm_roundtrip,
    "telemetry_noop": make_telemetry_noop,
    "health_noop": make_health_noop,
}
