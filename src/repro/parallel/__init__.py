"""Parallel execution layer: executors, the region cache, one-thread BLAS.

Everything in the repo that fans independent units of work — MCMC chains
in :class:`~repro.core.dpmhbp.DPMHBPModel`, the (region, repeat) cells of
:func:`~repro.eval.experiment.run_comparison` — goes through the
:func:`parallel_map` abstraction here, so one config (or the
``REPRO_JOBS``/``REPRO_EXECUTOR`` environment variables) switches the
whole pipeline between serial, threaded and multi-process execution.
Each map builds its own context-managed pool; work items and their
arrays travel to process workers by pickle.

Every unit of work derives its own RNG seed, and every model fit runs on
one BLAS thread (:mod:`repro.parallel.blas`), so results are bit-identical
across backends and on any host core count (OpenBLAS builds) —
parallelism changes wall-clock, never numbers.
"""

from .cache import cached_model_data, clear_model_data_cache
from .executor import (
    ExecutorConfig,
    WorkError,
    WorkResult,
    parallel_map,
    resolve_executor,
    safe_parallel_map,
)


def shutdown_worker_pools() -> None:
    """No-op, kept for callers that shut pools down before reading rusage.

    Every pool is context-managed and joined before its map returns, so
    there is never a pool left to stop.
    """


__all__ = [
    "ExecutorConfig",
    "WorkError",
    "WorkResult",
    "cached_model_data",
    "clear_model_data_cache",
    "parallel_map",
    "resolve_executor",
    "safe_parallel_map",
    "shutdown_worker_pools",
]
