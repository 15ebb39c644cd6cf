"""Parallel execution layer: executors, persistent pools, shm data plane, caches.

Everything in the repo that fans independent units of work — MCMC chains
in :class:`~repro.core.dpmhbp.DPMHBPModel`, the (region, repeat) cells of
:func:`~repro.eval.experiment.run_comparison` — goes through the
:func:`parallel_map` abstraction here, so one config (or the
``REPRO_JOBS``/``REPRO_EXECUTOR`` environment variables) switches the
whole pipeline between serial, threaded and multi-process execution.

The processes backend is backed by two subsystems: persistent worker
pools (:mod:`repro.parallel.pool` — one pool per config, reused across
maps instead of respawned per call) and a zero-copy shared-memory data
plane (:mod:`repro.parallel.shm` — frozen array bundles published once,
workers reconstruct read-only views instead of unpickling copies).

Every unit of work derives its own RNG seed, and every model fit runs on
one BLAS thread (:mod:`repro.parallel.blas`), so results are bit-identical
across backends and on any host core count (OpenBLAS builds) —
parallelism changes wall-clock, never numbers.
"""

from .cache import (
    cached_model_data,
    clear_model_data_cache,
    export_shared_region_cache,
    install_shared_handles,
)
from .executor import (
    ExecutorConfig,
    WorkError,
    WorkResult,
    parallel_map,
    resolve_executor,
    safe_parallel_map,
)
from .pool import (
    compute_chunksize,
    pool_stats,
    pools_enabled,
    shutdown_worker_pools,
)
from .shm import (
    BundleHandle,
    active_segments,
    publish_bundle,
    publish_model_data,
    release,
    resolve_bundle,
    resolve_model_data,
    retain,
    unlink_all,
)

__all__ = [
    "BundleHandle",
    "ExecutorConfig",
    "WorkError",
    "WorkResult",
    "active_segments",
    "cached_model_data",
    "clear_model_data_cache",
    "compute_chunksize",
    "export_shared_region_cache",
    "install_shared_handles",
    "parallel_map",
    "pool_stats",
    "pools_enabled",
    "publish_bundle",
    "publish_model_data",
    "release",
    "resolve_bundle",
    "resolve_model_data",
    "resolve_executor",
    "retain",
    "safe_parallel_map",
    "shutdown_worker_pools",
    "unlink_all",
]
