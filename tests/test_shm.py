"""Lifetime tests for the shared-memory data plane and persistent pools.

The contract under test: every segment this process publishes is gone —
from the owner registry *and* from ``/dev/shm`` — after the normal
release path, after a worker raises mid-map, after a worker is killed
hard enough to break the pool, and after the shared region cache is
cleared. A leaked segment survives process exit on Linux, so these are
the tests that keep long CI runs from filling the shm tmpfs.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBPModel
from repro.parallel import (
    ExecutorConfig,
    active_segments,
    cached_model_data,
    clear_model_data_cache,
    export_shared_region_cache,
    parallel_map,
    pool_stats,
    publish_bundle,
    publish_model_data,
    release,
    resolve_bundle,
    resolve_model_data,
    retain,
)
from repro.parallel.shm import SEGMENT_PREFIX

PROCS = ExecutorConfig(mode="processes", jobs=2)
SERIAL = ExecutorConfig()


@pytest.fixture(autouse=True)
def _clean_shared_state():
    """Start each test with no cached regions or exported segments.

    Pool creation snapshots the region cache into shared memory
    (``export_shared_region_cache``), so leftovers from earlier test
    modules would otherwise make the leak assertions here ambiguous.
    """
    clear_model_data_cache()
    yield


def _dev_shm_entries() -> list[str]:
    """Segments owned by *this* process still visible in the shm filesystem."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        pytest.skip("/dev/shm not available")
    mine = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(mine))


def _arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "failures": (rng.random((50, 11)) < 0.1).astype(np.int8),
        "features": rng.standard_normal((50, 4)),
        "empty": np.zeros((0, 3)),
    }


def _sum_field(task):
    """Module-level pool worker: resolve the bundle, reduce one field."""
    handle, i = task
    arrays = resolve_bundle(handle)
    return float(arrays["features"][i % arrays["features"].shape[0]].sum())


def _raise_on_odd(task):
    handle, i = task
    if i % 2:
        raise ValueError(f"item {i} is odd")
    return _sum_field(task)


def _kill_self(task):  # pragma: no cover — runs (and dies) in a worker
    os.kill(os.getpid(), signal.SIGKILL)


class TestBundleLifetime:
    def test_publish_resolve_release_roundtrip(self):
        arrays = _arrays()
        handle = publish_bundle(arrays, config=PROCS)
        assert not handle.is_local
        assert handle.segment in active_segments()
        assert _dev_shm_entries() == [handle.segment]
        views = resolve_bundle(handle)
        for name, src in arrays.items():
            assert np.array_equal(views[name], src)
            assert views[name].dtype == src.dtype
            assert not views[name].flags.writeable
        release(handle)
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_shared_views_reject_mutation(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        try:
            views = resolve_bundle(handle)
            with pytest.raises(ValueError, match="read-only"):
                views["features"][0, 0] = 99.0
        finally:
            release(handle)

    def test_serial_config_degrades_to_references(self):
        arrays = _arrays()
        handle = publish_bundle(arrays, config=SERIAL)
        assert handle.is_local
        assert _dev_shm_entries() == []
        views = resolve_bundle(handle)
        for name in arrays:
            assert views[name] is arrays[name]  # by reference, zero copies
        release(handle)
        with pytest.raises(KeyError):
            resolve_bundle(handle)

    def test_payload_rides_the_handle(self):
        handle = publish_bundle(
            _arrays(), payload={"region": "A", "years": (1996, 2006)}, config=PROCS
        )
        try:
            assert handle.payload == {"region": "A", "years": (1996, 2006)}
        finally:
            release(handle)

    def test_refcount_survives_one_release(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        retain(handle)
        release(handle)
        assert handle.segment in active_segments()  # still one reference
        release(handle)
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_release_is_idempotent(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        release(handle)
        release(handle)  # second release of a gone segment must not raise
        assert _dev_shm_entries() == []


class TestModelDataPlane:
    def test_model_data_roundtrip(self):
        clear_model_data_cache()
        data = cached_model_data("A", scale=0.05, seed=9)
        handle = publish_model_data(data, config=PROCS)
        try:
            rebuilt = resolve_model_data(handle)
            assert rebuilt.region == data.region
            assert rebuilt.pipe_ids == data.pipe_ids
            assert np.array_equal(rebuilt.X_pipe, data.X_pipe)
            assert np.array_equal(rebuilt.seg_fail_train, data.seg_fail_train)
            assert not rebuilt.X_pipe.flags.writeable
        finally:
            release(handle)
        assert _dev_shm_entries() == []

    def test_clear_cache_releases_exported_segments(self):
        clear_model_data_cache()
        cached_model_data("A", scale=0.05, seed=9)
        exported = export_shared_region_cache()
        assert len(exported) == 1
        assert not exported[0][1].is_local
        assert active_segments() != []
        clear_model_data_cache()
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_export_is_memoised(self):
        clear_model_data_cache()
        cached_model_data("A", scale=0.05, seed=9)
        first = export_shared_region_cache()
        second = export_shared_region_cache()
        assert [h.segment for _, h in first] == [h.segment for _, h in second]
        clear_model_data_cache()


class TestFanOutLifetime:
    def test_map_then_release_leaves_nothing(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        try:
            results = parallel_map(
                _sum_field, [(handle, i) for i in range(6)], PROCS, chunksize=1
            )
        finally:
            release(handle)
        assert len(results) == 6
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_worker_exception_still_releases(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        with pytest.raises(ValueError, match="odd"):
            try:
                parallel_map(
                    _raise_on_odd, [(handle, i) for i in range(4)], PROCS, chunksize=1
                )
            finally:
                release(handle)
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_killed_worker_breaks_pool_but_leaks_nothing(self):
        from concurrent.futures.process import BrokenProcessPool

        handle = publish_bundle(_arrays(), config=PROCS)
        before = pool_stats()
        # Two items: a single-item map short-circuits to the in-process
        # serial path, which would kill the test process itself.
        with pytest.raises(BrokenProcessPool):
            try:
                parallel_map(
                    _kill_self, [(handle, 0), (handle, 1)], PROCS, chunksize=1
                )
            finally:
                release(handle)
        assert pool_stats()["evicted"] == before["evicted"] + 1
        # The broken pool was retired: the next map gets a fresh one and works.
        fresh = publish_bundle(_arrays(), config=PROCS)
        try:
            results = parallel_map(
                _sum_field, [(fresh, i) for i in range(3)], PROCS, chunksize=1
            )
        finally:
            release(fresh)
        assert len(results) == 3
        assert active_segments() == []
        assert _dev_shm_entries() == []


#: The pool forks after this process's resource tracker started (the first
#: publish starts it), and the second bundle is published after the pool
#: exists, so its workers attach that segment by name.
_ATTACH_AFTER_POOL = textwrap.dedent(
    """
    import numpy as np
    from repro.parallel import ExecutorConfig, parallel_map, publish_bundle, release
    from repro.perf.benchmarks import _scaling_worker

    config = ExecutorConfig(mode="processes", jobs=2)
    for _ in range(2):
        handle = publish_bundle({"x": np.ones((4, 8))}, config=config)
        try:
            tasks = [(handle, i) for i in range(4)]
            parallel_map(_scaling_worker, tasks, config, chunksize=1)
        finally:
            release(handle)
    """
)


class TestResourceTracker:
    def test_worker_attach_keeps_publisher_registration(self):
        """Pool workers share the publisher's resource tracker; an attach
        must not unregister the publisher's entry, or the publisher's
        unlink makes the tracker print a ``KeyError`` traceback."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", _ATTACH_AFTER_POOL],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr, result.stderr


class TestChainFanOut:
    def test_processes_fit_leaves_no_segments(self, small_model_data):
        model = DPMHBPModel(
            n_sweeps=4, burn_in=1, seed=0, n_chains=2, jobs=2, executor="processes"
        )
        model.fit(small_model_data)
        assert active_segments() == []
        assert _dev_shm_entries() == []
