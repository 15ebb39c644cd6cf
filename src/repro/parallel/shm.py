"""Zero-copy shared-memory data plane for the process executor.

The process backend used to pay a full pickle round-trip of every array
bundle per task: ``DPMHBPModel`` shipped the same (failures, features,
init) arrays to every chain, and each pool worker rebuilt region data the
parent already had. This module publishes frozen array bundles into
``multiprocessing.shared_memory`` segments once, and ships only a small
picklable :class:`BundleHandle` (segment name + per-field dtype/shape/
offset) — workers reconstruct **read-only zero-copy views** over the
same physical pages.

Design rules
------------
* **Ownership is publisher-only.** Only the process that called
  :func:`publish_bundle` may unlink a segment. Workers attach and build
  views, never unlink — so a crashed worker cannot leak a segment; at
  worst the publisher's atexit guard (:func:`unlink_all`) reclaims it.
* **Refcounted lifetime.** ``publish`` starts a segment at refcount 1;
  :func:`retain`/:func:`release` adjust it; the drop to zero closes and
  unlinks. ``release`` in a non-owner process is a no-op, so handles can
  be released unconditionally in ``finally`` blocks on any backend.
* **Unlink-after-map is safe.** POSIX keeps the mapping alive for every
  process that already attached, so the publisher can release right after
  ``parallel_map`` returns even though workers may still hold views.
* **Serial/threads degrade to direct references.** Publishing under a
  non-process config returns a *local* handle whose ``resolve`` hands
  back the original arrays — zero copies, zero syscalls, bit-identical
  semantics on every backend.

Fork-safety: the registries record the owning pid. A forked pool worker
inherits the parent's ``_owned`` dict and may *read* through it (the
mapping survives the fork), but release/atexit in the child never unlink
segments the child does not own.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from .. import telemetry

#: Prefix of every segment this module creates (``/dev/shm/<prefix>…`` on
#: Linux); the lifetime tests grep for it to prove nothing leaks.
SEGMENT_PREFIX = "repro_shm"

#: Worker-side attach cache bound (segments, not bytes). Evicted entries
#: are closed best-effort; live views keep their pages mapped regardless.
_MAX_ATTACHED = 16

#: Byte alignment of each array inside a segment (cache-line friendly).
_ALIGN = 64


@dataclass(frozen=True)
class ShmField:
    """Where one array lives inside a segment: dtype + shape + byte offset."""

    name: str
    dtype: str  # numpy dtype.str, e.g. "<f8"
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class BundleHandle:
    """Small picklable ticket for a published array bundle.

    ``segment is None`` marks a *local* handle (serial/threads): the
    arrays never left this process and :func:`resolve_bundle` returns
    them by reference. Otherwise the handle fully describes the shared
    segment and :func:`resolve_bundle` reconstructs read-only views.
    ``payload`` carries the bundle's small non-array fields verbatim
    (they ride the pickle — lists of ids, year tuples, metadata).
    """

    token: int
    segment: str | None = None
    fields: tuple[ShmField, ...] = ()
    nbytes: int = 0
    payload: Any = None
    owner_pid: int = 0

    @property
    def is_local(self) -> bool:
        return self.segment is None


class _OwnedSegment:
    """A segment this process created: the shm object plus its refcount."""

    __slots__ = ("shm", "refcount", "owner_pid")

    def __init__(self, shm_obj: shared_memory.SharedMemory):
        self.shm = shm_obj
        self.refcount = 1
        self.owner_pid = os.getpid()


_lock = threading.Lock()
_token_counter = itertools.count(1)
_owned: dict[str, _OwnedSegment] = {}
_local_bundles: dict[int, dict[str, np.ndarray]] = {}
_attached: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
_atexit_installed = False


def _close_quietly(shm_obj: shared_memory.SharedMemory) -> None:
    """Close a segment even while numpy views still pin its buffer.

    ``SharedMemory.close`` raises ``BufferError`` when exported views are
    alive. The pages are reclaimed by the kernel once the last attached
    process exits anyway (the name is already unlinked by then), so on
    ``BufferError`` we neutralise the object instead: drop its ``_buf``/
    ``_mmap`` references so ``__del__`` cannot raise at interpreter
    shutdown, and let process exit release the mapping.
    """
    try:
        shm_obj.close()
    except BufferError:
        shm_obj._buf = None  # noqa: SLF001 — deliberate neutralisation
        shm_obj._mmap = None  # noqa: SLF001
    except OSError:
        pass


def _tracker_running() -> bool:
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None  # noqa: SLF001


def _after_fork_in_child() -> None:
    global _shared_tracker
    _shared_tracker = _tracker_running()


#: Whether this process reports to its parent's resource tracker: a child
#: forked while the parent's tracker ran, or any spawned child (spawn hands
#: the tracker down).
_shared_tracker = multiprocessing.parent_process() is not None and _tracker_running()
os.register_at_fork(after_in_child=_after_fork_in_child)


def _untrack(shm_obj: shared_memory.SharedMemory) -> None:
    """Detach an *attached* segment from this process's resource tracker.

    On CPython < 3.13 every attaching process registers the segment with
    ``resource_tracker``, which then warns about (and may unlink) it at
    worker exit even though the publisher still owns it. Ownership is
    publisher-only here, so attachers must unregister — unless they share
    the publisher's tracker, where the attach only re-registered the
    publisher's own entry. Unregistering that would make the publisher's
    unlink raise ``KeyError`` inside the tracker.
    """
    if _shared_tracker:
        return
    try:  # pragma: no cover — depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm_obj._name, "shared_memory")  # noqa: SLF001
    except Exception:  # noqa: BLE001 — tracker APIs are private; best-effort
        pass


def _install_atexit() -> None:
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(unlink_all)
        _atexit_installed = True


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def publish_bundle(
    arrays: dict[str, np.ndarray],
    payload: Any = None,
    config: Any = None,
) -> BundleHandle:
    """Publish an array bundle; returns the picklable handle.

    ``config`` (an :class:`~repro.parallel.executor.ExecutorConfig` or
    ``None``) decides the plane: only a multi-worker ``processes`` config
    goes through shared memory — everything else returns a local handle
    that resolves to the original arrays by reference.
    """
    token = next(_token_counter)
    use_shm = (
        config is not None
        and getattr(config, "mode", "serial") == "processes"
        and getattr(config, "jobs", 1) > 1
    )
    if not use_shm:
        with _lock:
            _local_bundles[token] = dict(arrays)
        return BundleHandle(token=token, payload=payload, owner_pid=os.getpid())

    specs: list[ShmField] = []
    offset = 0
    contiguous: dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        arr = np.ascontiguousarray(value)
        contiguous[name] = arr
        offset = _aligned(offset)
        specs.append(
            ShmField(name=name, dtype=arr.dtype.str, shape=arr.shape, offset=offset)
        )
        offset += arr.nbytes
    total = max(offset, 1)

    segment_name = f"{SEGMENT_PREFIX}_{os.getpid()}_{token}"
    with telemetry.span("shm.publish", segment=segment_name, nbytes=total):
        shm_obj = shared_memory.SharedMemory(
            name=segment_name, create=True, size=total
        )
        for spec, name in zip(specs, arrays):
            src = contiguous[name]
            if src.nbytes:
                view = np.frombuffer(
                    shm_obj.buf, dtype=src.dtype, count=src.size, offset=spec.offset
                )
                view[:] = src.reshape(-1)
                del view  # release the buffer export before any close()
    with _lock:
        _owned[segment_name] = _OwnedSegment(shm_obj)
        _install_atexit()
    telemetry.count("shm.published")
    telemetry.count("shm.published_bytes", total)
    return BundleHandle(
        token=token,
        segment=segment_name,
        fields=tuple(specs),
        nbytes=total,
        payload=payload,
        owner_pid=os.getpid(),
    )


def _views_from(shm_obj: shared_memory.SharedMemory, handle: BundleHandle) -> dict:
    out: dict[str, np.ndarray] = {}
    for spec in handle.fields:
        dtype = np.dtype(spec.dtype)
        count = int(np.prod(spec.shape, dtype=np.int64)) if spec.shape else 1
        view = np.frombuffer(
            shm_obj.buf, dtype=dtype, count=count, offset=spec.offset
        ).reshape(spec.shape)
        view.setflags(write=False)
        out[spec.name] = view
    return out


def resolve_bundle(handle: BundleHandle) -> dict[str, np.ndarray]:
    """The bundle's arrays: by reference locally, zero-copy views otherwise.

    Shared-segment views are always marked read-only — the bundle is one
    physical copy shared by every worker, so a write would corrupt all of
    them at once (the same contract, and the same enforcement, as the
    region cache).
    """
    if handle.is_local:
        with _lock:
            bundle = _local_bundles.get(handle.token)
        if bundle is None:
            raise KeyError(
                f"local bundle {handle.token} is not present in this process "
                "(published in another process, or already released)"
            )
        return dict(bundle)

    with _lock:
        owned = _owned.get(handle.segment)
        if owned is not None:
            # Publisher (or a forked child that inherited the mapping):
            # build views straight over the owned segment.
            return _views_from(owned.shm, handle)
        shm_obj = _attached.get(handle.segment)
        if shm_obj is not None:
            _attached.move_to_end(handle.segment)
            telemetry.count("shm.attach_hit")
            return _views_from(shm_obj, handle)
    with telemetry.span("shm.attach", segment=handle.segment):
        shm_obj = shared_memory.SharedMemory(name=handle.segment, create=False)
        _untrack(shm_obj)
    telemetry.count("shm.attached")
    with _lock:
        _attached[handle.segment] = shm_obj
        while len(_attached) > _MAX_ATTACHED:
            _, evicted = _attached.popitem(last=False)
            _close_quietly(evicted)
    return _views_from(shm_obj, handle)


def retain(handle: BundleHandle) -> None:
    """Bump the refcount of a published segment (owner process only)."""
    if handle.is_local:
        return
    with _lock:
        owned = _owned.get(handle.segment)
        if owned is not None and owned.owner_pid == os.getpid():
            owned.refcount += 1


def release(handle: BundleHandle) -> None:
    """Drop one reference; the owner unlinks the segment at refcount zero.

    Safe to call from any process on any backend (``finally``-friendly):
    local handles drop their registry entry, non-owner processes no-op.
    """
    if handle.is_local:
        with _lock:
            _local_bundles.pop(handle.token, None)
        return
    with _lock:
        owned = _owned.get(handle.segment)
        if owned is None or owned.owner_pid != os.getpid():
            return
        owned.refcount -= 1
        if owned.refcount > 0:
            return
        del _owned[handle.segment]
    _close_quietly(owned.shm)
    try:
        owned.shm.unlink()
    except FileNotFoundError:  # pragma: no cover — already gone
        pass
    telemetry.count("shm.unlinked")


def active_segments() -> list[str]:
    """Names of segments this process currently owns (tests; diagnostics)."""
    pid = os.getpid()
    with _lock:
        return sorted(
            name for name, seg in _owned.items() if seg.owner_pid == pid
        )


def unlink_all() -> None:
    """Unlink every segment this process owns — the atexit crash guard.

    Idempotent; also usable by tests and long-running servers on
    reconfigure. Segments owned by other processes (fork inheritance) are
    left alone.
    """
    pid = os.getpid()
    with _lock:
        mine = {
            name: seg for name, seg in _owned.items() if seg.owner_pid == pid
        }
        for name in mine:
            del _owned[name]
    for seg in mine.values():
        _close_quietly(seg.shm)
        try:
            seg.shm.unlink()
        except FileNotFoundError:
            pass


# --------------------------------------------------------------- ModelData
#: ``ModelData`` fields that never cross the data plane (per-process cache).
_MODEL_DATA_SKIP = ("_scaler_cache",)


def publish_model_data(data: Any, config: Any = None) -> BundleHandle:
    """Publish a :class:`~repro.features.builder.ModelData` as one bundle.

    Array fields go into the segment; everything else (ids, years, names)
    rides the handle's payload. Pass the executor config to keep the
    serial/threads degenerate path allocation-free.
    """
    arrays: dict[str, np.ndarray] = {}
    payload: dict[str, Any] = {}
    for f in fields(data):
        if f.name in _MODEL_DATA_SKIP:
            continue
        value = getattr(data, f.name)
        if isinstance(value, np.ndarray):
            arrays[f.name] = value
        else:
            payload[f.name] = value
    return publish_bundle(arrays, payload=payload, config=config)


def resolve_model_data(handle: BundleHandle) -> Any:
    """Reconstruct the :class:`ModelData` a handle describes (views read-only)."""
    from ..features.builder import ModelData

    arrays = resolve_bundle(handle)
    return ModelData(**handle.payload, **arrays)
