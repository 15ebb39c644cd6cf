"""One BLAS thread per model fit, through the OpenBLAS that numpy and scipy load.

OpenBLAS defaults to one thread per CPU, and some fits (the Weibull and
Cox Newton steps among them) give different last bits on different
thread counts. :func:`single_blas_thread` pins every located OpenBLAS to
one thread for the duration of a fit, so scores do not depend on the
host's core count, and pool workers do not oversubscribe the CPUs.

The runtimes are reached with ``ctypes`` through an extension module that
links them (symbol lookup on a loaded library searches its dependencies),
so no extra dependency is needed. numpy's wheels export
``scipy_openblas_*64_``, scipy's the same names without ``64_``; older
builds drop the ``scipy_`` prefix. Where none is found (MKL or Accelerate
builds, or a platform whose loader hides dependencies) the context is a
no-op. Locating and pinning never raise.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: Extension modules that link numpy's and scipy's BLAS.
_HOSTS = ("numpy.linalg._umath_linalg", "scipy.linalg._fblas")
_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


@dataclass(frozen=True)
class OpenBLAS:
    """One loaded OpenBLAS runtime and its thread-count entry points."""

    host: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _locate(host: str) -> OpenBLAS | None:
    try:
        lib = ctypes.CDLL(importlib.import_module(host).__file__)
        for pattern in _SYMBOLS:
            names = [pattern.format(f) for f in ("get_num_threads", "set_num_threads", "get_config")]
            if all(hasattr(lib, name) for name in names):
                get, put, config = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                return OpenBLAS(host, config().decode(errors="replace").strip(), get, put)
    except (ImportError, AttributeError, OSError):  # no such module or shared object
        pass
    return None


@functools.cache
def openblas_libraries() -> tuple[OpenBLAS, ...]:
    """Every distinct OpenBLAS runtime numpy and scipy have loaded."""
    found: dict[int | None, OpenBLAS] = {}
    for lib in filter(None, map(_locate, _HOSTS)):
        found.setdefault(ctypes.cast(lib.get_num_threads, ctypes.c_void_p).value, lib)
    return tuple(found.values())


# Module state because the thread count it guards is process-global.
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every located OpenBLAS on one thread.

    The thread count is process-global, so entries are refcounted: the
    first saves each library's count and sets it to 1, the last exit
    restores the saved counts — overlapping fits in threads stay pinned
    until the last one leaves.
    """
    global _depth, _saved
    libs = openblas_libraries()
    with _lock:
        if _depth == 0:
            _saved = [lib.get_num_threads() for lib in libs]
            for lib in libs:
                lib.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, count in zip(libs, _saved):
                    lib.set_num_threads(count)
