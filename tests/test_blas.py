"""One BLAS thread per fit: the pinning helper and the scores it protects."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.survival_models import CoxPHModel, WeibullModel
from repro.parallel import blas

LIBS = blas.openblas_libraries()
needs_openblas = pytest.mark.skipif(not LIBS, reason="no OpenBLAS runtime located")


def _counts() -> list[int]:
    return [lib.get_num_threads() for lib in LIBS]


def _force(count: int) -> None:
    for lib in LIBS:
        lib.set_num_threads(count)


@pytest.fixture()
def two_threads():
    """Every located library on 2 threads for the test, restored after."""
    before = _counts()
    _force(2)
    try:
        yield
    finally:
        for lib, count in zip(LIBS, before):
            lib.set_num_threads(count)


@needs_openblas
class TestSingleBlasThread:
    def test_pins_every_library(self, two_threads):
        with blas.single_blas_thread():
            assert _counts() == [1] * len(LIBS)
        assert _counts() == [2] * len(LIBS)

    def test_restores_when_body_raises(self, two_threads):
        with pytest.raises(RuntimeError):
            with blas.single_blas_thread():
                raise RuntimeError("fit failed")
        assert _counts() == [2] * len(LIBS)

    def test_nesting(self, two_threads):
        with blas.single_blas_thread():
            with blas.single_blas_thread():
                assert _counts() == [1] * len(LIBS)
            assert _counts() == [1] * len(LIBS)
        assert _counts() == [2] * len(LIBS)

    def test_overlapping_threads_keep_the_pin(self, two_threads):
        first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
        seen: dict[str, list[int]] = {}

        def first():
            with blas.single_blas_thread():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with blas.single_blas_thread():
                second_in.set()
                first_out.wait(10)
                seen["after_first_left"] = _counts()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen["after_first_left"] == [1] * len(LIBS)
        assert _counts() == [2] * len(LIBS)

    def test_refcount_under_contention(self, two_threads):
        """Many threads entering and leaving at once: no lost update."""
        unpinned_inside = []

        def churn():
            for _ in range(200):
                with blas.single_blas_thread():
                    if _counts() != [1] * len(LIBS):
                        unpinned_inside.append(_counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert unpinned_inside == []
        assert _counts() == [2] * len(LIBS)
        assert blas._depth == 0


def test_noop_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "openblas_libraries", lambda: ())
    before = _counts()
    with blas.single_blas_thread():
        assert _counts() == before
    assert _counts() == before


@needs_openblas
def test_scores_independent_of_blas_thread_count(small_model_data):
    """Weibull and Cox gave different bits on 1 and 2 BLAS threads unpinned."""
    before = _counts()
    try:
        runs = []
        for count in (2, 1):
            _force(count)
            runs.append(
                [
                    model.fit_predict(small_model_data).tobytes()
                    for model in (WeibullModel(), CoxPHModel())
                ]
            )
    finally:
        for lib, count in zip(LIBS, before):
            lib.set_num_threads(count)
    assert runs[0] == runs[1]
