"""Unit tests for RankSVM, plus the bit-identity pins of its block scan."""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core.ranking.model import AUCRankingModel, SVMRankingModel, build_snapshots
from repro.core.ranking.objective import empirical_auc
from repro.core.ranking.ranksvm import RankSVM


def linear_ranking_data(rng, n=500, d=4, noise=0.3):
    X = rng.standard_normal((n, d))
    w = np.array([1.5, -1.0, 0.5, 0.0])[:d]
    score = X @ w + noise * rng.standard_normal(n)
    labels = (score > np.quantile(score, 0.8)).astype(float)
    return X, labels, w


def reference_fit(X, y, lam=1e-3, n_pairs=50_000, epochs=3, seed=0):
    """The one-step-at-a-time Pegasos loop: ``RankSVM.fit`` must match it bit for bit."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    pos_idx = np.flatnonzero(y == 1.0)
    neg_idx = np.flatnonzero(y != 1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    t = 0
    for _ in range(epochs):
        p = rng.choice(pos_idx, size=n_pairs)
        n = rng.choice(neg_idx, size=n_pairs)
        for i in range(n_pairs):
            t += 1
            eta = 1.0 / (lam * t)
            diff = X[p[i]] - X[n[i]]
            w *= 1.0 - eta * lam
            if w @ diff < 1.0:
                w += eta * diff
            norm = float(np.linalg.norm(w))
            radius = 1.0 / np.sqrt(lam)
            if norm > radius:
                w *= radius / norm
    return w


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


class TestRankSVM:
    def test_high_auc_on_linear_data(self, rng):
        X, y, _ = linear_ranking_data(rng)
        model = RankSVM(n_pairs=20000, epochs=2, seed=1).fit(X, y)
        assert empirical_auc(model.decision_function(X), y) > 0.9

    def test_recovers_weight_direction(self, rng):
        X, y, w = linear_ranking_data(rng, noise=0.1)
        model = RankSVM(n_pairs=30000, epochs=2, seed=2).fit(X, y)
        cos = model.coef_ @ w / (np.linalg.norm(model.coef_) * np.linalg.norm(w))
        assert cos > 0.9

    def test_pairwise_accuracy_equals_auc(self, rng):
        X, y, _ = linear_ranking_data(rng, n=200)
        model = RankSVM(n_pairs=5000, seed=3).fit(X, y)
        assert model.pairwise_accuracy(X, y) == pytest.approx(
            empirical_auc(model.decision_function(X), y)
        )

    def test_needs_both_classes(self, rng):
        with pytest.raises(ValueError):
            RankSVM().fit(rng.standard_normal((5, 2)), np.zeros(5))

    @pytest.mark.parametrize("lam", [0.0, -1e-3])
    def test_needs_positive_lam(self, rng, lam):
        X, y, _ = linear_ranking_data(rng, n=50)
        with pytest.raises(ValueError, match="lam"):
            RankSVM(lam=lam).fit(X, y)

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            RankSVM().decision_function(np.ones((1, 2)))

    def test_deterministic(self, rng):
        X, y, _ = linear_ranking_data(rng, n=150)
        a = RankSVM(seed=5, n_pairs=2000).fit(X, y).coef_
        b = RankSVM(seed=5, n_pairs=2000).fit(X, y).coef_
        assert np.array_equal(a, b)

    def test_weight_norm_bounded_by_projection(self, rng):
        X, y, _ = linear_ranking_data(rng, n=200)
        model = RankSVM(lam=0.01, n_pairs=5000, seed=6).fit(X, y)
        assert np.linalg.norm(model.coef_) <= 1.0 / np.sqrt(0.01) + 1e-9

    def test_imbalance_robustness(self, rng):
        """With 2% positives, ranking must still beat chance clearly."""
        n = 1000
        X = rng.standard_normal((n, 3))
        score = X @ np.array([1.0, 0.5, -0.5])
        y = (score > np.quantile(score, 0.98)).astype(float)
        model = RankSVM(n_pairs=20000, seed=7).fit(X, y)
        assert empirical_auc(model.decision_function(X), y) > 0.85


@pytest.fixture(scope="module")
def snapshots(small_model_data):
    return build_snapshots(small_model_data)


def _one_positive(X, y):
    y1 = np.zeros_like(y)
    y1[np.flatnonzero(y == 1.0)[0]] = 1.0
    return X, y1


#: name -> (transform of the conftest snapshots, RankSVM arguments, SHA-256 of coef_).
#: Recorded with the one-step-at-a-time loop (``reference_fit``) that the
#: block scan replaced.
GOLDEN_COEF = {
    "default": (
        lambda X, y: (X, y), {},
        "ec02456b5157a259be7b38b94baedfca0609fcd68596535952fc559fae92199b",
    ),
    "warm_start_shape": (
        lambda X, y: (X, y), {"n_pairs": 20_000, "epochs": 2},
        "982c6935b2e22242c845540aeae6f910f0b633a16eee4e4e33b150ae979919b6",
    ),
    "lam_0.01": (
        lambda X, y: (X, y), {"lam": 0.01, "n_pairs": 10_000, "seed": 3},
        "cd975ed980a115debfae3e47d9f93a972f38e41cb3a0eb7a3fb758bc83d918de",
    ),
    "lam_10": (
        lambda X, y: (X, y), {"lam": 10.0, "n_pairs": 10_000, "seed": 4},
        "e299d4460084d0cb9035d26a986004836c4d559fc5bdf09837235619f78474bd",
    ),
    "d_1": (
        lambda X, y: (X[:, 12:13], y), {"n_pairs": 10_000, "seed": 5},
        "09105d6b1a4ddd8ab7268966e981c4ea91103821d2e45164dd6e1994648bdaf7",
    ),
    "scaled_100": (
        lambda X, y: (100.0 * X, y), {"n_pairs": 10_000, "seed": 6},
        "f2a4276f81e831c22df91730587e9297a09509af1c40bf06d6954a03d20c2096",
    ),
    "ragged_chunks": (
        lambda X, y: (X, y), {"n_pairs": 2 * 4096 + 37, "epochs": 2, "seed": 7},
        "506ad0ee352f13e964e032471b3697be0a2e42005c8e7afda075046612fa4b3f",
    ),
    "one_positive": (
        _one_positive, {"n_pairs": 5_000, "seed": 8},
        "f60ee92cdd59e11980b3da0c4e5c957ce2b7da747742eeee73f8cc8b93e363dd",
    ),
}

#: SHA-256 of ``predict_pipe_risk`` on the conftest region after a default fit.
GOLDEN_SCORES = {
    "SVM": "2e00e778095f6e42c00b48fd6b64b8ce55830f56aa1438a83e61b973e30bdb4c",
    "AUC-Rank": "d55e0c1739e13619b6fe141208bbe34100523409221447f8a723379c9e8ab8d7",
}


class TestGoldenCoef:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COEF))
    def test_coef_matches_recorded(self, snapshots, name):
        transform, kwargs, expected = GOLDEN_COEF[name]
        X, y = transform(*snapshots)
        coef = RankSVM(**kwargs).fit(X, y).coef_
        assert digest(coef) == expected, [c.hex() for c in coef]

    @pytest.mark.parametrize("model_cls", [SVMRankingModel, AUCRankingModel])
    def test_model_scores_match_recorded(self, small_model_data, model_cls):
        model = model_cls()
        scores = model.fit(small_model_data).predict_pipe_risk(small_model_data)
        assert digest(scores) == GOLDEN_SCORES[model.name]


def _stress_config(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    d = int(rng.integers(1, 41))
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=d)
    X = rng.standard_normal((n, d)) * scale
    score = (X / scale) @ rng.standard_normal(d) + rng.standard_normal(n)
    y = (score > np.quantile(score, rng.uniform(0.5, 0.98))).astype(float)
    y[np.argmax(score)] = 1.0
    y[np.argmin(score)] = 0.0
    kwargs = {
        "lam": float(10.0 ** rng.uniform(-5.0, 1.0)),
        "n_pairs": int(rng.integers(1, 3001)),
        "epochs": int(rng.integers(1, 4)),
        "seed": seed,
    }
    return X, y, kwargs


class TestBlockScanExactness:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_loop(self, seed):
        X, y, kwargs = _stress_config(seed)
        expected = reference_fit(X, y, **kwargs)
        assert np.array_equal(RankSVM(**kwargs).fit(X, y).coef_, expected), kwargs

    def test_single_pair_epochs(self, rng):
        X, y, _ = linear_ranking_data(rng, n=50)
        for lam in (1e-5, 1e-3, 10.0):
            expected = reference_fit(X, y, lam=lam, n_pairs=1, epochs=3, seed=2)
            got = RankSVM(lam=lam, n_pairs=1, epochs=3, seed=2).fit(X, y).coef_
            assert np.array_equal(got, expected)


    def test_huge_and_non_finite_features(self, rng):
        X, y, _ = linear_ranking_data(rng, n=60)
        for bad in (X * 1e200, np.where(np.arange(X.size).reshape(X.shape) == 7, np.nan, X)):
            with np.errstate(all="ignore"):
                expected = reference_fit(bad, y, n_pairs=300, epochs=1, seed=3)
                got = RankSVM(n_pairs=300, epochs=1, seed=3).fit(bad, y).coef_
            assert np.array_equal(got, expected, equal_nan=True)


class TestScanTelemetry:
    @pytest.fixture(autouse=True)
    def _recorder(self, monkeypatch):
        monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
        yield telemetry.configure(enabled=True)
        telemetry.disable()

    def test_counts_steps_and_exact_steps(self, _recorder, rng):
        X, y, _ = linear_ranking_data(rng, n=200)
        RankSVM(n_pairs=3000, epochs=2, seed=4).fit(X, y)
        RankSVM(n_pairs=1000, epochs=1, seed=5).fit(X, y)
        counters = _recorder.snapshot()["counters"]
        assert counters["ranksvm.steps"] == 7000
        # The first step always runs exactly; most later steps are certified.
        assert 2 <= counters["ranksvm.exact_steps"] < 7000
