"""Unit tests for the DPMHBP sampler and model."""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core.dpmhbp import DPMHBP, DPMHBPModel, _CRPScan, _GumbelStream
from repro.core.ranking.objective import empirical_auc
from repro.perf.benchmarks import make_dpmhbp_sweeps


def clustered_data(rng, n_per=120, years=11):
    """Two latent cohorts with distinct rates and distinct features."""
    q = np.concatenate([np.full(n_per, 0.02), np.full(n_per, 0.30)])
    failures = (rng.random((2 * n_per, years)) < q[:, None]).astype(np.int8)
    features = np.concatenate(
        [rng.normal(-1.5, 0.4, (n_per, 2)), rng.normal(1.5, 0.4, (n_per, 2))]
    )
    truth = np.concatenate([np.zeros(n_per, int), np.ones(n_per, int)])
    return failures, features, truth


def _posterior_digest(post) -> str:
    """SHA-256 over every array of a :class:`DPMHBPPosterior`, in field order."""
    digest = hashlib.sha256()
    for name in (
        "rho_mean",
        "rho_std",
        "n_clusters_trace",
        "last_assignments",
        "last_q",
        "accept_rate_q",
        "log_lik_trace",
        "accept_trace",
    ):
        arr = np.ascontiguousarray(np.asarray(getattr(post, name)))
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _synthetic(n: int, d: int, seed: int):
    """Skewed per-segment failure rates over 11 years, and Gaussian features."""
    rng = np.random.default_rng(seed)
    p = rng.choice([0.001, 0.01, 0.05, 0.3], size=n, p=[0.6, 0.2, 0.15, 0.05])
    failures = (rng.random((n, 11)) < p[:, None]).astype(np.int8)
    return failures, rng.standard_normal((n, d))


class TestSampler:
    def test_discovers_two_cohorts(self, rng):
        failures, features, truth = clustered_data(rng)
        post = DPMHBP(n_sweeps=40, burn_in=15, seed=1, feature_weight=1.0).fit(
            failures, features
        )
        # Posterior mean rho separates cohorts sharply.
        lo = post.rho_mean[truth == 0].mean()
        hi = post.rho_mean[truth == 1].mean()
        assert hi > 5 * lo

    def test_assignments_respect_features(self, rng):
        failures, features, truth = clustered_data(rng)
        post = DPMHBP(n_sweeps=40, burn_in=15, seed=2, feature_weight=1.0).fit(
            failures, features
        )
        z = post.last_assignments
        # The dominant cluster of each cohort must differ.
        top0 = np.bincount(z[truth == 0]).argmax()
        top1 = np.bincount(z[truth == 1]).argmax()
        assert top0 != top1

    def test_cluster_count_unbounded_but_finite(self, rng):
        failures, features, _ = clustered_data(rng, n_per=60)
        post = DPMHBP(n_sweeps=25, burn_in=10, seed=3, alpha=8.0).fit(failures, features)
        assert 1 <= post.n_clusters_trace[-1] <= 120

    def test_history_only_mode(self, rng):
        failures, _, truth = clustered_data(rng)
        post = DPMHBP(n_sweeps=25, burn_in=10, seed=4, feature_weight=0.0).fit(failures)
        hi = post.rho_mean[truth == 1].mean()
        lo = post.rho_mean[truth == 0].mean()
        assert hi > 3 * lo  # rates alone separate these cohorts

    def test_init_labels_seed_partition(self, rng):
        failures, features, truth = clustered_data(rng, n_per=50)
        post = DPMHBP(n_sweeps=10, burn_in=3, seed=5).fit(
            failures, features, init_labels=truth
        )
        assert post.rho_mean.shape == (100,)

    def test_init_labels_with_gaps_compacted(self, rng):
        """Non-contiguous init labels must be relabelled, not patched by
        mutating a random segment's assignment (the old empty-cluster
        hazard): every cluster in the final state has at least one member."""
        failures, features, truth = clustered_data(rng, n_per=40)
        gappy = np.where(truth == 0, 0, 5)  # labels {0, 5}, clusters 1-4 empty
        post = DPMHBP(n_sweeps=8, burn_in=2, seed=11).fit(
            failures, features, init_labels=gappy
        )
        assert np.array_equal(
            np.unique(post.last_assignments), np.arange(post.last_q.size)
        )

    def test_no_empty_clusters_after_fit(self, rng):
        failures, features, _ = clustered_data(rng, n_per=50)
        for seed in (0, 1, 2, 3):
            post = DPMHBP(n_sweeps=12, burn_in=4, seed=seed).fit(failures, features)
            assert np.array_equal(
                np.unique(post.last_assignments), np.arange(post.last_q.size)
            )

    def test_init_labels_validation(self, rng):
        failures, features, _ = clustered_data(rng, n_per=20)
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=1).fit(failures, features, init_labels=np.zeros(3))

    def test_rho_bounded(self, rng):
        failures, features, _ = clustered_data(rng, n_per=40)
        post = DPMHBP(n_sweeps=20, burn_in=5, seed=6).fit(failures, features)
        assert np.all((post.rho_mean >= 0) & (post.rho_mean <= 1))

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=10).fit(np.zeros((4, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=1).fit(np.zeros(4, dtype=np.int8))
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=1).fit(
                np.zeros((4, 3), dtype=np.int8), np.zeros((5, 2))
            )

    def test_deterministic_given_seed(self, rng):
        failures, features, _ = clustered_data(rng, n_per=30)
        a = DPMHBP(n_sweeps=10, burn_in=3, seed=7).fit(failures, features)
        b = DPMHBP(n_sweeps=10, burn_in=3, seed=7).fit(failures, features)
        assert np.allclose(a.rho_mean, b.rho_mean)
        assert np.array_equal(a.last_assignments, b.last_assignments)


class TestBlockScan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"alpha": 200.0, "feature_weight": 0.0},
            {"alpha": 30.0, "n_aux": 1},
            {"n_aux": 5, "feature_weight": 0.5},
        ],
    )
    @pytest.mark.parametrize("init", ["random", "singletons"])
    def test_matches_one_visit_scan(self, monkeypatch, kwargs, init):
        """Every visit through the one-visit path gives the same chain."""
        failures, features = _synthetic(300, 3, seed=31)
        labels = np.arange(300) if init == "singletons" else None
        sampler = DPMHBP(n_sweeps=5, burn_in=1, seed=4, **kwargs)
        blocked = sampler.fit(failures, features, init_labels=labels)
        monkeypatch.setattr(_CRPScan, "_block", lambda self, rows, left: 0)
        one_visit = sampler.fit(failures, features, init_labels=labels)
        assert _posterior_digest(blocked) == _posterior_digest(one_visit)


class TestGumbelStream:
    def test_reads_ahead_and_rewinds_to_last_value_used(self):
        ref = np.random.default_rng(3)
        expected = ref.gumbel(size=160)
        expected_next = ref.random()

        rng = np.random.default_rng(3)
        stream = _GumbelStream(rng)
        stream.peek(100, 150)  # reads 150 ahead
        first = stream.take(100).copy()
        stream.peek(120, 120)  # 50 left: reads a second chunk
        second = stream.take(60).copy()
        stream.finish()  # 160 used of 220 read
        assert np.array_equal(np.concatenate([first, second]), expected)
        assert rng.random() == expected_next


class TestScanTelemetry:
    @pytest.fixture(autouse=True)
    def _recorder(self, monkeypatch):
        monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
        yield telemetry.configure(enabled=True)
        telemetry.disable()

    def test_counts_rounds_and_fallbacks(self, _recorder):
        failures, features = _synthetic(400, 4, seed=24)
        post = DPMHBP(n_sweeps=4, burn_in=1, seed=8).fit(
            failures, features, init_labels=np.arange(400)
        )
        counters = _recorder.snapshot()["counters"]
        # Every sweep takes at least one round; every cluster that died
        # in the first sweep was a visit through the one-visit path.
        assert counters["dpmhbp.scan.rounds"] >= 4
        assert counters["dpmhbp.scan.fallbacks"] >= 400 - post.n_clusters_trace[0]


class TestDPMHBPModel:
    def test_fit_predict_shapes(self, small_model_data):
        model = DPMHBPModel(n_sweeps=15, burn_in=5, seed=0)
        scores = model.fit_predict(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)
        assert np.all(scores >= 0)

    def test_beats_chance(self, small_model_data):
        model = DPMHBPModel(n_sweeps=25, burn_in=8, seed=0)
        scores = model.fit_predict(small_model_data)
        assert empirical_auc(scores, small_model_data.pipe_fail_test) > 0.55

    def test_segment_risk_exposed(self, small_model_data):
        model = DPMHBPModel(n_sweeps=15, burn_in=5, seed=0).fit(small_model_data)
        rho = model.predict_segment_risk()
        assert rho.shape == (small_model_data.n_segments,)

    def test_longer_pipes_riskier_all_else_equal(self, small_model_data):
        """The series-system composition: more segments ⇒ higher π."""
        md = small_model_data
        model = DPMHBPModel(n_sweeps=15, burn_in=5, seed=0, covariates=False).fit(md)
        rho = model.predict_segment_risk()
        pipe_p = md.survival_pipe_probability(rho)
        counts = np.bincount(md.seg_pipe_idx, minlength=md.n_pipes)
        # Across the population, segment count and composed risk correlate.
        corr = np.corrcoef(counts, pipe_p)[0, 1]
        assert corr > 0.2

    def test_predict_before_fit(self, small_model_data):
        with pytest.raises(RuntimeError):
            DPMHBPModel().predict_pipe_risk(small_model_data)
        with pytest.raises(RuntimeError):
            DPMHBPModel().predict_segment_risk()


def _golden_default(md):
    """Default hyperparameters, material × decade init — the model's own fit."""
    materials = np.asarray(md.pipe_material)[md.seg_pipe_idx]
    decades = (md.seg_laid_year // 10).astype(int)
    _, init = np.unique(
        np.char.add(materials.astype(str), decades.astype(str)), return_inverse=True
    )
    sampler = DPMHBP(n_sweeps=6, burn_in=2, seed=3)
    return sampler.fit(md.seg_fail_train, md.clustering_features(), init_labels=init)


def _golden_perf_sweeps(md):
    """The ``repro.perf`` ``dpmhbp_sweeps`` workload: births, deaths, buffer growth."""
    return make_dpmhbp_sweeps()()


def _golden_event_heavy(md):
    """History-only and a huge concentration: most visits are births/deaths."""
    failures, _ = _synthetic(500, 1, seed=21)
    return DPMHBP(alpha=200.0, feature_weight=0.0, n_sweeps=6, burn_in=2, seed=5).fit(
        failures
    )


def _golden_many_aux(md):
    """Five auxiliary clusters per move from a 40-label seed partition."""
    failures, features = _synthetic(800, 6, seed=22)
    init = np.random.default_rng(23).integers(0, 40, size=800)
    return DPMHBP(n_aux=5, n_sweeps=6, burn_in=2, seed=6).fit(
        failures, features, init_labels=init
    )


def _golden_singletons(md):
    """One label per segment: the first sweep is dominated by deaths."""
    failures, features = _synthetic(400, 4, seed=24)
    return DPMHBP(n_sweeps=5, burn_in=1, seed=8).fit(
        failures, features, init_labels=np.arange(400)
    )


#: Digests of the posteriors the per-segment Algorithm 8 scan produced for
#: each config. The sampler's output depends on nothing but the seed, so
#: any change here means the chain itself moved: a scan rewrite that is
#: meant to be exact must leave every digest untouched. The digests pin
#: the numpy ``Generator`` streams and the platform's libm rounding.
GOLDEN_POSTERIORS = {
    "default_material_decade": (
        _golden_default,
        "400a9ca7b25f6c8be4e81804ffd1f2b730b2f17f85fdc69bc84ab4fa4b3f6790",
    ),
    "perf_dpmhbp_sweeps": (
        _golden_perf_sweeps,
        "75559cdad4c94d95fa8c2f9821ae6afd701c0a528f8d6f4376b81dd47483d5e5",
    ),
    "alpha200_history_only": (
        _golden_event_heavy,
        "66c092b899207a9d190fe7179196567026a58d3d7a75bcb6f68d8dfb54dbb9ab",
    ),
    "n_aux5_init40": (
        _golden_many_aux,
        "fd779e07845d58ae07a4ea5ee960a0583df73926bda149f7257003b7c231d613",
    ),
    "one_label_per_segment": (
        _golden_singletons,
        "10c5e56c21c4320b96bb42ddccd64bb7fe65e515941a44bd531af2b268053aa2",
    ),
}


class TestGoldenPosterior:
    @pytest.mark.parametrize("config", sorted(GOLDEN_POSTERIORS))
    def test_posterior_digest(self, config, small_model_data):
        run, expected = GOLDEN_POSTERIORS[config]
        assert _posterior_digest(run(small_model_data)) == expected
