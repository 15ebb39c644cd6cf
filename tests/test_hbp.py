"""Unit tests for the hierarchical beta process model."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from repro.bayes.distributions import beta_binomial_logmarginal
from repro.core.grouping import GROUPINGS
from repro.core.hbp import (
    FailureDataError,
    HBPBestModel,
    HBPModel,
    beta_binomial_column,
    count_histogram,
    fit_hbp,
    update_group_rates,
)
from repro.core.ranking.objective import empirical_auc


def two_group_data(rng, n_per=150, years=11, q_low=0.02, q_high=0.25):
    groups = np.concatenate([np.zeros(n_per, int), np.ones(n_per, int)])
    p = np.where(groups == 0, q_low, q_high)
    failures = (rng.random((2 * n_per, years)) < p[:, None]).astype(np.int8)
    return failures, groups


class TestFitHBP:
    def test_recovers_group_rates(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, n_sweeps=300, burn_in=100, seed=1)
        assert post.q_mean[0] == pytest.approx(0.02, abs=0.015)
        assert post.q_mean[1] == pytest.approx(0.25, abs=0.05)

    def test_pi_shrinks_toward_group_rate(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, c_group=30.0, n_sweeps=200, burn_in=80)
        # Zero-failure units in the high-rate group still get elevated risk.
        zero_high = (failures.sum(1) == 0) & (groups == 1)
        zero_low = (failures.sum(1) == 0) & (groups == 0)
        if zero_high.any() and zero_low.any():
            assert post.pi_mean[zero_high].mean() > post.pi_mean[zero_low].mean()

    def test_failure_history_raises_pi(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, n_sweeps=150, burn_in=50)
        many = failures.sum(1) >= 3
        none = failures.sum(1) == 0
        assert post.pi_mean[many].mean() > post.pi_mean[none].mean()

    def test_acceptance_rate_reasonable(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, n_sweeps=300, burn_in=100)
        assert 0.1 < post.accept_rate < 0.9

    def test_trace_shape(self, rng):
        failures, groups = two_group_data(rng, n_per=40)
        post = fit_hbp(failures, groups, n_sweeps=100, burn_in=40)
        assert post.q_trace.shape == (60, 2)

    def test_validation(self, rng):
        failures, groups = two_group_data(rng, n_per=10)
        with pytest.raises(ValueError):
            fit_hbp(failures[:5], groups, n_sweeps=10, burn_in=2)
        with pytest.raises(ValueError):
            fit_hbp(failures, groups, n_sweeps=10, burn_in=20)
        with pytest.raises(ValueError):
            fit_hbp(failures.ravel(), groups, n_sweeps=10, burn_in=2)

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_rejects_non_binary_failures(self, rng, value):
        failures, groups = two_group_data(rng, n_per=10)
        failures = failures.astype(float)
        failures[3, 0] = value
        with pytest.raises(FailureDataError, match="only 0 and 1"):
            fit_hbp(failures, groups, n_sweeps=10, burn_in=2)

    def test_rejects_row_summing_past_years(self, rng):
        failures, groups = two_group_data(rng, n_per=10, years=4)
        failures[0] = 2  # sums to 8 over 4 years
        with pytest.raises(FailureDataError):
            fit_hbp(failures, groups, n_sweeps=10, burn_in=2)

    def test_rejects_negative_group_label(self, rng):
        failures, groups = two_group_data(rng, n_per=10)
        groups[5] = -1
        with pytest.raises(FailureDataError, match="non-negative"):
            fit_hbp(failures, groups, n_sweeps=10, burn_in=2)


class TestGroupRateBlock:
    def test_count_histogram_bins_counts_by_label(self):
        s = np.array([0, 2, 2, 1, 0])
        labels = np.array([1, 0, 0, 2, 1])
        hist = count_histogram(labels, s, 4)
        assert hist.tolist() == [[0, 0, 2, 0], [2, 0, 0, 0], [0, 1, 0, 0]]

    def test_collapsed_likelihood_equals_sum_over_members(self):
        """hist @ column equals the Beta–Binomial log marginal summed over members."""
        s = np.array([0, 0, 1, 3, 0, 2])
        hist = count_histogram(np.zeros(6, int), s, 6)
        column = beta_binomial_column(0.07, 15.0, 5.0)
        direct = np.sum(beta_binomial_logmarginal(s, 5.0, 15.0 * 0.07, 15.0 * 0.93))
        assert float(hist[0] @ column) == pytest.approx(direct, rel=1e-12)

    def test_returns_rates_and_mask_without_mutating(self):
        q = np.array([0.1, 0.3])
        hist = count_histogram(np.array([0, 1, 1]), np.array([0, 2, 1]), 4)
        new_q, accepted = update_group_rates(
            q, hist, [0.5, 0.5], np.random.default_rng(0), 0.02, 4.0, 30.0
        )
        assert q.tolist() == [0.1, 0.3]
        assert new_q.shape == (2,) and accepted.dtype == bool
        assert np.all((new_q > 0) & (new_q < 1))
        # A rejected step hands back the current rate (up to the logit round-trip).
        assert np.allclose(new_q[~accepted], q[~accepted], rtol=1e-12)

    def test_geweke_joint_distribution(self):
        """Geweke (2004) "getting it right" test of the shared q_k block.

        Alternate drawing data from the model given q (π ~ Beta(c·q,
        c(1−q)) and s ~ Binomial(m, π) for each of five units) with one
        block step on q at a frozen scale. Both steps leave the joint
        p(q, s) invariant, so the thinned q draws must follow the prior
        Beta(c0·q0, c0(1−q0)); a wrong Jacobian or a missing prior term
        in the target moves them away from it.
        """
        q0, c0, c, m, n_units = 0.2, 10.0, 15.0, 5, 5
        rng = np.random.default_rng(2024)
        labels = np.zeros(n_units, dtype=np.int64)
        q = np.array([q0])
        draws = []
        for step in range(20_000):
            pi = rng.beta(c * q[0], c * (1.0 - q[0]), size=n_units)
            s = rng.binomial(m, pi)
            q, _ = update_group_rates(
                q, count_histogram(labels, s, m + 1), [1.0], rng, q0, c0, c
            )
            if step % 10 == 9:
                draws.append(q[0])
        prior = rng.beta(c0 * q0, c0 * (1.0 - q0), size=len(draws))
        assert stats.ks_2samp(draws, prior).pvalue > 0.01


class TestHBPModel:
    @pytest.mark.parametrize("grouping", ["material", "diameter", "laid_year"])
    def test_fit_predict_all_groupings(self, small_model_data, grouping):
        model = HBPModel(grouping=grouping, n_sweeps=80, burn_in=30, seed=0)
        scores = model.fit_predict(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)
        assert np.all(scores >= 0)

    def test_beats_chance(self, small_model_data):
        model = HBPModel(grouping="material", n_sweeps=120, burn_in=40, seed=0)
        scores = model.fit_predict(small_model_data)
        assert empirical_auc(scores, small_model_data.pipe_fail_test) > 0.55

    def test_covariates_flag_changes_scores(self, small_model_data):
        a = HBPModel(n_sweeps=60, burn_in=20, covariates=True, seed=0).fit_predict(
            small_model_data
        )
        b = HBPModel(n_sweeps=60, burn_in=20, covariates=False, seed=0).fit_predict(
            small_model_data
        )
        assert not np.allclose(a, b)

    def test_predict_before_fit(self, small_model_data):
        with pytest.raises(RuntimeError):
            HBPModel().predict_pipe_risk(small_model_data)


class TestHBPBestModel:
    def test_selects_a_grouping(self, small_model_data):
        model = HBPBestModel(n_sweeps=60, burn_in=20, seed=0)
        model.fit(small_model_data)
        assert model.chosen_grouping_ in ("material", "diameter", "laid_year")
        scores = model.predict_pipe_risk(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)

    def test_never_reads_test_labels(self, small_model_data):
        """Selection must be identical when test labels are scrambled."""
        from dataclasses import replace

        md = small_model_data
        scrambled = replace(md, pipe_fail_test=1.0 - md.pipe_fail_test)
        a = HBPBestModel(n_sweeps=40, burn_in=15, seed=0)
        b = HBPBestModel(n_sweeps=40, burn_in=15, seed=0)
        a.fit(md)
        b.fit(scrambled)
        assert a.chosen_grouping_ == b.chosen_grouping_


def _digest(arrays) -> str:
    """SHA-256 over named arrays, with each one's dtype and shape."""
    digest = hashlib.sha256()
    for name, value in arrays:
        arr = np.ascontiguousarray(np.asarray(value))
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


#: Recorded with the per-member ``q_k`` loop that preceded the shared
#: histogram block; ``HBPModel(grouping, n_sweeps=120, burn_in=40, seed=0)``
#: posteriors and the fast line-up's ``HBPBestModel`` scores.
GOLDEN_HBP = {
    "material": "2dabab1b90a7e5277fd88016d4dfb4c729c602043233b27d0bdbdf16b89773ea",
    "diameter": "f60c56524f094d46242b66af7c8ecc86b864c410b25aafe30487e6cbfee6c913",
    "laid_year": "3fc8660d3aff38a7ecd5d48d22c4e6e891102bd04cbc4bddb2784852460ad59f",
    "best": "a5f22253d2b6e9edb1f12617b8956e8946d45063d88cc8f7d5384e168ee4a131",
}


class TestGoldenHBP:
    """HBP fits on the conftest region, pinned bit for bit."""

    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_posterior_digest(self, grouping, small_model_data):
        post = HBPModel(grouping=grouping, n_sweeps=120, burn_in=40, seed=0).fit(
            small_model_data
        ).posterior_
        fields = ("pi_mean", "q_mean", "q_trace", "accept_rate")
        assert _digest((name, getattr(post, name)) for name in fields) == GOLDEN_HBP[grouping]

    def test_best_model_scores_digest(self, small_model_data):
        model = HBPBestModel(c_group=15.0, n_sweeps=120, burn_in=40, seed=0)
        scores = model.fit_predict(small_model_data)
        assert _digest([("scores", scores)]) == GOLDEN_HBP["best"]
