"""Hierarchical beta process (HBP) failure model with fixed groupings.

The two-level hierarchy of Eq. 18.5: a group-level failure rate
``q_k ~ Beta(c0·q0, c0·(1−q0))``, pipe-level failure probabilities
``π_i ~ Beta(c_k·q_k, c_k·(1−q_k))`` for pipes in group ``k``, and yearly
failure indicators ``x_{i,j} ~ Bernoulli(π_i)``. Failure data is shared
within a group through ``q_k``, which is the mechanism that survives the
extreme sparsity of per-pipe records.

Inference is Metropolis-within-Gibbs:

* ``π_i`` — exact conjugate Beta draw given ``q_k`` and the pipe's counts;
* ``q_k`` — :func:`update_group_rates`, one logit-scale random-walk
  Metropolis step per group against the collapsed Beta–Binomial likelihood
  of its members (the Beta layer over ``π`` is integrated out for this
  block, improving mixing).

Every unit has the same number of years ``m``, so a group's collapsed
likelihood is its (m+1)-bin failure-count histogram (:func:`count_histogram`)
dotted with the Beta–Binomial column over ``s = 0..m``
(:func:`beta_binomial_column`): O(m) per evaluation, whatever the group's
size. DPMHBP (Eq. 18.7) is this hierarchy with the grouping drawn from a
CRP, and runs the same ``q_k`` block on its clusters.

Covariates modulate the posterior risk multiplicatively, Cox-style, via a
Poisson GLM factor (:func:`pipe_covariate_factor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..bayes.distributions import beta_binomial_logmarginal, beta_logpdf
from ..features.builder import ModelData
from ..inference.metropolis import AdaptiveScale, metropolis_probability_step
from ..ml.glm import PoissonRegression
from .base import FailureModel
from .grouping import fixed_grouping


class FailureDataError(ValueError):
    """Failure data or group labels the collapsed likelihood cannot score."""


def failure_counts(failures: np.ndarray) -> np.ndarray:
    """Failures per unit of a 0/1 (units × years) matrix, as int64.

    Raises :class:`FailureDataError` on any entry other than 0 or 1: a
    count past ``m`` has no Beta–Binomial bin, and a 2 would be scored as
    an extra failure.
    """
    failures = np.asarray(failures)
    if failures.ndim != 2:
        raise FailureDataError("failures must be a (units, years) matrix")
    if not ((failures == 0) | (failures == 1)).all():
        raise FailureDataError("failures must hold only 0 and 1")
    return failures.sum(axis=1).astype(np.int64)


def count_histogram(labels: np.ndarray, s: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-group histogram of failure counts, shape ``(K, n_bins)``.

    Row ``k`` counts the units labelled ``k`` with ``0..n_bins−1``
    failures; ``K = max(labels) + 1``. Raises :class:`FailureDataError`
    on a negative label, which would otherwise index from the end.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != s.shape:
        raise FailureDataError("labels must have one entry per unit")
    if labels.min() < 0:
        raise FailureDataError("group labels must be non-negative")
    n_groups = int(labels.max()) + 1
    return (
        np.bincount(labels * n_bins + s, minlength=n_groups * n_bins)
        .reshape(n_groups, n_bins)
        .astype(float)
    )


def beta_binomial_column(q: float, c_group: float, m: float) -> np.ndarray:
    """Beta–Binomial log marginal for ``s = 0..m`` at group rate ``q``."""
    return beta_binomial_logmarginal(np.arange(m + 1.0), m, c_group * q, c_group * (1.0 - q))


def update_group_rates(
    q: np.ndarray,
    hist: np.ndarray,
    step_sizes: Sequence[float],
    rng: np.random.Generator,
    q0: float,
    c0: float,
    c_group: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``q_k`` block: one logit-Metropolis step per group rate.

    Group ``k`` targets its ``Beta(c0·q0, c0·(1−q0))`` prior times the
    collapsed likelihood ``hist[k] @ beta_binomial_column(q_k)``, with
    proposal scale ``step_sizes[k]``. Returns the stepped rates and the
    accept mask; a rejected step's rate is ``expit(logit(q_k))``, which
    can differ from ``q_k`` in the last bit. Nothing is mutated.
    """
    a0 = c0 * q0
    b0 = c0 * (1.0 - q0)
    m = float(hist.shape[1] - 1)
    new_q = np.empty(q.size)
    accepted = np.zeros(q.size, dtype=bool)
    for k in range(q.size):

        def log_target(qk: float, hk=hist[k]) -> float:
            prior = float(beta_logpdf(qk, a0, b0))
            return prior + float(hk @ beta_binomial_column(qk, c_group, m))

        new_q[k], accepted[k] = metropolis_probability_step(
            float(q[k]), log_target, step_sizes[k], rng
        )
    return new_q, accepted


def pipe_covariate_factor(data: ModelData) -> np.ndarray:
    """Multiplicative per-pipe risk factor from the pipe covariates.

    A ridge Poisson GLM of each pipe's training failure count, with the
    training years as exposure; shared by HBP and DPMHBP.
    """
    counts = data.pipe_fail_train.sum(axis=1).astype(float)
    exposure = np.full(data.n_pipes, float(data.pipe_fail_train.shape[1]))
    glm = PoissonRegression(l2=1e-2).fit(data.X_pipe, counts, exposure=exposure)
    return glm.covariate_factor(data.X_pipe)


@dataclass
class HBPPosterior:
    """Posterior summaries of one HBP fit."""

    pi_mean: np.ndarray  # (n_units,) posterior mean failure probability
    q_mean: np.ndarray  # (K,) posterior mean group rates
    q_trace: np.ndarray  # (n_kept, K)
    accept_rate: float


def fit_hbp(
    failures: np.ndarray,
    groups: np.ndarray,
    q0: float = 0.02,
    c0: float = 4.0,
    c_group: float = 30.0,
    n_sweeps: int = 250,
    burn_in: int = 100,
    seed: int = 0,
) -> HBPPosterior:
    """Run the HBP sampler on a 0/1 (units × years) failure matrix.

    ``groups`` assigns each unit (pipe or segment) to one of K groups,
    labelled ``0..K−1``. Returns posterior means of the per-unit failure
    probabilities ``π`` and group rates ``q``. Raises
    :class:`FailureDataError` on non-binary failures or negative labels.
    """
    s = failure_counts(failures)
    n_units, n_years = np.shape(failures)
    if burn_in >= n_sweeps:
        raise ValueError("burn_in must be smaller than n_sweeps")
    hist = count_histogram(groups, s, n_years + 1)
    groups = np.asarray(groups, dtype=np.int64)
    n_groups = hist.shape[0]
    m = float(n_years)

    rng = np.random.default_rng(seed)
    q = np.full(n_groups, q0)
    scales = [AdaptiveScale() for _ in range(n_groups)]

    pi_acc = np.zeros(n_units)
    q_acc = np.zeros(n_groups)
    q_trace: list[np.ndarray] = []
    n_accept = 0
    kept = 0
    for sweep in range(n_sweeps):
        # Block 1: q_k given the fixed grouping's count histograms.
        # Rejected rates are adopted too: the recorded chains include their expit(logit(q)).
        q, accepted = update_group_rates(
            q, hist, [sc.scale for sc in scales], rng, q0, c0, c_group
        )
        for scale, ok in zip(scales, accepted):
            scale.update(ok)
            if sweep == burn_in:
                scale.freeze()
        n_accept += int(accepted.sum())

        # Block 2: π_i exact conjugate draw given q.
        a = c_group * q[groups] + s
        b = c_group * (1.0 - q[groups]) + m - s
        pi = rng.beta(a, b)

        if sweep >= burn_in:
            pi_acc += pi
            q_acc += q
            q_trace.append(q)
            kept += 1

    return HBPPosterior(
        pi_mean=pi_acc / kept,
        q_mean=q_acc / kept,
        q_trace=np.asarray(q_trace),
        accept_rate=n_accept / max(n_sweeps * n_groups, 1),
    )


@dataclass
class HBPModel(FailureModel):
    """HBP failure model at pipe level with a fixed grouping scheme.

    ``grouping`` is "material", "diameter" or "laid_year" — the protocol's
    three expert-suggested fixed groupings ("only the results from the
    best groupings are shown" in the paper's tables; the experiment runner
    selects the best on training data).
    """

    name: str = "HBP"
    grouping: str = "material"
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 30.0
    n_sweeps: int = 250
    burn_in: int = 100
    covariates: bool = True
    seed: int = 0
    posterior_: HBPPosterior | None = field(default=None, repr=False)
    _factor: np.ndarray | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "HBPModel":
        groups = fixed_grouping(data, self.grouping)
        self.posterior_ = fit_hbp(
            data.pipe_fail_train,
            groups,
            q0=self.q0,
            c0=self.c0,
            c_group=self.c_group,
            n_sweeps=self.n_sweeps,
            burn_in=self.burn_in,
            seed=self.seed,
        )
        self._factor = (
            pipe_covariate_factor(data) if self.covariates else np.ones(data.n_pipes)
        )
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self.posterior_ is None or self._factor is None:
            raise RuntimeError("model used before fit()")
        return self.posterior_.pi_mean * self._factor


@dataclass
class HBPBestModel(FailureModel):
    """HBP with the grouping chosen by internal validation.

    The paper's tables report "only the results from the best groupings"
    for HBP; this wrapper selects among material / diameter / laid-year by
    AUC on a validation split (the last training year), then refits on the
    full training window with the winning scheme. Real test labels are
    never consulted.
    """

    name: str = "HBP"
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 15.0
    n_sweeps: int = 250
    burn_in: int = 100
    covariates: bool = True
    seed: int = 0
    chosen_grouping_: str | None = None
    _fitted: HBPModel | None = field(default=None, repr=False)

    def _make(self, grouping: str) -> HBPModel:
        return HBPModel(
            grouping=grouping,
            q0=self.q0,
            c0=self.c0,
            c_group=self.c_group,
            n_sweeps=self.n_sweeps,
            burn_in=self.burn_in,
            covariates=self.covariates,
            seed=self.seed,
        )

    def fit(self, data: ModelData) -> "HBPBestModel":
        from .grouping import GROUPINGS
        from .ranking.objective import empirical_auc

        validation = data.validation_split()
        best_auc, best_scheme = -np.inf, GROUPINGS[0]
        if validation.pipe_fail_test.sum() > 0:
            for scheme in GROUPINGS:
                scores = self._make(scheme).fit_predict(validation)
                auc = empirical_auc(scores, validation.pipe_fail_test)
                if auc > best_auc:
                    best_auc, best_scheme = auc, scheme
        self.chosen_grouping_ = best_scheme
        self._fitted = self._make(best_scheme).fit(data)
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._fitted is None:
            raise RuntimeError("model used before fit()")
        return self._fitted.predict_pipe_risk(data)
