"""Common interface for every pipe-failure prediction model.

A model is fitted on a :class:`~repro.features.ModelData` (training years
only — the test column exists on the object but fitting must not read it)
and returns one risk score per pipe for the held-out test year. Scores are
*ranking* scores: the evaluation only ever compares their order, so they
need not be calibrated probabilities (the ranking models deliberately are
not).
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from ..features.builder import ModelData
from ..parallel.blas import single_blas_thread


class FailureModel(abc.ABC):
    """Base class: fit on training years, score pipes for the test year."""

    #: Human-readable name used in result tables.
    name: str = "model"

    @abc.abstractmethod
    def fit(self, data: ModelData) -> "FailureModel":
        """Fit on ``data``'s training years; returns ``self``."""

    @abc.abstractmethod
    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        """Risk score per pipe (aligned with ``data.pipe_ids``) for the test year."""

    def fit_predict(self, data: ModelData) -> np.ndarray:
        """``fit(data).predict_pipe_risk(data)`` on one BLAS thread.

        Pinning BLAS makes the scores independent of the host's core count
        and stops pool workers oversubscribing the CPUs
        (:func:`~repro.parallel.blas.single_blas_thread`).
        """
        with single_blas_thread():
            return self.fit(data).predict_pipe_risk(data)

    def get_params(self) -> dict:
        """Configuration parameters that define this model, as plain data.

        The contract behind the run journal's config fingerprint: two
        models with equal ``(type(m).__name__, m.get_params())`` must
        produce bit-identical scores on the same :class:`ModelData`.
        Fitted state is excluded — by convention that is every attribute
        whose name starts or ends with an underscore (``posterior_``,
        ``_factor``, …). The default implementation covers the dataclass
        models; override only if a model holds configuration elsewhere.
        """
        if dataclasses.is_dataclass(self):
            pairs = (
                (f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
            )
        else:
            pairs = vars(self).items()
        return {
            name: value
            for name, value in pairs
            if not name.startswith("_") and not name.endswith("_")
        }


def ranking_features(
    data: ModelData, score_year: int | None = None, include_history: bool = False
) -> np.ndarray:
    """Feature matrix for discriminative rankers (SVM / AUC-optimised).

    The static Table 18.2 block plus pipe age in ``score_year`` (the laid
    date, expressed as the protocol's time variable). By default this is
    *exactly* the paper's feature set — Table 18.2 lists no failure-history
    features, which is a large part of why the feature-only rankers trail
    the Bayesian models that consume failure histories natively.

    ``include_history=True`` (an extension beyond the protocol) appends two
    leakage-safe history summaries computed from training years strictly
    before ``score_year``: log failure count and a recency-weighted rate.
    """
    score_year = data.test_year if score_year is None else score_year
    ages = data.pipe_ages(score_year)
    columns = [data.X_pipe, _standardise(ages)[:, None]]
    if include_history:
        visible = [j for j, y in enumerate(data.train_years) if y < score_year]
        history = data.pipe_fail_train[:, visible].astype(float)
        if history.shape[1] == 0:
            history = np.zeros((data.n_pipes, 1))
        n_years = history.shape[1]
        recency = np.exp(-(np.arange(n_years)[::-1]) / 4.0)  # newest year weight 1
        recent_rate = history @ recency / recency.sum()
        columns.append(_standardise(np.log1p(history.sum(axis=1)))[:, None])
        columns.append(_standardise(recent_rate)[:, None])
    return np.hstack(columns)


def _standardise(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    std = x.std()
    return (x - x.mean()) / (std if std > 1e-12 else 1.0)
