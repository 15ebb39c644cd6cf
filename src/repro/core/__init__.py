"""Core prediction models: ranking (data-mining method), HBP, DPMHBP, baselines."""

from .base import FailureModel, ranking_features
from .dpmhbp import DPMHBP, DPMHBPModel, DPMHBPPosterior
from .grouping import GROUPINGS, fixed_grouping, segment_grouping
from .hbp import FailureDataError, HBPModel, HBPPosterior, fit_hbp
from .ranking import (
    AUCRankingModel,
    DifferentialEvolution,
    EvolutionStrategy,
    RankSVM,
    SVMClassifierModel,
    SVMRankingModel,
    empirical_auc,
    sigmoid_auc,
    top_fraction_hit_rate,
)
from .survival_models import CoxPHModel, TimeRateModel, WeibullModel

__all__ = [
    "FailureModel",
    "ranking_features",
    "DPMHBP",
    "DPMHBPModel",
    "DPMHBPPosterior",
    "GROUPINGS",
    "fixed_grouping",
    "segment_grouping",
    "FailureDataError",
    "HBPModel",
    "HBPPosterior",
    "fit_hbp",
    "AUCRankingModel",
    "DifferentialEvolution",
    "EvolutionStrategy",
    "RankSVM",
    "SVMClassifierModel",
    "SVMRankingModel",
    "empirical_auc",
    "sigmoid_auc",
    "top_fraction_hit_rate",
    "CoxPHModel",
    "TimeRateModel",
    "WeibullModel",
]
