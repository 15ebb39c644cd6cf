"""Ranking objectives: the exact AUC criterion and smooth surrogates.

The data-mining formulation treats failure prediction as *ranking*: learn
a real-valued function ``H`` maximising

    Σ_{z ∈ P, z' ∈ N} I(H(z) > H(z'))  /  (|P|·|N|)

(the empirical AUC; Eq. 18.10 of the evaluation protocol), where ``P`` are
failure examples and ``N`` non-failures. The indicator makes the objective
piecewise constant, hence the derivative-free evolutionary optimisers in
:mod:`.evolutionary`; a sigmoid-smoothed surrogate is provided for
gradient methods and for tests.
"""

from __future__ import annotations

import numpy as np


def empirical_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact AUC of ``scores`` against binary ``labels`` (ties count 1/2).

    Computed with the rank-sum (Mann–Whitney) identity in O(n log n)
    rather than the literal O(|P|·|N|) double sum.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels must align")
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = midranks(scores)
    rank_sum = float(ranks[pos].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their block.

    The repo's one rank-sum implementation (every AUC path goes through
    it). Fully vectorized: tie blocks are the runs between change points
    of the sorted array, and each block's mean rank broadcasts back via
    ``np.repeat``.
    """
    x = np.asarray(x)
    n = x.size
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    block_start = np.empty(n, dtype=bool)
    if n:
        block_start[0] = True
        np.not_equal(sorted_x[1:], sorted_x[:-1], out=block_start[1:])
    starts = np.flatnonzero(block_start)
    ends = np.append(starts[1:], n)  # exclusive block ends
    block_rank = 0.5 * (starts + ends - 1) + 1.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(block_rank, ends - starts)
    return ranks


#: Pairwise-delta blocks are streamed at most this many elements at a time,
#: bounding sigmoid_auc's peak allocation to a few MB however large |P|·|N|.
_SIGMOID_AUC_BLOCK = 4_000_000


def sigmoid_auc(scores: np.ndarray, labels: np.ndarray, sharpness: float = 5.0) -> float:
    """Smooth AUC surrogate: indicator replaced by ``σ(sharpness·Δ)``.

    Upper-bounds nothing and lower-bounds nothing in general, but its
    maximiser approaches the exact-AUC maximiser as ``sharpness → ∞``.
    O(|P|·|N|) time, but the pairwise delta matrix is computed in
    memory-bounded chunks of positives, so large inputs never allocate
    the full |P|×|N| array.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    pos = scores[labels == 1.0]
    neg = scores[labels != 1.0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative")
    rows_per_chunk = max(1, _SIGMOID_AUC_BLOCK // neg.size)
    total = 0.0
    for start in range(0, pos.size, rows_per_chunk):
        delta = sharpness * (pos[start : start + rows_per_chunk, None] - neg[None, :])
        total += float(np.sum(1.0 / (1.0 + np.exp(-np.clip(delta, -50, 50)))))
    return total / (pos.size * neg.size)


def top_fraction_hit_rate(scores: np.ndarray, labels: np.ndarray, fraction: float) -> float:
    """Share of all positives captured in the top ``fraction`` of scores.

    The budget-constrained criterion behind the 1%-inspection evaluation.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    n_top = max(1, int(round(fraction * scores.size)))
    top = np.argsort(-scores, kind="mergesort")[:n_top]
    total = labels.sum()
    if total == 0:
        raise ValueError("no positives to detect")
    return float(labels[top].sum() / total)
