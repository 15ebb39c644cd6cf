"""RankSVM: pairwise hinge-loss ranking with a linear kernel.

The convex instantiation of the ranking objective: for every
(positive z, negative z') pair, penalise ``max(0, 1 − wᵀ(z − z'))``. This
is exactly an SVM on pair-difference vectors, trained here with Pegasos-
style stochastic subgradient steps over sampled pairs (the full pair set
is |P|·|N| and never materialised).

This is the "SVM-based ranking approach ... with a linear kernel" the
evaluation protocol compares.

The block scan
--------------
Step ``t`` of Pegasos, on the difference ``δ`` of the ``t``-th sampled
pair, with ``η = 1/(λt)``, shrink ``s = 1 − ηλ`` and radius ``r = 1/√λ``::

    w *= s
    if w @ δ < 1:           # active: the pair violates the margin
        w += η·δ
    if ‖w‖ > r:
        w *= r / ‖w‖        # project back onto the ball

Run one step at a time this is ~10 small numpy calls per step, and it
has to stay bit for bit what it is: AUC-Rank warm-starts its evolution
strategy from this ``w`` and optimises a piecewise-constant objective,
which turns a 1e-14 change in ``w`` into a different ranking
(``docs/performance.md`` §8). :func:`_pegasos` therefore *proves* which
steps are active, block by block, and replays only the arithmetic the
one-step loop performs:

* the differences, ``η``, ``s`` and ``η·δ`` of a chunk of pairs are built
  at once. Elementwise, they are the same IEEE operations as the scalar
  ones, so they are the same numbers;
* from the exact ``w`` before a block, with ``C_j`` the product of the
  block's shrinks through step ``j`` (they telescope:
  ``Π (1 − 1/t) = t_base / t_j``) and ``a_k = η_k / C_k``, exact
  arithmetic gives ``w_j = C_j·(w + Σ a_k δ_k)`` over the active steps
  ``k ≤ j``. For a guessed activity pattern one matvec against the
  block's Gram matrix gives every margin ``/ C_j``
  (:func:`_certify_block`). Step ``j`` is proven when that margin is at
  least ``τ·A·‖δ_j‖`` away from ``1 / C_j``, where ``A`` bounds
  ``‖w / C_j‖`` and ``τ = 16(2·B_max + d + 32)·eps`` covers every
  rounding: the one-step loop's shrink/update chain (three per step),
  its dot product, the Gram matrix and matvecs (``d`` and ``B`` terms),
  and the closed form of ``C_j``. The first step whose guess proves
  wrong saw only proven steps, so it is flipped and the rest re-guessed;
  a step too close to call runs exactly;
* an inactive step cannot project: shrinking every component by
  ``s < 1`` cannot raise a rounded norm that was already ``≤ r``. An
  active step is proven not to project from ``A``, or from a bound on
  ``‖w / C_j‖²`` that grows by ``a_k(2/C_k + a_k‖δ_k‖²)`` per active step.
  The step right after a projection, whose norm no step computed,
  always runs exactly;
* the proven steps are replayed on ``w`` in order: each run of shrinks
  as one ``multiply.reduce`` down a column of ``[w; s_i; …; s_k]``
  (the same rounded products, in the same order), each update as
  ``w += η·δ``. In the one-step body, ``w.dot(δ)`` is the same BLAS
  dot as ``w @ δ``, and ``np.linalg.norm(w)`` is ``sqrt(w.dot(w))``, so
  ``math.sqrt(w.dot(w))`` is the same number.

The block size doubles after a fully proven block and halves otherwise,
between 4 and 64. When blocks of 4 keep stopping short, as when most
active steps project, the scan backs off and runs the next 1, 3, 7, …
(at most 64) steps through the one-step body.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ... import telemetry

#: Pairs whose difference rows are built at once (bounds the scan's memory).
_CHUNK = 4096
#: Bounds of the adaptive look-ahead block.
_BLOCK_MIN, _BLOCK_MAX = 4, 64
#: Guess-and-check rounds per block before it commits what it has proven.
_ROUNDS = 4
#: Beyond this scale a product in a certificate could overflow; such steps run exactly.
_HUGE = 1e150


@functools.lru_cache(maxsize=None)
def _strict_lower(b: int) -> np.ndarray:
    return np.tri(b, k=-1)


def _certify_block(
    diffs: np.ndarray,
    w: np.ndarray,
    thr: np.ndarray,
    eta: np.ndarray,
    norms: np.ndarray,
    tau: float,
    radius: float,
) -> tuple[int, np.ndarray, bool | None]:
    """Prove which steps of a block are active, starting from the exact ``w``.

    ``thr`` holds ``1/C_j`` for the block's steps and ``norms`` their
    ``‖δ_j‖``. Returns ``(n, active, stop)``: the first ``n`` steps are
    proven and ``active`` marks those that update ``w``. ``stop`` says how
    step ``n`` must run: None if it need not (the block ended or ran out of
    rounds), False if its margin was too close to call, True if it is
    proven active but its projection is not ruled out.
    """
    b = thr.size
    a = eta * thr  # the coefficient of δ_k in w / C once step k is active
    # A ≥ ‖w / C_j‖ for every step and every activity pattern (triangle inequality).
    w_sq = float(w.dot(w))
    reach = math.sqrt(w_sq) + float(a.dot(norms))
    if not (reach < _HUGE and norms.max() < _HUGE):
        return 0, np.zeros(0, dtype=bool), False  # the bounds assume nothing overflows
    bound = (tau * reach) * norms
    gram = diffs.dot(diffs.T)
    gram *= _strict_lower(b)
    z0 = diffs.dot(w) - thr
    guess = z0 < 0.0
    stop: bool | None = None
    for _ in range(_ROUNDS):
        # margin_j / C_j − 1/C_j if exactly the guessed steps before j are active
        z = z0 + gram.dot(a * guess)
        ok = np.where(guess, -z, z) >= bound
        n = int(ok.argmin())
        if ok[n]:
            n = b
            break
        # Steps before n are proven, so step n's margin is known up to
        # ``bound``: flip the guess if it is proven wrong, else stop there.
        if not (z[n] >= bound[n] or -z[n] >= bound[n]):
            stop = False
            break
        guess[n] = not guess[n]
        guess[n + 1 :] = z[n + 1 :] < 0.0
        n += 1
    active = guess[:n]
    # An active step cannot project when (‖w/C_j‖ + τA)(1 + τ) ≤ r/C_j. The
    # triangle bound A usually settles it; if not, bound ‖w/C_j‖² instead:
    # a proven-active step k adds a_k(2·margin_k/C_k + a_k‖δ_k‖²) to it, and
    # its margin is below 1, so every term below is a positive upper bound.
    if n and reach * (1.0 + tau) > radius * thr[0]:
        grow = a[:n] * (2.0 * thr[:n] + a[:n] * norms[:n] ** 2)
        norm_bound = np.sqrt(w_sq + np.cumsum(grow * active)) * (1.0 + tau) + tau * reach
        risky = active & (norm_bound * (1.0 + tau) > radius * thr[:n])
        first = int(risky.argmax())
        if risky[first]:
            return first, active[:first], True
    return n, active, stop


def _pegasos(
    X: np.ndarray,
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
    lam: float,
) -> tuple[np.ndarray, int]:
    """Projected Pegasos over the epochs' ``(positive, negative)`` index arrays.

    Returns the final ``w`` and the number of steps run through the
    exact step body (the rest were proven and replayed).
    """
    d = X.shape[1]
    radius = 1.0 / np.sqrt(lam)
    tau = 16.0 * (2 * _BLOCK_MAX + d + 32) * np.finfo(float).eps
    w = np.zeros(d)
    # Steps to run exactly before the next block: the first step, the one
    # after a projection, and a back-off while minimum-size blocks keep
    # stopping short (when most steps project, as with large features).
    exact_next = 1
    backoff = 0
    block = _BLOCK_MIN
    exact = 0
    t = 0
    for p, n in pairs:
        for lo in range(0, p.size, _CHUNK):
            diffs = X[p[lo : lo + _CHUNK]] - X[n[lo : lo + _CHUNK]]
            m = diffs.shape[0]
            step_no = np.arange(t + 1, t + m + 1, dtype=float)
            eta = 1.0 / (lam * step_no)
            shrink = 1.0 - eta * lam
            updates = eta[:, None] * diffs
            norms = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            # owed[j + 1] is shrink j along a row: replaying shrinks j … k
            # writes w into owed[j] and multiplies down the rows in order.
            owed = np.empty((m + 1, d))
            owed[1:] = shrink[:, None]
            i = 0  # the next step whose shrink is not yet in w
            while i < m:
                known_active = False
                if exact_next:
                    exact_next -= 1
                else:
                    b = min(block, m - i)
                    # The shrinks telescope: Π (1 − 1/t) over steps i … j = t_base / t_j.
                    thr = step_no[i : i + b] * (1.0 / (t + i))
                    proven, active, stop = _certify_block(
                        diffs[i : i + b], w, thr, eta[i : i + b], norms[i : i + b], tau, radius
                    )
                    end = i + proven
                    for k in (np.flatnonzero(active) + i).tolist() + [end]:
                        # the shrinks up to k, then active step k's own shrink and update
                        last = k + 1 if k < end else k
                        if last - i == 1:
                            w *= shrink[i]
                        elif last > i:
                            owed[i] = w
                            np.multiply.reduce(owed[i : last + 1], axis=0, out=w)
                        if k < end:
                            w += updates[k]
                        i = last
                    if proven == b:
                        block = min(2 * block, _BLOCK_MAX)
                        backoff = 0
                    elif block > _BLOCK_MIN:
                        block //= 2
                    elif stop is not None:
                        backoff = min(2 * backoff + 1, _BLOCK_MAX)
                        exact_next = backoff
                    if stop is None:
                        continue
                    known_active = stop
                # The one-step body, but for the proven-active shortcut.
                w *= shrink[i]
                # δ is copied to a fresh array, aligned like the one-step loop's.
                if known_active or w.dot(diffs[i].copy()) < 1.0:
                    w += updates[i]
                w_norm = math.sqrt(w.dot(w))
                if w_norm > radius:
                    w *= radius / w_norm
                    exact_next = max(exact_next, 1)
                exact += 1
                i += 1
            t += m
    return w, exact


@dataclass
class RankSVM:
    """Linear pairwise ranking SVM trained on sampled positive–negative pairs."""

    lam: float = 1e-3
    n_pairs: int = 50_000
    epochs: int = 3
    seed: int = 0
    coef_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RankSVM":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        pos_idx = np.flatnonzero(y == 1.0)
        neg_idx = np.flatnonzero(y != 1.0)
        if pos_idx.size == 0 or neg_idx.size == 0:
            raise ValueError("RankSVM needs both positive and negative examples")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        rng = np.random.default_rng(self.seed)
        pairs = (
            (rng.choice(pos_idx, size=self.n_pairs), rng.choice(neg_idx, size=self.n_pairs))
            for _ in range(self.epochs)
        )
        self.coef_, exact = _pegasos(X, pairs, self.lam)
        telemetry.count("ranksvm.steps", self.epochs * self.n_pairs)
        telemetry.count("ranksvm.exact_steps", exact)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Ranking scores ``wᵀx`` (only their order is meaningful)."""
        if self.coef_ is None:
            raise RuntimeError("model used before fit()")
        return np.asarray(X, dtype=float) @ self.coef_

    def pairwise_accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correctly ordered (pos, neg) pairs — the empirical AUC."""
        from .objective import empirical_auc

        return empirical_auc(self.decision_function(X), y)
