"""Dirichlet process mixture of hierarchical beta processes (DPMHBP).

The proposed model (Eq. 18.7): pipe *segments* are adaptively grouped by a
CRP, each group ``k`` carries a failure rate ``q_k`` with a beta-process
prior, segment failure probabilities ``ρ_l`` are Beta-distributed around
their group's rate, yearly segment failures are Bernoulli draws, and a
pipe's failure probability composes over its serially connected segments:

    q_k ~ Beta(c0·q0, c0·(1−q0))          group failure rate
    z_l ~ CRP(α)                           adaptive segment grouping
    ρ_l ~ Beta(c·q_{z_l}, c·(1−q_{z_l}))   segment failure probability
    y_{l,j} ~ Bernoulli(ρ_l)               yearly failure indicators
    π_i = 1 − Π_{l∈pipe i} (1 − ρ_l)       pipe failure probability

Grouping is *feature-aware*: each cluster also carries a Gaussian mean
over the segment's (standardised) Table 18.2 features, so segments cluster
by the joint evidence of failure history and intrinsic/environmental
attributes — "pipes with similar intrinsic attributes and environmental
factors often share similar failure patterns". The number of groups is
unbounded and inferred.

Inference is Metropolis-within-Gibbs (the HBP hierarchy breaks conjugacy
for ``q_k``), with Neal's Algorithm 8 auxiliary-cluster moves for the CRP
assignments and ``ρ_l`` collapsed out of the assignment and ``q_k`` blocks
(the Beta–Binomial marginal). Because every segment has the same number of
observation years ``m`` and tiny failure counts, the per-cluster
Beta–Binomial terms are kept as an ``(m+1, K)`` table, one column per cluster
— the sparsity-exploiting approximation that keeps sweeps linear in the
number of segments.

Algorithm 8 is a sequential scan: each segment's draw sees the counts
left by every earlier visit. The implementation runs exactly that scan,
but a block of segments at a time (:class:`_CRPScan`). It guesses that
every segment in the block stays put, builds the whole block's
log-weights under that guess, adds each visit's Gumbel noise and takes
the row-wise argmax (a Gumbel-max categorical draw). The first row whose
draw differs from its guess saw only true counts, so its draw is the
sequential scan's draw; the block commits through that row and repeats
on the rest with the new draws as the guess. On the benchmark traffic
about one visit in ten moves and a block of 512 settles in about three
rounds.

A birth or death changes the number of clusters, and with it the width
of every later row, so the block stops there and that one visit runs on
its own. The random stream is unchanged. ``rng.gumbel(size=n)`` is the
concatenation of ``n`` single draws, so the scan reads its Gumbel noise
ahead in chunks and hands each visit the next ``K + n_aux`` values,
whatever ``K`` is at that visit (:class:`_GumbelStream`). When the sweep
ends the generator is rewound to just after the last value used, by
restoring the state saved before that value's chunk and replaying the
chunk's used part. The ``q_k`` block therefore starts from the generator
state a one-visit-at-a-time scan leaves.

The weights are the same sums as the one-visit formula, added in a
different order and with the feature dot products taken by one matrix
product per block, so they can differ in the last bit. A draw could
only change if two noisy log-weights tied to within a few ulps. ``tests/test_dpmhbp.py``
pins posteriors recorded with a plain one-visit-at-a-time scan.

Around the scan: auxiliary-cluster weights for every segment come from
one ``betaln`` call, the ``q_k`` block is HBP's
(:func:`repro.core.hbp.update_group_rates`, scoring each cluster through
its (m+1)-bin failure-count histogram), and the conjugate Gaussian block
updates every cluster mean in one batch.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from scipy.special import betaln

from .. import telemetry
from ..features.builder import ModelData
from ..inference.metropolis import AdaptiveScale
from ..monitor.health import ChainHealth, HealthReport
from ..parallel.blas import single_blas_thread
from ..parallel.executor import parallel_map, resolve_executor
from .base import FailureModel
from .hbp import (
    beta_binomial_column,
    count_histogram,
    failure_counts,
    pipe_covariate_factor,
    update_group_rates,
)

#: Per-sweep scalars handed to ``sweep_callback`` and the health monitor.
SweepCallback = Callable[[int, Mapping[str, float]], None]


def _betaln_scalar(a: float, b: float) -> float:
    """Scalar ``betaln`` via ``math.lgamma`` — far cheaper than the ufunc."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@dataclass
class DPMHBPPosterior:
    """Posterior summaries of one DPMHBP fit."""

    rho_mean: np.ndarray  # (n_segments,) posterior mean failure probability
    rho_std: np.ndarray  # (n_segments,) posterior sd of the conditional mean
    n_clusters_trace: np.ndarray  # (n_sweeps,)
    last_assignments: np.ndarray  # (n_segments,)
    last_q: np.ndarray  # (K,) group rates at the final sweep
    accept_rate_q: float
    #: Per-sweep collapsed Beta–Binomial log-likelihood; empty on the
    #: chain-pooled posterior of :class:`DPMHBPModel`.
    log_lik_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Per-sweep q-block acceptance rate; empty on the pooled posterior.
    accept_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def credible_interval(self, z: float = 1.64) -> tuple[np.ndarray, np.ndarray]:
        """Normal-approximation central interval for each segment's ρ.

        ``z = 1.64`` gives ~90% coverage of the posterior of the
        *conditional mean* (MCMC variability over group assignments and
        rates), clipped to [0, 1].
        """
        lo = np.clip(self.rho_mean - z * self.rho_std, 0.0, 1.0)
        hi = np.clip(self.rho_mean + z * self.rho_std, 0.0, 1.0)
        return lo, hi

    def save(self, path: str | Path) -> Path:
        """Checkpoint this posterior to an ``.npz``, atomically.

        The temp-file + ``os.replace`` dance means a killed process leaves
        either the previous checkpoint or none — never a torn file that
        :meth:`load` would half-read.
        """
        path = Path(path)
        buffer = io.BytesIO()
        np.savez(
            buffer,
            rho_mean=self.rho_mean,
            rho_std=self.rho_std,
            n_clusters_trace=self.n_clusters_trace,
            last_assignments=self.last_assignments,
            last_q=self.last_q,
            accept_rate_q=np.asarray(self.accept_rate_q),
            log_lik_trace=self.log_lik_trace,
            accept_trace=self.accept_trace,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buffer.getvalue())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DPMHBPPosterior":
        """Restore a posterior checkpoint written by :meth:`save`.

        Raises ``ValueError`` on a truncated/corrupt or wrong-format file,
        including one without the per-sweep traces, so callers can fall
        back to refitting the chain.
        """
        try:
            with np.load(Path(path)) as arrays:
                return cls(
                    rho_mean=arrays["rho_mean"],
                    rho_std=arrays["rho_std"],
                    n_clusters_trace=arrays["n_clusters_trace"],
                    last_assignments=arrays["last_assignments"],
                    last_q=arrays["last_q"],
                    accept_rate_q=float(arrays["accept_rate_q"]),
                    log_lik_trace=arrays["log_lik_trace"],
                    accept_trace=arrays["accept_trace"],
                )
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"corrupt DPMHBP chain checkpoint {path}: {exc}") from exc


class _Clusters:
    """Live cluster parameters as arrays, one entry per cluster.

    ``bbT`` is the Beta–Binomial table stored as ``(m+1, K)``, so a block
    of segments gathers its existing-cluster terms with one row index.
    A birth appends one entry to every array and a death deletes one.
    """

    def __init__(self, c_group: float, m: float, d: int):
        self.c = c_group
        self.m = m
        self.q = np.zeros(0)
        self.mu = np.zeros((0, d))
        self.mu_sq = np.zeros(0)
        self.count = np.zeros(0, dtype=np.int64)
        self.bbT = np.zeros((int(m) + 1, 0))
        self.scales: list[AdaptiveScale] = []

    @property
    def k(self) -> int:
        return self.q.size

    def add(self, q: float, mu: np.ndarray, count: int) -> int:
        self.q = np.append(self.q, q)
        self.mu = np.vstack([self.mu, mu])
        self.mu_sq = np.append(self.mu_sq, float(mu @ mu))
        self.count = np.append(self.count, count)
        self.bbT = np.column_stack([self.bbT, beta_binomial_column(q, self.c, self.m)])
        self.scales.append(AdaptiveScale())
        return self.k - 1

    def remove(self, k: int) -> None:
        self.q = np.delete(self.q, k)
        self.mu = np.delete(self.mu, k, axis=0)
        self.mu_sq = np.delete(self.mu_sq, k)
        self.count = np.delete(self.count, k)
        self.bbT = np.delete(self.bbT, k, axis=1)
        self.scales.pop(k)


#: Prior variance ``τ²`` of the cluster feature means.
_TAU2 = 1.0

#: Bounds of the speculative scan's adaptive block size (segments).
_BLOCK_MIN = 8
_BLOCK_MAX = 512
#: Most Gumbel draws the scan reads ahead of the visit it is on.
_READ_AHEAD = 1 << 18


class _GumbelStream:
    """The scan's Gumbel noise, drawn ahead of use in chunks.

    A chunk of ``n`` draws equals ``n`` consecutive single draws, so
    reading ahead leaves the stream as it is. Only the scan draws from the
    generator while it runs; :meth:`finish` then rewinds the generator to
    just after the last draw actually used, by restoring the state saved
    before that draw's chunk and replaying the chunk's used part.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._reset()

    def _reset(self) -> None:
        self.buf = np.zeros(0)
        self.ptr = 0  # next unused draw in ``buf``
        self.base = 0  # stream position of ``buf[0]``
        self.chunks: list[tuple[int, dict]] = []  # (stream position, state before)

    def peek(self, n: int, ahead: int) -> np.ndarray:
        """The next ``n`` draws, without using them up.

        A refill reads up to ``ahead`` draws (capped at ``_READ_AHEAD``),
        the caller's estimate of what the rest of the sweep needs.
        """
        avail = self.buf.size - self.ptr
        if n > avail:
            self.chunks.append((self.base + self.buf.size, self.rng.bit_generator.state))
            fresh = self.rng.gumbel(size=max(n, min(ahead, _READ_AHEAD)) - avail)
            self.base += self.ptr
            self.buf = np.concatenate([self.buf[self.ptr :], fresh])
            self.ptr = 0
        return self.buf[self.ptr : self.ptr + n]

    def take(self, n: int) -> np.ndarray:
        out = self.peek(n, n)
        self.ptr += n
        return out

    def finish(self) -> None:
        """Rewind the generator to just after the last draw used."""
        used = self.base + self.ptr
        if self.ptr < self.buf.size:
            start, state = next(c for c in reversed(self.chunks) if c[0] <= used)
            self.rng.bit_generator.state = state
            if used > start:
                self.rng.gumbel(size=used - start)
        self._reset()


class _CRPScan:
    """One fit's Algorithm 8 scan, run in speculative blocks.

    See the module docstring for why the blocks are exact. The block size
    halves after a birth or death and doubles after a clean block, within
    ``[_BLOCK_MIN, _BLOCK_MAX]``.
    """

    def __init__(
        self,
        sampler: "DPMHBP",
        clusters: _Clusters,
        z: np.ndarray,
        s: np.ndarray,
        feats: np.ndarray | None,
        sigma2: float,
        m: float,
        rng: np.random.Generator,
    ):
        self.clusters = clusters
        self.z = z
        self.s = s
        self.s_f = s.astype(float)
        self.feats = feats
        self.sigma2 = sigma2
        self.m = m
        self.rng = rng
        self.gumbel = _GumbelStream(rng)
        self.c_group = sampler.c_group
        self.n_aux = sampler.n_aux
        self.log_alpha_aux = math.log(sampler.alpha / sampler.n_aux)
        self.a0 = sampler.c0 * sampler.q0
        self.b0 = sampler.c0 * (1.0 - sampler.q0)
        n = z.size
        #: log(count) for counts 0..n; an empty cluster has weight zero.
        self.log_count = np.concatenate(
            ([-np.inf], np.fromiter(map(math.log, range(1, n + 1)), float, n))
        )
        self.block = _BLOCK_MAX
        self.rounds = 0
        self.fallbacks = 0

    def sweep(self) -> None:
        """Visit every segment once, in a random order."""
        cl, rng = self.clusters, self.rng
        n_seg = self.z.size
        cl.mu_sq = np.sum(cl.mu**2, axis=1)
        order = rng.permutation(n_seg)
        # Draw every segment's auxiliary-cluster parameters up front and
        # score them in one vectorized pass: the failure count s_l is
        # fixed within a sweep, so each segment's Beta–Binomial term
        # depends only on its own pre-drawn auxiliary rates.
        self.aux_q = rng.beta(self.a0, self.b0, (n_seg, self.n_aux))
        self.aux_mu = rng.normal(0.0, math.sqrt(_TAU2), (n_seg, self.n_aux, cl.mu.shape[1]))
        a_aux = self.c_group * self.aux_q
        b_aux = self.c_group - a_aux
        s_f = self.s_f
        self.aux_base = (
            self.log_alpha_aux
            + betaln(a_aux + s_f[:, None], b_aux + (self.m - s_f)[:, None])
            - betaln(a_aux, b_aux)
        )
        if self.feats is not None:
            # ‖feats_l‖² is common to every candidate (existing and
            # auxiliary) and cannot move the draw, so both weight
            # formulas drop it.
            aux_cross = np.einsum("ld,lhd->lh", self.feats, self.aux_mu)
            aux_sq = np.einsum("lhd,lhd->lh", self.aux_mu, self.aux_mu)
            self.aux_base += (aux_cross - 0.5 * aux_sq) / self.sigma2

        pos = 0
        while pos < order.size:
            rows = order[pos : pos + self.block]
            done = self._block(rows, order.size - pos)
            pos += done
            if done < rows.size:
                self._visit(int(order[pos]))
                self.fallbacks += 1
                pos += 1
                self.block = max(self.block // 2, _BLOCK_MIN)
            else:
                self.block = min(self.block * 2, _BLOCK_MAX)
        self.gumbel.finish()

    def _feature_term(self, rows: np.ndarray) -> np.ndarray:
        cl = self.clusters
        cross = self.feats[rows] @ cl.mu.T
        return (cross - 0.5 * cl.mu_sq) / self.sigma2

    def _commit(self, rows: np.ndarray, new: np.ndarray, old: np.ndarray) -> None:
        """Apply the draws ``new`` of ``rows`` and use up their noise."""
        cl = self.clusters
        moved = new != old
        if moved.any():
            self.z[rows[moved]] = new[moved]
            cl.count += np.bincount(new[moved], minlength=cl.k)
            cl.count -= np.bincount(old[moved], minlength=cl.k)
        self.gumbel.ptr += rows.size * (cl.k + self.n_aux)

    def _block(self, rows: np.ndarray, left: int) -> int:
        """Visit ``rows`` in order; return how many were committed.

        Fewer than ``len(rows)`` means the next row is a birth or death,
        which the caller visits through :meth:`_visit`. ``left`` counts
        the sweep's unvisited segments, ``rows`` included.
        """
        cl = self.clusters
        n, k = rows.size, cl.k
        width = k + self.n_aux
        gumbel = self.gumbel.peek(n * width, left * width).reshape(n, width)
        # The count-free part of every existing-cluster log-weight.
        fixed = cl.bbT[self.s[rows]]
        if self.feats is not None:
            fixed += self._feature_term(rows)
        fixed += gumbel[:, :k]
        aux = self.aux_base[rows] + gumbel[:, k:]
        aux_arg = aux.argmax(axis=1)
        aux_max = aux[np.arange(n), aux_arg]
        old = self.z[rows]
        guess = old.copy()
        lo = 0
        while lo < n:
            self.rounds += 1
            o, g = old[lo:], guess[lo:]
            idx = np.arange(n - lo)
            # Counts each visit sees if every earlier visit in the block
            # moved as guessed: running total of the moves before it,
            # minus the visiting segment itself.
            counts = np.repeat(cl.count[None, :], n - lo, axis=0)
            moved = np.flatnonzero(g != o)
            if moved.size:
                step = np.zeros_like(counts)
                step[moved, g[moved]] = 1
                step[moved, o[moved]] = -1
                counts += np.cumsum(step, axis=0)
                counts -= step
            counts[idx, o] -= 1
            logw = self.log_count[counts]
            logw += fixed[lo:]
            best = logw.argmax(axis=1)
            # argmax over [existing, auxiliary] takes the first maximum,
            # so an auxiliary cluster must beat the existing best strictly.
            draw = np.where(aux_max[lo:] > logw[idx, best], k + aux_arg[lo:], best)
            death = counts[idx, o] == 0
            bad = np.flatnonzero((draw != g) | death)
            if bad.size == 0:
                self._commit(rows[lo:], g, o)
                return n
            f = int(bad[0])
            if death[f] or draw[f] >= k:
                self._commit(rows[lo : lo + f], g[:f], o[:f])
                return lo + f
            # Row f saw true counts, so its draw is final; later rows
            # guess their latest draw (or stay put if it was a birth).
            g[f:] = np.where(draw[f:] < k, draw[f:], o[f:])
            self._commit(rows[lo : lo + f + 1], g[: f + 1], o[: f + 1])
            lo += f + 1
        return n

    def _visit(self, l: int) -> None:
        """One Algorithm 8 visit, for a segment whose move changes ``K``."""
        cl, z = self.clusters, self.z
        k_old = int(z[l])
        cl.count[k_old] -= 1
        singleton = None
        if cl.count[k_old] == 0:
            singleton = (float(cl.q[k_old]), cl.mu[k_old])
            cl.remove(k_old)
            z[z > k_old] -= 1
        k_live = cl.k

        logw = self.log_count[cl.count] + cl.bbT[self.s[l]]
        if self.feats is not None:
            logw += self._feature_term(np.array([l]))[0]

        # Auxiliary clusters from the prior (the deleted singleton's
        # parameters are recycled as the first auxiliary, per Alg 8).
        aux_q = self.aux_q[l]
        aux_mu = self.aux_mu[l]
        aux_logw = self.aux_base[l]
        if singleton is not None:
            aux_q = aux_q.copy()
            aux_mu = aux_mu.copy()
            aux_logw = aux_logw.copy()
            q_s, mu_s = singleton
            aux_q[0] = q_s
            aux_mu[0] = mu_s
            a_s = self.c_group * q_s
            b_s = self.c_group * (1.0 - q_s)
            sl = float(self.s[l])
            w0 = (
                self.log_alpha_aux
                + _betaln_scalar(a_s + sl, b_s + (self.m - sl))
                - _betaln_scalar(a_s, b_s)
            )
            if self.feats is not None:
                w0 += (float(self.feats[l] @ mu_s) - 0.5 * float(mu_s @ mu_s)) / self.sigma2
            aux_logw[0] = w0

        all_logw = np.concatenate([logw, aux_logw])
        all_logw += self.gumbel.take(all_logw.size)
        choice = int(all_logw.argmax())
        if choice < k_live:
            z[l] = choice
            cl.count[choice] += 1
        else:
            h = choice - k_live
            z[l] = cl.add(float(aux_q[h]), aux_mu[h], 1)


@dataclass
class DPMHBP:
    """The DPMHBP sampler on raw arrays (no dataset plumbing).

    Parameters
    ----------
    alpha:
        CRP concentration — larger means more (finer) groups a priori.
    q0, c0:
        Top-level beta-process mean and concentration (group-rate prior).
    c_group:
        Concentration tying segment probabilities to their group rate.
    feature_weight:
        Weight of the feature likelihood in the grouping (the Gaussian
        noise variance is ``1/feature_weight``); 0 disables feature-aware
        grouping (history-only clustering).
    n_aux:
        Auxiliary clusters per assignment move (Neal Algorithm 8's ``m``).
    """

    alpha: float = 4.0
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 30.0
    feature_weight: float = 3.0
    n_aux: int = 2
    n_sweeps: int = 60
    burn_in: int = 20
    seed: int = 0
    #: Optional per-sweep hook ``callback(sweep, scalars)`` receiving
    #: ``n_clusters`` / ``log_lik`` / ``accept_q`` after every sweep —
    #: e.g. :meth:`repro.monitor.ChainHealth.as_callback` for live
    #: convergence monitoring. Must be picklable (or None) when chains
    #: fan out over a process executor.
    sweep_callback: SweepCallback | None = None

    def fit(
        self,
        failures: np.ndarray,
        features: np.ndarray | None = None,
        init_labels: np.ndarray | None = None,
    ) -> DPMHBPPosterior:
        """Run the sampler on a 0/1 (segments × years) failure matrix.

        ``init_labels`` optionally seeds the partition (e.g. a coarse
        attribute crossing); the CRP moves then merge/split/refine it. A
        good seed shortens burn-in dramatically — the stationary
        distribution is unchanged. Raises
        :class:`~repro.core.hbp.FailureDataError` on any failure entry
        other than 0 or 1.
        """
        # Pinned here as well as in ``fit_predict``: chains run in pool
        # workers, outside any model's fit.
        with single_blas_thread(), telemetry.span(
            "dpmhbp.fit", n_sweeps=self.n_sweeps, seed=self.seed
        ):
            posterior = self._fit(failures, features, init_labels)
        telemetry.count("dpmhbp.fits")
        telemetry.gauge("dpmhbp.accept_rate_q", posterior.accept_rate_q)
        telemetry.gauge("dpmhbp.n_clusters", float(posterior.n_clusters_trace[-1]))
        return posterior

    def _fit(
        self,
        failures: np.ndarray,
        features: np.ndarray | None,
        init_labels: np.ndarray | None,
    ) -> DPMHBPPosterior:
        s = failure_counts(failures)
        n_seg, n_years = np.shape(failures)
        if self.burn_in >= self.n_sweeps:
            raise ValueError("burn_in must be smaller than n_sweeps")
        m = float(n_years)

        use_features = features is not None and self.feature_weight > 0.0
        if use_features:
            feats = np.asarray(features, dtype=float)
            if feats.shape[0] != n_seg:
                raise ValueError("features must have one row per segment")
            d = feats.shape[1]
            sigma2 = 1.0 / self.feature_weight
        else:
            feats = np.zeros((n_seg, 1))
            d = 1
            sigma2 = 1.0
        tau2 = _TAU2

        rng = np.random.default_rng(self.seed)
        clusters = _Clusters(self.c_group, m, d)

        # Initialise from the provided seed partition, or a coarse random one.
        # Either way, relabel to contiguous ids so no initial cluster is
        # empty — reassigning random segments to fill gaps (the old
        # behaviour) could silently empty *another* cluster and leave its
        # stale count in play for the whole run.
        if init_labels is not None:
            z = np.asarray(init_labels, dtype=np.int64).copy()
            if z.shape != (n_seg,):
                raise ValueError("init_labels must have one label per segment")
        else:
            init_k = max(2, min(10, n_seg))
            z = rng.integers(0, init_k, size=n_seg)
        _, z = np.unique(z, return_inverse=True)
        for k in range(int(z.max()) + 1):
            members = z == k
            mu0 = feats[members].mean(axis=0) if use_features else np.zeros(d)
            q_init = min(max((s[members].mean() / m) + 1e-3, 1e-4), 0.5)
            clusters.add(q_init, mu0, int(members.sum()))

        scan = _CRPScan(
            self, clusters, z, s, feats if use_features else None, sigma2, m, rng
        )
        rho_acc = np.zeros(n_seg)
        rho_sq_acc = np.zeros(n_seg)
        kept = 0
        n_clusters_trace = []
        log_lik_trace = []
        accept_trace = []
        q_accepts = 0
        q_props = 0
        q_accepts_prev = 0
        q_props_prev = 0

        n_bins = int(m) + 1

        for sweep in range(self.n_sweeps):
            # ---- Block 1: CRP assignments (Neal Algorithm 8) ----
            scan.sweep()

            # ---- Block 2: q_k via logit Metropolis (collapsed ρ) ----
            # HBP's block on the current clusters (no cluster is empty,
            # so the histogram has one row per cluster). Only accepted
            # rates are adopted, and their table columns refreshed.
            k_tot = clusters.k
            new_q, accepted = update_group_rates(
                clusters.q,
                count_histogram(z, s, n_bins),
                [sc.scale for sc in clusters.scales],
                rng,
                self.q0,
                self.c0,
                self.c_group,
            )
            for scale, ok in zip(clusters.scales, accepted):
                scale.update(ok)
            q_props += k_tot
            q_accepts += int(accepted.sum())
            for k in np.flatnonzero(accepted):
                clusters.q[k] = new_q[k]
                clusters.bbT[:, k] = beta_binomial_column(new_q[k], self.c_group, m)

            # ---- Block 3: cluster feature means (conjugate Gaussian) ----
            if use_features:
                seg_sums = np.stack(
                    [np.bincount(z, weights=col, minlength=k_tot) for col in feats.T],
                    axis=1,
                )
                n_k = np.bincount(z, minlength=k_tot).astype(float)
                post_var = 1.0 / (1.0 / tau2 + n_k / sigma2)
                post_mean = post_var[:, None] * seg_sums / sigma2
                clusters.mu = post_mean + np.sqrt(post_var)[:, None] * rng.standard_normal(
                    (k_tot, d)
                )

            n_clusters_trace.append(k_tot)
            # Collapsed log-likelihood of the sweep's state: each segment's
            # Beta–Binomial term is one lookup in its cluster's table.
            log_lik = float(clusters.bbT[s, z].sum())
            log_lik_trace.append(log_lik)
            sweep_accept = (q_accepts - q_accepts_prev) / max(
                q_props - q_props_prev, 1
            )
            accept_trace.append(sweep_accept)
            q_accepts_prev, q_props_prev = q_accepts, q_props
            telemetry.count("dpmhbp.sweeps")
            if self.sweep_callback is not None:
                self.sweep_callback(
                    sweep,
                    {
                        "n_clusters": float(k_tot),
                        "log_lik": log_lik,
                        "accept_q": sweep_accept,
                    },
                )

            # ---- Accumulate posterior mean ρ (collapsed conditional mean) ----
            if sweep >= self.burn_in:
                q_z = clusters.q[z]
                rho_sweep = (self.c_group * q_z + s) / (self.c_group + m)
                rho_acc += rho_sweep
                rho_sq_acc += rho_sweep**2
                kept += 1

        telemetry.count("dpmhbp.scan.rounds", scan.rounds)
        telemetry.count("dpmhbp.scan.fallbacks", scan.fallbacks)
        rho_mean = rho_acc / kept
        rho_var = np.maximum(rho_sq_acc / kept - rho_mean**2, 0.0)
        return DPMHBPPosterior(
            rho_mean=rho_mean,
            rho_std=np.sqrt(rho_var),
            n_clusters_trace=np.asarray(n_clusters_trace),
            last_assignments=z.copy(),
            last_q=clusters.q.copy(),
            accept_rate_q=q_accepts / max(q_props, 1),
            log_lik_trace=np.asarray(log_lik_trace),
            accept_trace=np.asarray(accept_trace),
        )


def _write_json_atomic(path: Path, payload: dict) -> Path:
    """Write a JSON document via same-dir temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _fit_dpmhbp_chain(task: tuple) -> DPMHBPPosterior:
    """Run one chain of the sampler (module-level so processes can pickle it).

    The task is ``(sampler, failures, features, init, ckpt_path)``; on the
    processes backend each chain receives its own pickled copy of the
    training arrays.

    With a checkpoint path, the chain restores a valid prior checkpoint
    instead of re-sampling (bit-identical — the checkpoint *is* the chain's
    result), and saves its posterior atomically after a fresh fit; corrupt
    checkpoints are discarded and refit.
    """
    sampler, failures, features, init, ckpt_path = task
    if ckpt_path is not None and Path(ckpt_path).exists():
        try:
            restored = DPMHBPPosterior.load(ckpt_path)
            telemetry.count("dpmhbp.chain.restored")
            return restored
        except ValueError:
            pass  # corrupt/stale checkpoint: refit and overwrite below
    with telemetry.span("dpmhbp.chain", seed=sampler.seed):
        posterior = sampler.fit(failures, features, init_labels=init)
    if ckpt_path is not None:
        posterior.save(ckpt_path)
    return posterior


@dataclass
class DPMHBPModel(FailureModel):
    """DPMHBP failure model: segment-level inference, pipe-level prediction.

    Fits the sampler on the training failure matrix and the segment
    clustering features, composes pipe risk as
    ``π_i = 1 − Π(1 − ρ_l)`` over the pipe's segments, and applies the
    multiplicative covariate factor (Poisson GLM), mirroring the paper's
    "features applied multiplicatively" treatment.

    Chains are independent given their derived seeds, so they fan across
    the executor configured by ``jobs``/``executor`` (or the
    ``REPRO_JOBS``/``REPRO_EXECUTOR`` environment variables) with
    bit-identical results on every backend.
    """

    name: str = "DPMHBP"
    alpha: float = 4.0
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 30.0
    feature_weight: float = 3.0
    n_sweeps: int = 60
    burn_in: int = 20
    n_chains: int = 2
    covariates: bool = True
    seed: int = 0
    jobs: int | None = None
    executor: str | None = None
    #: Pool the chains' per-sweep traces into a convergence
    #: :class:`~repro.monitor.HealthReport` after fitting (stored on
    #: ``health_``; also written to ``checkpoint_dir/health.json`` when
    #: checkpointing). Thresholds come from ``REPRO_HEALTH_*`` env vars.
    monitor: bool = True
    #: Directory for per-chain posterior checkpoints (``chain_<i>.npz``).
    #: A refit with the same configuration restores finished chains instead
    #: of re-sampling them — the chain-level resume a killed cell relies on.
    checkpoint_dir: str | None = None
    posterior_: DPMHBPPosterior | None = field(default=None, repr=False)
    chain_posteriors_: list[DPMHBPPosterior] = field(default_factory=list, repr=False)
    health_: HealthReport | None = field(default=None, repr=False)
    _factor: np.ndarray | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "DPMHBPModel":
        if self.n_chains < 1:
            raise ValueError("need at least one chain")
        # Seed the partition with the material × laid-decade crossing — a
        # coarse expert prior the CRP is free to merge, split and refine.
        materials = np.asarray(data.pipe_material)[data.seg_pipe_idx]
        decades = (data.seg_laid_year // 10).astype(int)
        _, init = np.unique(
            np.char.add(materials.astype(str), decades.astype(str)), return_inverse=True
        )
        features = data.clustering_features()
        tasks = [
            (
                DPMHBP(
                    alpha=self.alpha,
                    q0=self.q0,
                    c0=self.c0,
                    c_group=self.c_group,
                    feature_weight=self.feature_weight,
                    n_sweeps=self.n_sweeps,
                    burn_in=self.burn_in,
                    seed=self.seed + 101 * chain,
                ),
                data.seg_fail_train,
                features,
                init,
                (
                    str(Path(self.checkpoint_dir) / f"chain_{chain}.npz")
                    if self.checkpoint_dir is not None
                    else None
                ),
            )
            for chain in range(self.n_chains)
        ]
        self.chain_posteriors_ = parallel_map(
            _fit_dpmhbp_chain, tasks, resolve_executor(self.jobs, self.executor)
        )
        # Pool the chains: the posterior mean averages, the variance adds
        # the within-chain and between-chain components.
        rho_means = np.stack([p.rho_mean for p in self.chain_posteriors_])
        rho_vars = np.stack([p.rho_std**2 for p in self.chain_posteriors_])
        pooled_mean = rho_means.mean(axis=0)
        pooled_var = rho_vars.mean(axis=0) + rho_means.var(axis=0)
        last = self.chain_posteriors_[-1]
        self.posterior_ = DPMHBPPosterior(
            rho_mean=pooled_mean,
            rho_std=np.sqrt(pooled_var),
            n_clusters_trace=last.n_clusters_trace,
            last_assignments=last.last_assignments,
            last_q=last.last_q,
            accept_rate_q=float(
                np.mean([p.accept_rate_q for p in self.chain_posteriors_])
            ),
        )
        self.health_ = self._pool_health() if self.monitor else None
        self._factor = (
            pipe_covariate_factor(data) if self.covariates else np.ones(data.n_pipes)
        )
        return self

    def _pool_health(self) -> HealthReport:
        """Fold the chains' per-sweep traces into one convergence report.

        Chains run in (possibly process-pool) workers, so the monitor
        cannot observe them live — their recorded traces are bulk-ingested
        here instead. Post-burn-in sweeps only, matching what the pooled
        posterior itself retains.
        """
        health = ChainHealth(burn_in=self.burn_in)
        for posterior in self.chain_posteriors_:
            health.ingest_chain(
                {
                    "n_clusters": np.asarray(posterior.n_clusters_trace, dtype=float),
                    "log_lik": posterior.log_lik_trace,
                    "accept_q": posterior.accept_trace,
                }
            )
        report = health.report()
        if self.checkpoint_dir is not None:
            _write_json_atomic(
                Path(self.checkpoint_dir) / "health.json", report.to_json()
            )
        return report

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self.posterior_ is None or self._factor is None:
            raise RuntimeError("model used before fit()")
        pipe_prob = data.survival_pipe_probability(self.posterior_.rho_mean)
        return pipe_prob * self._factor

    def predict_segment_risk(self) -> np.ndarray:
        """Posterior mean per-segment yearly failure probability ``ρ_l``."""
        if self.posterior_ is None:
            raise RuntimeError("model used before fit()")
        return self.posterior_.rho_mean
