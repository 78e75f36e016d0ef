"""Optimization drivers: softmin-averaged search, random search, adaptive
variants, and an isotropic evolution strategy baseline.

All drivers share the same contract: they call the objective exactly
``budget`` times, are bit-deterministic for a fixed seed, and record an
anytime estimate (plus squared error when the minimizer is known) at a grid
of evaluation-count checkpoints.

A static run is the one-batch adaptive run: ``run_liso`` and
``run_random_search`` are ``run_adaptive_liso`` and
``run_adaptive_random_search`` with ``batch_size = budget``, so their single
batch is an i.i.d. sample from q0.  Every driver takes the one config class,
``AdaptiveConfig`` (``StaticConfig`` is another name for it), and ``METHODS``
maps each method name to its driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .distributions import IsotropicGaussian, MixturePolicy, make_rng
from .estimators import _kish_ess, _log_weights_into, _normalize_into, _weighted_sum
from .objectives import Objective

Array = np.ndarray


def alpha_schedule(alpha0: float, n: int, d: int) -> float:
    """Temperature after n evaluations in dimension d: alpha0 * n^(2/(d+2)).

    The exponent balances the estimator's variance (which grows with the
    temperature) against the bias of the softmin relative to the true argmin
    (which shrinks with it).
    """
    if not alpha0 > 0:
        raise ValueError("alpha0 must be positive")
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return alpha0 * float(n) ** (2.0 / (d + 2.0))


def default_checkpoints(budget: int, count: int = 30, start: int = 100) -> Array:
    """Geometric grid of evaluation counts, deduplicated, ending at budget."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lo = min(start, budget)
    grid = np.geomspace(lo, budget, num=count)
    pts = np.unique(np.rint(grid).astype(int))
    pts = pts[(pts >= 1) & (pts <= budget)]
    if pts.size == 0 or pts[-1] != budget:
        pts = np.append(pts, budget)
    return pts


@dataclass
class RunTrace:
    """Per-checkpoint record of the anytime estimate of the minimizer."""

    checkpoints: Array
    estimates: Array  # (num_checkpoints, d)
    squared_errors: Optional[Array] = None  # ||estimate - x*||^2 when x* known
    ess: Optional[Array] = None
    degenerate_final: bool = False


@dataclass
class AdaptiveConfig:
    """Settings of every driver.

    ``sigma2`` (the variance of the adapted sampler) defaults to 1/d, d being
    q0's dimension.  ``fixed_alpha``, when set, replaces the temperature
    schedule of the softmin drivers.  The static drivers use one batch of
    ``budget`` points whatever ``batch_size`` says.
    """

    budget: int
    alpha0: float
    q0: IsotropicGaussian
    seed: int
    sigma2: Optional[float] = None
    mixture_weight: float = 0.0
    batch_size: int = 300
    projection_box: Optional[Tuple[Array, Array]] = None
    checkpoints: Optional[Sequence[int]] = None
    fixed_alpha: Optional[float] = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if self.fixed_alpha is not None and not self.fixed_alpha > 0:
            raise ValueError("fixed_alpha must be positive")
        if not (0.0 <= self.mixture_weight <= 1.0):
            raise ValueError("mixture_weight must lie in [0, 1]")
        if self.sigma2 is None:
            self.sigma2 = 1.0 / self.q0.dimension
        elif not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.projection_box is not None:
            lo, hi = (np.asarray(a, dtype=float) for a in self.projection_box)
            if lo.shape != hi.shape or np.any(lo > hi):
                raise ValueError("projection box must be nonempty")
            self.projection_box = (lo, hi)


StaticConfig = AdaptiveConfig  # the static drivers take the same settings


def _resolve_checkpoints(config) -> Array:
    if config.checkpoints is not None:
        pts = np.unique(np.asarray(config.checkpoints, dtype=int))
        if pts.size == 0 or pts[0] < 1 or pts[-1] > config.budget:
            raise ValueError("checkpoints must lie in [1, budget]")
        if pts[-1] != config.budget:
            pts = np.append(pts, config.budget)
        return pts
    return default_checkpoints(config.budget)


def _squared_errors(estimates: Array, objective: Objective) -> Optional[Array]:
    if objective.known_minimizer is None:
        return None
    diff = estimates - objective.known_minimizer
    return np.sum(diff * diff, axis=1)


def _checked_log_density(policy, batch: Array) -> Array:
    logq = policy.log_density_batch(batch)
    if not np.all(np.isfinite(logq)):
        raise ValueError("sample log-densities must be finite")
    return logq


def _project(x: Array, box: Optional[Tuple[Array, Array]]) -> Array:
    if box is None:
        return x
    return np.clip(x, box[0], box[1])


def _run_adaptive(objective: Objective, config: AdaptiveConfig, use_softmin: bool):
    """Shared driver for adaptive softmin averaging and adaptive random search.

    Batches of size B are drawn from q_{k-1}; the first batch comes from q0
    itself, later batches from (1 - lambda) N(mu_{k-1}, sigma2 I) + lambda q0.
    Objective values and sampling log-densities are cached once per point and
    validated when the batch is evaluated; only the -alpha * f term is
    recomputed when the temperature advances.  When one batch covers the
    budget, its own arrays serve as the cache.

    Every re-weighting of a prefix of c points runs in place in one fresh
    buffer of length c.  Its log-weights are anchored at the smallest value
    among the c points; prefixes are visited in increasing c, so one running
    minimum serves them all.  A checkpoint that falls on a batch boundary also
    serves as the next center.  Random search keeps the index of the first
    best value instead.
    """
    d = objective.dimension
    n = config.budget
    B = config.batch_size
    box = config.projection_box
    rng = make_rng(config.seed)
    checkpoints = _resolve_checkpoints(config)

    if B < n:  # else the one batch's own arrays are the cache
        points = np.empty((n, d))
        values = np.empty(n)
        logq = np.empty(n) if use_softmin else None

    estimates = np.empty((checkpoints.size, d))
    ess = np.full(checkpoints.size, np.nan)
    degenerate_final = False
    best = 0  # random search: index of the first best value so far
    ref, ref_upto = math.inf, 0  # softmin: ref = min(values[:ref_upto])

    def softmin_at(c: int, with_ess: bool) -> Tuple[Array, float]:
        """Softmin average of the first c points, and its ESS when asked (else
        NaN).  Log-weights and then normalized weights are built in place in
        one buffer, so the average and the ESS come from the same weights."""
        nonlocal degenerate_final, ref, ref_upto
        ref = min(ref, values[ref_upto:c].min())
        ref_upto = c
        if ref == np.inf:  # every weight vanishes: fall back to the argmin
            if c == n:
                degenerate_final = True
            return points[np.argmin(values[:c])], math.nan
        if config.fixed_alpha is not None:
            alpha = config.fixed_alpha
        else:
            alpha = alpha_schedule(config.alpha0, c, d)
        p = _normalize_into(_log_weights_into(np.empty(c), alpha, values[:c], logq[:c], ref))
        return _weighted_sum(p, points[:c]), (_kish_ess(p) if with_ess else math.nan)

    mu = None
    filled = 0
    next_cp = 0
    while filled < n:
        b = min(B, n - filled)
        if mu is None:
            policy = config.q0
        else:
            policy = MixturePolicy(
                weight=config.mixture_weight,
                adapted=IsotropicGaussian(mean=mu, variance=config.sigma2),
                envelope=config.q0,
            )
        batch = policy.sample(rng, b)
        batch_values = objective.evaluate_batch(batch)
        batch_logq = _checked_log_density(policy, batch) if use_softmin else None
        lo, filled = filled, filled + b
        if B >= n:
            points, values, logq = batch, batch_values, batch_logq
        else:
            points[lo:filled] = batch
            values[lo:filled] = batch_values
            if use_softmin:
                logq[lo:filled] = batch_logq
        if not use_softmin:
            prev_best = best
            i = lo + int(np.argmin(batch_values))
            if values[i] < values[best]:  # strict: ties keep the lowest index
                best = i

        while next_cp < checkpoints.size and checkpoints[next_cp] <= filled:
            c = int(checkpoints[next_cp])
            if use_softmin:
                est, ess[next_cp] = softmin_at(c, True)
            else:
                i = lo + int(np.argmin(values[lo:c]))
                est = points[i if values[i] < values[prev_best] else prev_best]
            estimates[next_cp] = _project(est, box)
            next_cp += 1

        if next_cp and checkpoints[next_cp - 1] == filled:
            mu = estimates[next_cp - 1].copy()
        elif use_softmin:
            mu = _project(softmin_at(filled, False)[0], box)
        else:
            mu = _project(points[best], box)

    trace = RunTrace(
        checkpoints=checkpoints,
        estimates=estimates,
        squared_errors=_squared_errors(estimates, objective),
        ess=ess if use_softmin else None,
        degenerate_final=degenerate_final,
    )
    return mu, trace


def run_adaptive_liso(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Adaptive softmin averaging: each batch recenters the sampler at the
    current weighted-average estimate, preserving a fixed exploration mixture.
    """
    return _run_adaptive(objective, config, use_softmin=True)


def run_adaptive_random_search(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Adaptive random search: like adaptive softmin averaging, but the
    sampler recenters at the best point seen so far instead of the average.
    """
    return _run_adaptive(objective, config, use_softmin=False)


def run_liso(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Static softmin averaging: the one-batch adaptive run.

    One i.i.d. batch of ``budget`` points from q0.  At each checkpoint k the
    trace shows the anytime estimator: softmin average of the first k samples
    at temperature alpha_schedule(alpha0, k, d), or ``fixed_alpha``.
    Degenerate weights (all -inf) fall back to the argmin sample.
    """
    return run_adaptive_liso(objective, replace(config, batch_size=config.budget))


def run_random_search(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Plain random search: the one-batch adaptive random search.

    It draws the same sample stream as run_liso (same seed, same policy),
    which enables paired comparisons.  Ties go to the lowest sample index.
    """
    return run_adaptive_random_search(objective, replace(config, batch_size=config.budget))


def isotropic_es_recombination_weights(batch_size: int) -> Tuple[int, Array]:
    """Rank-based recombination weights log((B+1)/2) - log(i), i = 1..floor(B/2).

    All weights are positive because i <= floor(B/2) < (B+1)/2.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    count = batch_size // 2
    i = np.arange(1, count + 1, dtype=float)
    weights = math.log((batch_size + 1) / 2.0) - np.log(i)
    return count, weights


def _recombine(batch_points: Array, batch_values: Array) -> Array:
    if batch_points.shape[0] == 1:
        return batch_points[0].copy()
    count, weights = isotropic_es_recombination_weights(batch_points.shape[0])
    order = np.argsort(batch_values, kind="stable")[:count]
    weights = weights / np.sum(weights)
    return weights @ batch_points[order]


def run_isotropic_es(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Evolution strategy with a fixed isotropic covariance.

    Each iteration samples B points around the current mean, ranks the batch
    by objective value, and recombines the best floor(B/2) points with
    rank-based weights normalized to sum to 1.  Unlike the softmin drivers,
    the mean update uses the current batch only.
    """
    if config.batch_size < 2:
        raise ValueError("isotropic ES requires batch_size >= 2")
    d = objective.dimension
    n = config.budget
    B = config.batch_size
    rng = make_rng(config.seed)
    checkpoints = _resolve_checkpoints(config)

    estimates = np.empty((checkpoints.size, d))
    mu = None
    filled = 0
    next_cp = 0
    while filled < n:
        b = min(B, n - filled)
        policy = config.q0 if mu is None else IsotropicGaussian(mean=mu, variance=config.sigma2)
        batch = policy.sample(rng, b)
        batch_values = objective.evaluate_batch(batch)
        first_batch = mu is None

        while next_cp < checkpoints.size and checkpoints[next_cp] <= filled + b:
            c = int(checkpoints[next_cp])
            if first_batch:
                # No completed iteration yet: recombine the prefix of batch 1.
                m = c - filled
                estimates[next_cp] = _recombine(batch[:m], batch_values[:m])
            elif c == filled + b:
                estimates[next_cp] = _recombine(batch, batch_values)
            else:
                estimates[next_cp] = mu
            next_cp += 1

        filled += b
        if next_cp and checkpoints[next_cp - 1] == filled:
            mu = estimates[next_cp - 1].copy()
        else:
            mu = _recombine(batch, batch_values)

    trace = RunTrace(
        checkpoints=checkpoints,
        estimates=estimates,
        squared_errors=_squared_errors(estimates, objective),
    )
    return mu, trace


# Method name -> (driver, smallest batch_size it accepts).
METHODS = {
    "liso": (run_liso, 1),
    "random_search": (run_random_search, 1),
    "adaptive_liso": (run_adaptive_liso, 1),
    "adaptive_random_search": (run_adaptive_random_search, 1),
    "isotropic_es": (run_isotropic_es, 2),
}
