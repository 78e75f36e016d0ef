"""Optimization drivers: softmin-averaged search, random search, adaptive
variants, and an isotropic evolution strategy baseline.

All drivers share the same contract: they call the objective exactly
``budget`` times, are bit-deterministic for a fixed seed, and record an
anytime estimate (plus squared error when the minimizer is known) at a grid
of evaluation-count checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .distributions import IsotropicGaussian, MixturePolicy, make_rng
from .estimators import _kish_ess, _log_weights_into, _normalize_into, _weighted_sum
from .objectives import Objective

Array = np.ndarray

METHOD_NAMES = (
    "liso",
    "random_search",
    "adaptive_liso",
    "adaptive_random_search",
    "isotropic_es",
)


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
class StaticConfig:
    budget: int
    alpha0: float
    q0: IsotropicGaussian
    seed: int
    checkpoints: Optional[Sequence[int]] = None
    fixed_alpha: Optional[float] = None  # overrides the schedule when set

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if self.fixed_alpha is not None and not self.fixed_alpha > 0:
            raise ValueError("fixed_alpha must be positive")


@dataclass
class AdaptiveConfig:
    budget: int
    alpha0: float
    q0: IsotropicGaussian
    seed: int
    sigma2: float
    mixture_weight: float = 0.0
    batch_size: int = 300
    projection_box: Optional[Tuple[Array, Array]] = None
    checkpoints: Optional[Sequence[int]] = None
    normalize_es_weights: bool = True

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if not (0.0 <= self.mixture_weight <= 1.0):
            raise ValueError("mixture_weight must lie in [0, 1]")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.projection_box is not None:
            lo, hi = (np.asarray(a, dtype=float) for a in self.projection_box)
            if lo.shape != hi.shape or np.any(lo > hi):
                raise ValueError("projection box must be nonempty")
            self.projection_box = (lo, hi)


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


def _softmin_estimate(
    alpha: float,
    points: Array,
    values: Array,
    logq: Array,
    ref: float,
    scratch: Array,
    with_ess: bool,
) -> Optional[Tuple[Array, float]]:
    """Softmin average of a cached prefix, and its ESS when asked (else NaN).

    ``ref`` is the smallest value in the prefix.  The log-weights and then the
    normalized weights are built in place in ``scratch``, so the average and
    the ESS come from the same weights.  Returns None when every value is
    +inf, i.e. every weight vanishes.
    """
    if ref == np.inf:
        return None
    lw = _log_weights_into(scratch[:values.size], alpha, values, logq, ref)
    p = _normalize_into(lw)
    return _weighted_sum(p, points), (_kish_ess(p) if with_ess else math.nan)


def run_liso(objective: Objective, config: StaticConfig) -> Tuple[Array, RunTrace]:
    """Non-adaptive softmin averaging over one i.i.d. sample batch.

    At each checkpoint k the trace shows the anytime estimator: softmin
    average of the first k samples at temperature alpha_schedule(alpha0, k, d).
    Degenerate weights (all -inf) fall back to the argmin sample.
    """
    d = objective.dimension
    n = config.budget
    rng = make_rng(config.seed)
    points = config.q0.sample(rng, n)
    values = objective.evaluate_batch(points)
    logq = _checked_log_density(config.q0, points)
    checkpoints = _resolve_checkpoints(config)

    estimates = np.empty((checkpoints.size, d))
    ess = np.full(checkpoints.size, np.nan)
    degenerate_final = False
    for j, k in enumerate(checkpoints):
        if config.fixed_alpha is not None:
            alpha = config.fixed_alpha
        else:
            alpha = alpha_schedule(config.alpha0, int(k), d)
        # One buffer per checkpoint, not one held for the whole run: across
        # many short runs the held one raised the peak RSS (heap fragmentation).
        result = _softmin_estimate(
            alpha, points[:k], values[:k], logq[:k], np.min(values[:k]), np.empty(k), True
        )
        if result is None:
            estimates[j] = points[np.argmin(values[:k])]
            if k == n:
                degenerate_final = True
        else:
            estimates[j], ess[j] = result

    trace = RunTrace(
        checkpoints=checkpoints,
        estimates=estimates,
        squared_errors=_squared_errors(estimates, objective),
        ess=ess,
        degenerate_final=degenerate_final,
    )
    return estimates[-1].copy(), trace


def run_random_search(objective: Objective, config: StaticConfig) -> Tuple[Array, RunTrace]:
    """Plain random search: argmin over the same sample stream as run_liso.

    Sharing the stream (same seed, same policy) enables paired comparisons.
    Ties are broken by the lowest sample index.
    """
    d = objective.dimension
    rng = make_rng(config.seed)
    points = config.q0.sample(rng, config.budget)
    values = objective.evaluate_batch(points)
    checkpoints = _resolve_checkpoints(config)

    estimates = np.empty((checkpoints.size, d))
    for j, k in enumerate(checkpoints):
        estimates[j] = points[np.argmin(values[:k])]

    trace = RunTrace(
        checkpoints=checkpoints,
        estimates=estimates,
        squared_errors=_squared_errors(estimates, objective),
    )
    return estimates[-1].copy(), trace


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
    recomputed when the temperature advances.

    Every re-weighting of a prefix of c points runs in place in one scratch
    buffer of length budget.  Its log-weights are anchored at the prefix
    minimum ``prefix_min[c - 1]``, kept per point with a running minimum, so
    a checkpoint inside a batch uses the best value among its own c points.
    A checkpoint that falls on a batch boundary also serves as the next
    center.  Random search keeps the index of the first best value instead.
    """
    d = objective.dimension
    n = config.budget
    B = config.batch_size
    box = config.projection_box
    rng = make_rng(config.seed)
    checkpoints = _resolve_checkpoints(config)

    points = np.empty((n, d))
    values = np.empty(n)
    if use_softmin:
        logq = np.empty(n)
        prefix_min = np.empty(n)
        scratch = np.empty(n)

    estimates = np.empty((checkpoints.size, d))
    ess = np.full(checkpoints.size, np.nan)
    degenerate_final = False
    best = 0  # random search: index of the first best value so far

    def softmin_at(c: int, with_ess: bool) -> Tuple[Array, float]:
        nonlocal degenerate_final
        alpha = alpha_schedule(config.alpha0, c, d)
        result = _softmin_estimate(
            alpha, points[:c], values[:c], logq[:c], prefix_min[c - 1], scratch, with_ess
        )
        if result is None:
            if c == n:
                degenerate_final = True
            return points[np.argmin(values[:c])], math.nan
        return result

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
        lo, filled = filled, filled + b
        points[lo:filled] = batch
        values[lo:filled] = objective.evaluate_batch(batch)
        if use_softmin:
            logq[lo:filled] = _checked_log_density(policy, batch)
            # Seeding the scan with the previous prefix minimum carries it on.
            prefix_min[lo:filled] = values[lo:filled]
            run = prefix_min[max(lo - 1, 0):filled]
            np.minimum.accumulate(run, out=run)
        else:
            prev_best = best
            i = lo + int(np.argmin(values[lo:filled]))
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


def _recombine(batch_points: Array, batch_values: Array, normalize: bool) -> Array:
    if batch_points.shape[0] == 1:
        return batch_points[0].copy()
    count, weights = isotropic_es_recombination_weights(batch_points.shape[0])
    order = np.argsort(batch_values, kind="stable")[:count]
    if normalize:
        weights = weights / np.sum(weights)
    return weights @ batch_points[order]


def run_isotropic_es(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Evolution strategy with a fixed isotropic covariance.

    Each iteration samples B points around the current mean, ranks the batch
    by objective value, and recombines the best floor(B/2) points with
    rank-based weights.  Unlike the softmin drivers, the mean update uses the
    current batch only.

    By default the recombination weights are normalized to sum to 1 so the
    update is a weighted mean; set ``normalize_es_weights=False`` for the raw
    (unnormalized) rank weights.
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
                estimates[next_cp] = _recombine(
                    batch[:m], batch_values[:m], config.normalize_es_weights
                )
            elif c == filled + b:
                estimates[next_cp] = _recombine(
                    batch, batch_values, config.normalize_es_weights
                )
            else:
                estimates[next_cp] = mu
            next_cp += 1

        filled += b
        if next_cp and checkpoints[next_cp - 1] == filled:
            mu = estimates[next_cp - 1].copy()
        else:
            mu = _recombine(batch, batch_values, config.normalize_es_weights)

    trace = RunTrace(
        checkpoints=checkpoints,
        estimates=estimates,
        squared_errors=_squared_errors(estimates, objective),
    )
    return mu, trace
