"""Optimization drivers: softmin-averaged search, random search, adaptive
variants, and an isotropic evolution strategy baseline.

All drivers share the same contract: they call the objective exactly
``budget`` times, are bit-deterministic for a fixed seed, and record an
anytime estimate (plus squared error when the minimizer is known) at a grid
of evaluation-count checkpoints.

There is one driver loop, ``_run_adaptive``, for all five methods.  They
differ only in the prefix estimator it reads at each checkpoint (the softmin
average, the best point, or the rank recombination of the last batch for the
isotropic ES) and in the batch size they pass it: ``budget`` for a static run,
``run_liso`` or ``run_random_search``, which is thus the loop's one-batch run,
one draw of ``budget`` points from q0 that a caller may pass in already
evaluated; ``config.batch_size`` for the others.  The softmin step is public
as ``liso_from_sample``, which shares the checkpoint loop.  Every driver
takes the one config class, ``AdaptiveConfig`` (``StaticConfig`` is another
name for it); ``harness`` names the methods and runs them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .distributions import (IsotropicGaussian, _draw, _equal_by_value, _log_density, _log_normalizer,
                            _rebuilt_by_value, make_rng)
from .estimators import (_checked_logq, _checked_points, _checked_values, _count, _kish_ess, _log_weights_into,
                         _normalize_into, _positive_finite, _real_array, _sq_dev_sum, _unit_interval, _weighted_sum)
from .objectives import Objective

Array = np.ndarray


def alpha_schedule(alpha0: float, n: int, d: int) -> float:
    """Temperature after n evaluations in dimension d: alpha0 * n^(2/(d+2)).

    The exponent balances the estimator's variance (which grows with the
    temperature) against the bias of the softmin relative to the true argmin
    (which shrinks with it).
    """
    alpha0, n, d = _positive_finite("alpha0", alpha0), _count("n", n), _count("d", d)
    return alpha0 * float(n) ** (2.0 / (d + 2.0))


def default_checkpoints(budget: int, count: int = 30, start: int = 100) -> Array:
    """Geometric grid of evaluation counts, deduplicated, ending at budget."""
    budget, count, start = _count("budget", budget), _count("count", count), _count("start", start)
    grid = np.geomspace(min(start, budget), budget, num=count)
    # Only points below the budget are cast: a budget above 2**53 has no exact
    # float, and the float of 2**63 - 1 is 2**63, which no int64 holds.
    below = np.rint(grid[grid < budget]).astype(int).tolist()
    return _resolve_checkpoints(below + [budget], budget)


def _resolve_checkpoints(checkpoints: Optional[Sequence[int]], budget: int) -> Array:
    """Sorted distinct checkpoints in [1, budget] ending at budget; None: the default grid."""
    if checkpoints is None:
        return default_checkpoints(budget)
    pts = [_count("checkpoints", p, None) for p in np.asarray(checkpoints, dtype=object).ravel()]
    if not pts or min(pts) < 1 or max(pts) > budget:
        raise ValueError("checkpoints must lie in [1, budget]")
    # Not np.unique: its first call imports numpy.ma, about 13 ms.
    return np.array(sorted(set(pts) - {budget}) + [budget], dtype=int)


@dataclass
class RunTrace:
    """Per-checkpoint record of the anytime estimate of the minimizer."""

    checkpoints: Array
    estimates: Array  # (num_checkpoints, d)
    squared_errors: Optional[Array] = None  # ||estimate - x*||^2 when x* known
    ess: Optional[Array] = None
    degenerate_final: bool = False


def _check_temperature(alpha0: Optional[float], fixed_alpha: Optional[float], n: int, d: int) -> Tuple:
    """``(alpha0, fixed_alpha)`` of a softmin run of n points in dimension d,
    as positive finite floats where given.  The temperature is ``fixed_alpha``
    when given, else ``alpha_schedule(alpha0, k, d)``, finite up to k = n."""
    if alpha0 is None and fixed_alpha is None:
        raise ValueError("give alpha0 or fixed_alpha")
    alpha0, fixed_alpha = (None if alpha is None else _positive_finite(name, alpha)
                           for name, alpha in (("alpha0", alpha0), ("fixed_alpha", fixed_alpha)))
    if fixed_alpha is None and not math.isfinite(alpha_schedule(alpha0, n, d)):
        raise ValueError(f"alpha0 is too large: its temperature at {n} evaluations is inf")
    return alpha0, fixed_alpha


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of every driver, checked when the config is built.

    A config is a value whose fields cannot be assigned: the counts keep
    what the caller gave, while the reals (``alpha0``, ``sigma2``,
    ``mixture_weight``, ``fixed_alpha``) and the arrays are stored as
    floats; ``dataclasses.replace`` makes a changed copy, with its own
    ``grid``.  ``sigma2``, the adapted sampler's variance, is 1/d when None,
    d being q0's dimension.  ``fixed_alpha``, when set, replaces the softmin
    drivers' temperature schedule, and ``alpha0`` is then not needed
    (``_check_temperature``).  The static drivers use one batch of
    ``budget`` points whatever ``batch_size`` says.  ``projection_box`` is
    (lo, hi): two NaN-free bounds of one shape, a scalar or one per dimension
    of q0, with lo <= hi, which the config keeps as read-only float copies.
    ``grid`` resolves the ``checkpoints`` asked for (the default grid when
    None), once: a read-only int array, sorted and distinct in [1, budget]
    and ending at budget, that every trace of the config records.  Two
    configs compare by value, their array fields element by element.
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
    grid: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, least in (("budget", 1), ("batch_size", 1), ("seed", None)):
            _count(name, getattr(self, name), least)
        alpha0, fixed_alpha = _check_temperature(self.alpha0, self.fixed_alpha, self.budget, self.q0.dimension)
        self.__dict__.update(alpha0=alpha0, fixed_alpha=fixed_alpha,  # the reals, as floats
                             mixture_weight=_unit_interval("mixture_weight", self.mixture_weight),
                             sigma2=None if self.sigma2 is None else _positive_finite("sigma2", self.sigma2))
        if self.projection_box is not None:
            lo, hi = (_real_array("projection_box", a, frozen=True) for a in self.projection_box)  # read-only copies
            d = self.q0.dimension
            if lo.shape != hi.shape or lo.shape not in ((), (1,), (d,)):
                raise ValueError(f"projection_box bounds must share one shape: (), (1,) or ({d},)")
            if not np.all(lo <= hi):  # false at a NaN bound too
                raise ValueError("projection_box must be nonempty, with no NaN bound")
            object.__setattr__(self, "projection_box", (lo, hi))
        grid = _resolve_checkpoints(self.checkpoints, self.budget)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    __eq__ = _equal_by_value
    __reduce__ = _rebuilt_by_value


StaticConfig = AdaptiveConfig  # the static drivers take the same settings


def _project(x: Array, box: Optional[Tuple[Array, Array]]) -> Array:
    if box is None:
        return x
    return np.clip(x, box[0], box[1])


class _BestPrefixes:
    """Best points of growing prefixes of one evaluated sample (random search).

    Prefixes are asked for in increasing length, so one running first argmin
    ``best`` serves them all: ties go to the lowest index.  The arrays may
    still be filling: only their first c entries are read.
    """

    degenerate = weighted = False
    mixes_and_projects = True  # later batches mix q0 in; estimates are projected

    def __init__(self, points: Array, values: Array, logq: Optional[Array]):
        self.points, self.values = points, values
        self.best, self.upto = 0, 0

    def at(self, c: int, with_ess: bool = True) -> Tuple[Array, float]:
        """The first best of the first c points, and NaN for its ESS."""
        i = self.upto + int(np.argmin(self.values[self.upto:c]))
        if self.values[i] < self.values[self.best]:  # strict: ties keep the lowest index
            self.best = i
        self.upto = c
        return self.points[self.best], math.nan


class _SoftminPrefixes(_BestPrefixes):
    """Softmin averages of growing prefixes of one evaluated sample.

    The softmin estimate post-processes a random search: ``at(c)`` advances
    the search's running best (``_BestPrefixes``), then re-weights the first
    c points in one work buffer of the sample's length: the shifted values
    ``values - values[best]``, then in place the log-weights and the
    normalized weights, so the average and the ESS come from the same
    weights.  The buffer is allocated at the first weighting, after the run's
    first log-densities and their scratch, and held for the rest of the run.
    A prefix whose values are all +inf has no weight left and falls back to
    the search's best point, its first.  The temperature of c points is
    ``fixed_alpha``, or ``alpha_schedule``'s formula computed bare: its
    arguments were checked once per run, by ``_check_temperature``.
    """

    weighted = True  # reads the sampling log-densities

    def __init__(self, points: Array, values: Array, logq: Array,
                 alpha0: Optional[float], fixed_alpha: Optional[float]):
        super().__init__(points, values, logq)
        self.logq, self.alpha0, self.fixed_alpha = logq, alpha0, fixed_alpha
        self.work = None

    @property
    def degenerate(self) -> bool:
        """Whether the last prefix asked for fell back to its best point."""
        return self.values[self.best] == math.inf

    def at(self, c: int, with_ess: bool = True) -> Tuple[Array, float]:
        """Softmin average of the first c points, and its ESS when asked (else NaN)."""
        fallback = super().at(c)  # the best point, and NaN for its ESS
        if self.degenerate:
            return fallback
        if self.work is None:
            self.work = np.empty(len(self.values))
        w = np.subtract(self.values[:c], self.values[self.best], out=self.work[:c])
        alpha = self.fixed_alpha
        if alpha is None:
            alpha = self.alpha0 * float(c) ** (2.0 / (self.points.shape[1] + 2.0))
        p = _normalize_into(_log_weights_into(w, alpha, self.logq[:c]))
        return _weighted_sum(p, self.points[:c]), (_kish_ess(p) if with_ess else math.nan)


def isotropic_es_recombination_weights(batch_size: int) -> Tuple[int, Array]:
    """Rank-based recombination weights log((B+1)/2) - log(i), i = 1..floor(B/2).

    All weights are positive because i <= floor(B/2) < (B+1)/2.
    """
    batch_size = _count("batch_size", batch_size, 2)
    count = batch_size // 2
    i = np.arange(1, count + 1, dtype=float)
    weights = math.log((batch_size + 1) / 2.0) - np.log(i)
    return count, weights


@functools.lru_cache(maxsize=64)
def _normalized_recombination_weights(batch_size: int) -> Array:
    """The recombination weights of a batch, divided by their sum; read-only."""
    weights = isotropic_es_recombination_weights(batch_size)[1]
    weights /= np.sum(weights)
    weights.flags.writeable = False
    return weights


def _recombine(batch_points: Array, batch_values: Array) -> Array:
    if batch_points.shape[0] == 1:
        return batch_points[0].copy()
    weights = _normalized_recombination_weights(batch_points.shape[0])
    order = batch_values.argsort(kind="stable")[:weights.size]
    return _weighted_sum(weights, batch_points[order])


class _RecombinePrefixes:
    """Rank recombinations of the batches of one run (the isotropic ES).

    After c points: the recombination of the first c points within batch 1
    and of the batch that c ends; inside a later batch, that of the batch
    before, which is the run's current centre.
    """

    degenerate = weighted = mixes_and_projects = False  # samples N(mu, sigma2 I), never projects

    def __init__(self, points: Array, values: Array, logq: None, batch_size: int):
        self.points, self.values, self.batch_size = points, values, batch_size

    def at(self, c: int, with_ess: bool = True) -> Tuple[Array, float]:
        """The ES estimate after c points, and NaN for its ESS."""
        B = self.batch_size
        lo = (c - 1) // B * B
        if lo > 0 and c < min(lo + B, len(self.values)):
            lo, c = lo - B, lo
        return _recombine(self.points[lo:c], self.values[lo:c]), math.nan


def _checked_sample(points, values, shape=None) -> Tuple[Array, Array]:
    """A random search's record as float arrays, checked: finite points, of
    ``shape`` when given, and one finite or +inf value per point."""
    points = _checked_points(points)
    if shape is not None and points.shape != shape:
        raise ValueError(f"the sample must hold {shape[0]} points of dimension {shape[1]}")
    return points, _checked_values(values, len(points))


def _record(trace: RunTrace, prefixes, k: int, filled: int, box=None) -> int:
    """The checkpoint loop: records the estimate of ``prefixes``, projected
    into ``box``, and its ESS at each checkpoint from the k-th on that the
    first ``filled`` points reach, and whether the last one fell back to its
    argmin point; returns the index of the next checkpoint."""
    checkpoints = trace.checkpoints
    while k < checkpoints.size and checkpoints[k] <= filled:
        est, trace.ess[k] = prefixes.at(int(checkpoints[k]))
        trace.estimates[k] = _project(est, box)
        k += 1
    trace.degenerate_final = prefixes.degenerate
    return k


def _blank_trace(checkpoints: Array, d: int) -> RunTrace:
    return RunTrace(checkpoints, np.empty((checkpoints.size, d)), ess=np.empty(checkpoints.size))


def liso_from_sample(
    points,
    values,
    checkpoints: Optional[Sequence[int]] = None,
    *,
    logq=None,
    alpha0: Optional[float] = None,
    fixed_alpha: Optional[float] = None,
) -> RunTrace:
    """The paper's static estimate on top of a random search's own record.

    ``points`` (n, d) are the sampled points in draw order and ``values``
    their objective values (+inf is a zero-weight sentinel).  ``logq`` is the
    sampler's log-density at each point; leave it out only for a uniform
    sampler.  At each checkpoint k (default: the geometric grid; n is always
    the last) the trace holds the softmin average of the first k points at
    temperature ``alpha_schedule(alpha0, k, d)``, or ``fixed_alpha`` when
    given, and its ESS; a prefix whose values are all +inf falls back to its
    argmin point.  Nothing is evaluated; ``run_liso`` gives the same
    estimates on one draw from q0.
    """
    points, values = _checked_sample(points, values)
    n = len(points)
    logq = np.zeros(n) if logq is None else _checked_logq(logq, n)
    alpha0, fixed_alpha = _check_temperature(alpha0, fixed_alpha, n, points.shape[1])
    trace = _blank_trace(_resolve_checkpoints(checkpoints, n), points.shape[1])
    prefixes = _SoftminPrefixes(points, values, logq, alpha0, fixed_alpha)
    _record(trace, prefixes, 0, n)
    return trace


def _draw_q0(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, Array]:
    """The draw the static methods post-process: ``budget`` i.i.d. points
    from q0 and their values, the one batch ``_run_adaptive`` would draw."""
    points = config.q0.sample(make_rng(config.seed), config.budget)
    return points, objective.evaluate_batch(points)


def _run_adaptive(objective: Objective, config: AdaptiveConfig, batch_size: int, estimator, *args,
                  sample: Optional[Tuple[Array, Array]] = None):
    """The one driver loop, of all five methods.

    Batches of ``batch_size`` points, the driver's argument (the config's
    field is not read), are drawn from q_{k-1}; the first batch comes from q0
    itself, later batches from (1 - lambda) N(mu_{k-1}, sigma2 I) + lambda q0,
    and estimates are projected into the config's box; an estimator that is not
    ``mixes_and_projects`` (the ES) draws N(mu_{k-1}, sigma2 I)'s own stream, unprojected.
    ``estimator(points, values, logq, *args)`` is the method's prefix
    estimator over the run's record; it gives the estimate at each checkpoint
    and, after each batch, the next center.  Every batch, the one batch of a
    static run (``batch_size`` = budget) included, is drawn straight into its
    rows of the record (``_draw(..., out)``, the bits of a fresh draw), so no
    point is copied; no batch builds a policy, as the run's triples of q0 and
    N(mu, sigma2 I) feed ``_draw`` and ``_log_density``.  Objective values, and
    sampling log-densities when the estimator is ``weighted``, are cached once
    per point and validated when the batch is evaluated; the log-densities are
    written into the record too (``_log_density(..., out)``) and checked
    there.  A checkpoint that falls on a batch boundary also serves as the
    next center.

    ``sample``, when given, is a static run's ``(points, values)``, already
    evaluated; it is checked once and is itself the record, which the run
    never writes to: only the q0 log-densities are added.
    """
    d = objective.dimension
    if config.q0.dimension != d:
        raise ValueError(f"q0 has dimension {config.q0.dimension} but the objective has dimension {d}")
    n, batch_size = int(config.budget), int(batch_size)  # a numpy integer count would overflow below
    box = config.projection_box if estimator.mixes_and_projects else None
    sigma2 = 1.0 / config.q0.dimension if config.sigma2 is None else config.sigma2
    q0, log_normalizer = config.q0._component, _log_normalizer(d, sigma2)  # once per run
    mixture_weight = config.mixture_weight if estimator.mixes_and_projects else 0.0
    rng = make_rng(config.seed)
    trace = _blank_trace(config.grid, d)
    if sample is None:
        points, values = np.empty((n, d)), np.empty(n)
    else:
        points, values = _checked_sample(*sample, shape=(n, d))
    logq = np.empty(n) if estimator.weighted else None
    prefixes = estimator(points, values, logq, *args)

    mu = None
    filled = next_cp = 0
    while filled < n:
        b = min(batch_size, n - filled)
        weight, adapted = (0.0, q0) if mu is None else (mixture_weight, (mu, sigma2, log_normalizer))
        lo, filled = filled, filled + b
        if sample is None:
            values[lo:filled] = objective.evaluate_batch(_draw(rng, b, weight, adapted, q0, points[lo:filled]))
        if logq is not None:
            _checked_logq(_log_density(points[lo:filled], weight, adapted, q0, logq[lo:filled]), b)

        next_cp = _record(trace, prefixes, next_cp, filled, box)
        if next_cp and trace.checkpoints[next_cp - 1] == filled:
            mu = trace.estimates[next_cp - 1].copy()
        else:
            mu = _project(prefixes.at(filled, with_ess=False)[0], box)

    if objective.known_minimizer is not None:
        trace.squared_errors = _sq_dev_sum(trace.estimates, objective.known_minimizer)
    if not estimator.weighted:
        trace.ess = None
    return mu, trace


def run_adaptive_liso(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Adaptive softmin averaging: each batch recenters the sampler at the
    current weighted-average estimate, preserving a fixed exploration mixture.
    """
    return _run_adaptive(objective, config, config.batch_size, _SoftminPrefixes,
                         config.alpha0, config.fixed_alpha)


def run_adaptive_random_search(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Adaptive random search: like adaptive softmin averaging, but the
    sampler recenters at the best point seen so far instead of the average.
    """
    return _run_adaptive(objective, config, config.batch_size, _BestPrefixes)


def run_liso(objective: Objective, config: AdaptiveConfig,
             sample: Optional[Tuple[Array, Array]] = None) -> Tuple[Array, RunTrace]:
    """Static softmin averaging: the driver loop's one-batch run.

    One i.i.d. batch of ``budget`` points from q0, evaluated and weighted by
    its q0 log-densities.  At each checkpoint k the trace shows the anytime
    estimator: softmin average of the first k samples at temperature
    alpha_schedule(alpha0, k, d), or ``fixed_alpha``, as ``liso_from_sample``
    computes it.  Degenerate weights (all -inf) fall back to the argmin
    sample.  ``sample``, when given, is that draw's ``(points, values)``,
    already made, and nothing is evaluated.
    """
    return _run_adaptive(objective, config, config.budget, _SoftminPrefixes,
                         config.alpha0, config.fixed_alpha, sample=sample)


def run_random_search(objective: Objective, config: AdaptiveConfig,
                      sample: Optional[Tuple[Array, Array]] = None) -> Tuple[Array, RunTrace]:
    """Plain random search: the best point of one draw from q0, the driver
    loop's one-batch run.

    It reads the same sample stream as run_liso (same seed, same policy),
    which enables paired comparisons and lets the two share one ``sample``,
    checked the same way.  Ties go to the lowest sample index.
    """
    return _run_adaptive(objective, config, config.budget, _BestPrefixes, sample=sample)


def run_isotropic_es(objective: Objective, config: AdaptiveConfig) -> Tuple[Array, RunTrace]:
    """Evolution strategy with a fixed isotropic covariance.

    Each iteration samples B points around the current mean, ranks the batch
    by objective value, and recombines the best floor(B/2) points with
    rank-based weights normalized to sum to 1.  Unlike the softmin drivers,
    the mean update uses the current batch only.  The ES ignores
    ``mixture_weight`` and ``projection_box``: it always samples
    N(mean, sigma2 I) after the first batch and never projects.
    """
    batch_size = _count("batch_size", config.batch_size, 2)
    return _run_adaptive(objective, config, batch_size, _RecombinePrefixes, batch_size)
