"""Softmin importance weights and the self-normalized weighted average.

All weight arithmetic happens in log space with a max shift; the raw ratio
exp(-alpha f) / q is never formed.  The temperature grows polynomially with
the sample count, so forming it directly would underflow double precision
long before the interesting regime.

Each formula is implemented once, as an in-place step on a caller-owned
buffer: ``_log_weights_into``, ``_normalize_into``, ``_weighted_sum`` and
``_kish_ess``.  ``_row_sum`` is the fixed-order row sum that the objectives
use on their (n, d) arrays, with numpy's bits.  ``_sq_dev_sum`` is its sum of
squared deviations, sum_j (x_ij - c_j)^2, with the same bits: below eight
columns it squares and adds one column at a time into an (n,) result, so the
sphere, the rms term of Ackley and the Gaussian log-density make no (n, d)
temporary.  The public functions validate their inputs and run these steps
on fresh arrays.

Each rule on the inputs is written once, here, and every other module calls
it, so only this one tells what a number is: ``_count`` for a count or a
seed, ``_real`` for a real, ``_positive_finite`` for a temperature or a
variance and ``_unit_interval`` for a mixture weight (each returns an int or
a float), ``_checked_points`` for a nonempty (n, d) array of finite points,
``_checked_values`` for one finite or +inf value per point, and
``_checked_logq`` for one finite log-density per point.
``_checked_log_weights``, which every public function of log-weights goes
through, takes a nonempty 1-d array and refuses a NaN or +inf log-weight;
the average and the bootstrap check their points and log-weights together
(``_checked_pairs``), the bootstrap once for all its resamples.  The
softmin drivers validate values and log-densities once, when each batch is
evaluated, not on every re-weighting; they anchor each prefix at its first
best value, ``values[best]``, and run the steps on one work buffer per run,
which holds the shifted values ``values - values[best]`` and then, in
place, the weights.

``_one_blas_thread`` runs a BLAS product on one OpenBLAS thread.  Every BLAS
product in lisopt goes through it, so output bits do not depend on the
thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import threading
from typing import Optional, Tuple

import numpy as np

Array = np.ndarray


# Rows per block of the weighted average.  Blocks alone do not make a sum
# independent of the BLAS thread count (at d=12 a 1e5-row block differs
# between one and two OpenBLAS threads); ``_one_blas_thread`` does.  The
# blocks stay because runs over 1e5 points have recorded bits with blocked
# sums.
_AVERAGE_BLOCK_ROWS = 100_000

# Held while a product runs on one thread: the OpenBLAS thread count is
# process-wide, so two threads saving and restoring it at once could leave
# either product, or the caller, with the other's count.
_BLAS_LOCK = threading.Lock()

# The largest count: counts size and index numpy arrays, whose indices are int64.
_INT64_MAX = 2**63 - 1


class DegenerateWeightsError(ValueError):
    """Every log-weight is -inf; the caller decides the fallback."""


def _log_weights_into(shifted: Array, alpha: float, logq: Array) -> Array:
    """shifted = shifted * -alpha - logq, in place; returns ``shifted``.

    ``shifted`` holds ``values - ref`` for a finite ``ref``.  A +inf value
    maps to a -inf log-weight.  ``shifted >= 0`` and ``alpha > 0``, so a
    product that overflows is -inf, whose weight is exactly 0 after the max
    shift, as the product's own would be; the reference point's 0 keeps some
    weight finite.
    """
    with np.errstate(over="ignore"):
        np.multiply(shifted, -alpha, out=shifted)
    shifted -= logq
    return shifted


def _normalize_into(w: Array) -> Array:
    """Max-shifted softmax of the log-weights in ``w``, in place; returns ``w``."""
    m = w.max()
    if m == -np.inf:
        raise DegenerateWeightsError("all log-weights are -inf")
    w -= m
    np.exp(w, out=w)
    w /= w.sum()
    return w


@functools.cache
def _openblas_thread_calls():
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS bundled with
    numpy, or None when numpy uses another BLAS build.

    Looked up on first use, not at import: numpy loads the library privately,
    so its symbols are found through numpy's own extension module.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _one_blas_thread(product, *args):
    """``product(*args)`` with OpenBLAS on one thread; the caller's thread
    count is restored afterwards.

    OpenBLAS splits a large product across threads, and the split changes
    the summation order, so the one-thread result is the canonical bits that
    every machine reproduces.  Without numpy's bundled OpenBLAS this only
    runs the product; on one thread already, it sets nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        return product(*args)
    get, set_ = calls
    with _BLAS_LOCK:
        threads = get()
        if threads == 1:
            return product(*args)
        set_(1)
        try:
            return product(*args)
        finally:
            set_(threads)


def _blocked_sum(p: Array, points: Array) -> Array:
    b = _AVERAGE_BLOCK_ROWS
    total = p[:b] @ points[:b]
    for start in range(b, p.size, b):
        total += p[start:start + b] @ points[start:start + b]
    return total


def _weighted_sum(p: Array, points: Array) -> Array:
    """p @ points, summed over fixed blocks of rows added in order, on one
    BLAS thread, so its bits do not depend on the thread count."""
    return _one_blas_thread(_blocked_sum, p, points)


# Row length from which numpy sums a row pairwise, with eight accumulators;
# shorter rows it sums left to right.
_PAIRWISE_ROW = 8


def _row_sum(a: Array) -> Array:
    """np.sum(a, axis=1) for a 2-d float array, with the same bits, faster at small d.

    Below eight elements per row numpy sums each row left to right, starting
    from +0.0, but it enters its reduction loop once per row, which dominates
    when d is tiny.  Adding whole columns in order gives the same roundings
    with one pass per column; starting from ``a[:, 0] + 0.0`` turns a -0.0
    into +0.0 as numpy's start value does.  From eight elements on numpy sums
    pairwise with eight accumulators, a different order, so ``np.sum`` is
    called as it is.
    """
    d = a.shape[1]
    if d >= _PAIRWISE_ROW:
        return np.sum(a, axis=1)
    out = a[:, 0] + 0.0
    for j in range(1, d):
        out += a[:, j]
    return out


def _sq_dev_sum(x: Array, c: Optional[Array] = None, out: Optional[Array] = None) -> Array:
    """sum_j (x_ij - c_j)^2 for each row of a 2-d float array (c = 0 when
    None), into ``out`` when given; the bits of ``_row_sum((x - c) ** 2)``.

    Below eight columns each column is squared into one (m,) scratch vector
    and added to the result in order, so every element sees the same
    subtraction, product and additions as in ``_row_sum``; a square is never
    -0.0, so no +0.0 start is needed.  From eight on numpy's pairwise row sum
    needs whole rows, so the (m, d) squares are formed, as ``_row_sum`` does.
    """
    d = x.shape[1]
    if d >= _PAIRWISE_ROW:
        if c is None:
            y = x * x
        else:
            y = x - c
            y *= y
        return np.sum(y, axis=1, out=out)

    def square(j, into):
        if c is None:
            return np.multiply(x[:, j], x[:, j], out=into)
        into = np.subtract(x[:, j], c[j], out=into)
        return np.multiply(into, into, out=into)

    out = square(0, out)
    scratch = np.empty_like(out) if d > 1 else None
    for j in range(1, d):
        out += square(j, scratch)
    return out


def _kish_ess(p: Array) -> float:
    """1 / sum(p_i^2) for normalized weights p, squared in place in ``p``:
    the caller has taken what it needs of the weights already."""
    p *= p
    return float(1.0 / p.sum())


def _count(name: str, x, least: Optional[int] = 1) -> int:
    """``x`` as an int: an ``int`` or numpy integer, not a bool, from ``least``
    to 2**63 - 1, the rule for a count; any integer when ``least`` is None,
    the rule for a seed.  Raises ValueError naming ``name`` otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if least is not None and not least <= x <= _INT64_MAX:
        raise ValueError(f"{name} must be >= {least}" if x < least else f"{name} must be at most 2**63 - 1")
    return int(x)


def _real(name: str, x, rule: str = "be finite", holds=math.isfinite) -> float:
    """``x`` as a float: a ``numbers.Real`` (an int, a Fraction, a numpy
    number) that is not a bool and whose float ``holds``, finite by default.
    Raises ValueError "``{name} must {rule}``" (or "be a real number") otherwise."""
    if isinstance(x, bool) or not isinstance(x, (float, int, numbers.Real)):  # the ABC test is the slow one
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        f = float(x)
    except OverflowError:  # an integer or a fraction beyond the float range
        raise ValueError(f"{name} must {rule}, got a number beyond the float range") from None
    if not holds(f):
        raise ValueError(f"{name} must {rule}, got {x!r}")
    return f


def _positive_finite(name: str, x) -> float:
    """``x`` as a float (``_real``), positive and finite: the rule for a temperature or a variance."""
    return _real(name, x, "be positive and finite", lambda f: f > 0.0 and math.isfinite(f))


def _unit_interval(name: str, x) -> float:
    """``x`` as a float (``_real``) in [0, 1]: the rule for a mixture weight."""
    return _real(name, x, "lie in [0, 1]", lambda w: 0.0 <= w <= 1.0)


def _checked_points(points) -> Array:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 1 or not np.isfinite(points).all():
        raise ValueError("points must be a nonempty (n, d) array of finite numbers")
    return points


def _checked_values(values, n: int) -> Array:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,) or not (values > -np.inf).all():  # no NaN, no -inf
        raise ValueError("values must hold one finite or +inf number per point")
    return values


def _checked_logq(logq, n: int) -> Array:
    logq = np.asarray(logq, dtype=float)
    if logq.shape != (n,) or not np.isfinite(logq).all():
        raise ValueError("sample log-densities must be finite, one per point")
    return logq


def laplace_log_weights(alpha: float, values: Array, sample_log_densities: Array) -> Array:
    """Log importance weights  -alpha * (f(X^i) - min_j f(X^j)) - log q(X^i).

    The best value is subtracted before scaling by alpha.  Under
    self-normalization this common constant is free, and anchoring the
    weights at the best value keeps the alpha multiplication small in
    magnitude, so additive shifts of the objective cancel exactly instead of
    being amplified by alpha through floating-point rounding.

    ``alpha`` is positive and finite, and each value has a finite
    log-density.  ``values`` may contain +inf as a zero-weight sentinel
    (infinite penalty), which maps to a -inf log-weight.  If every value is
    +inf, all log-weights are -inf; downstream consumers raise
    :class:`DegenerateWeightsError`.
    """
    alpha = _positive_finite("alpha", alpha)
    values = _checked_values(values, np.size(values))
    logq = _checked_logq(sample_log_densities, values.size)
    ref = values.min() if values.size else np.inf
    if ref == np.inf:
        return np.full(values.shape, -np.inf)
    return _log_weights_into(values - ref, alpha, logq)


def _checked_log_weights(log_weights) -> Array:
    """A float copy of a nonempty 1-d array of log-weights, each finite or -inf."""
    w = np.array(log_weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"log-weights must be a nonempty 1-d array, got shape {w.shape}")
    if not (w < np.inf).all():  # no NaN, no +inf
        raise ValueError("log-weights must be finite or -inf")
    return w


def _checked_pairs(points, log_weights) -> Tuple[Array, Array]:
    """Finite (n, d) points and a float copy of one log-weight per row."""
    points, lw = _checked_points(points), _checked_log_weights(log_weights)
    if lw.size != len(points):
        raise ValueError("points must be (n, d) with one log-weight per row")
    return points, lw


def normalized_weights(log_weights: Array) -> Array:
    """Max-shifted softmax of the log-weights, each finite or -inf;
    nonnegative, sums to 1."""
    return _normalize_into(_checked_log_weights(log_weights))


def self_normalized_average(points: Array, log_weights: Array) -> Array:
    """Weighted average of the rows of ``points`` under softmax weights.

    The result is a convex combination of the points, and adding any constant
    to all log-weights leaves it unchanged (self-normalization): objective
    shifts and unknown normalizers cancel.  The sum runs on one BLAS thread,
    so its bits do not depend on the thread count.
    """
    points, lw = _checked_pairs(points, log_weights)
    return _weighted_sum(_normalize_into(lw), points)


def effective_sample_size(log_weights: Array) -> float:
    """1 / sum(p_i^2) for the normalized weights p; lies in [1, n].

    Diagnostic only: low values signal importance-weight degeneracy.
    """
    return _kish_ess(normalized_weights(log_weights))


def bootstrap_stderr(
    points: Array,
    log_weights: Array,
    rng: np.random.Generator,
    resamples: int = 200,
) -> Array:
    """Componentwise bootstrap standard error of the weighted average.

    Resamples the (point, log-weight) pairs with replacement and recomputes
    the estimator per resample, with the bits of ``self_normalized_average``.
    The inputs are checked once, before the first resample draws from ``rng``,
    and so is ``resamples``: a standard error needs at least two.
    """
    _count("resamples", resamples, 2)
    points, lw = _checked_pairs(points, log_weights)
    n = len(points)
    estimates = np.empty((resamples, points.shape[1]))
    for b in range(resamples):
        idx = rng.integers(0, n, size=n)
        estimates[b] = _weighted_sum(_normalize_into(lw[idx]), points[idx])
    return np.std(estimates, axis=0, ddof=1)
