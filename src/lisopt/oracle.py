"""Brute-force validation of the tempered measure pi_alpha ~ exp(-alpha f).

Deterministic composite-Simpson quadrature on a tensor grid (d <= 2 only).
This is the independent oracle used to validate the sampling-based estimator
and to exercise the O(1/alpha) concentration of the tempered mean around the
minimizer.

Integrands are computed in shifted log space (shift = grid minimum of f) and
exponentiated, so the same anti-underflow discipline applies as in the
estimator core; the shift cancels algebraically in every ratio.

``f`` is an :class:`~lisopt.objectives.Objective` of the box's dimension,
evaluated with one ``evaluate_batch`` call per grid and temperature, so its
``eval_count`` grows by the node count each time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .estimators import _count, _one_blas_thread, _positive_finite, _real
from .objectives import Objective

Array = np.ndarray


class QuadratureError(RuntimeError):
    """Quadrature could not produce a trustworthy value."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Axis-aligned box, per-dimension grid size (odd), and temperature.

    The spec keeps its own copy of the box, a tuple of (lo, hi) float pairs,
    and the float of its temperature.
    """

    domain: Tuple[Tuple[float, float], ...]
    grid_points: int = 1601
    alpha: float = 1.0

    def __post_init__(self):
        box = [[_real("domain box", x, "be finite and nonempty") for x in (lo, hi)] for lo, hi in self.domain]
        object.__setattr__(self, "domain", tuple(map(tuple, box)))
        if not 1 <= len(self.domain) <= 2:
            raise ValueError("quadrature supports d in {1, 2} only")
        if not all(lo < hi for lo, hi in self.domain):
            raise ValueError("domain box must be finite and nonempty")
        if _count("grid_points", self.grid_points, 3) % 2 == 0:
            raise ValueError(f"grid_points must be odd, got {self.grid_points!r}")
        object.__setattr__(self, "alpha", _positive_finite("alpha", self.alpha))

    @property
    def dimension(self) -> int:
        return len(self.domain)


def _simpson_weights(m: int, lo: float, hi: float) -> Tuple[Array, Array]:
    x = np.linspace(lo, hi, m)
    h = (hi - lo) / (m - 1)
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return x, w * (h / 3.0)


def _grid(spec: QuadratureSpec):
    """Grid nodes (N, d) and Simpson weights (N,)."""
    xs, ws = zip(*(_simpson_weights(spec.grid_points, lo, hi) for lo, hi in spec.domain))
    nodes = np.stack([g.ravel() for g in np.meshgrid(*xs, indexing="ij")], axis=1)
    weights = functools.reduce(np.multiply.outer, ws).ravel()
    return nodes, weights


def _check_objective(f: Objective, dimension: int) -> None:
    if not isinstance(f, Objective):
        raise TypeError(f"the oracle evaluates an Objective, got {type(f).__name__}")
    if f.dimension != dimension:
        raise ValueError(f"the objective has dimension {f.dimension} but the box has dimension {dimension}")


def gibbs_mean(f: Objective, spec: QuadratureSpec, *,
               grid: Optional[Tuple[Array, Array]] = None) -> Array:
    """Mean of the tempered measure pi_alpha restricted to the box.

    Invariant under adding a constant to f: the shift cancels exactly.
    ``grid``, when given, is ``spec``'s nodes and Simpson weights, built once
    by a caller that evaluates several temperatures on one grid.
    """
    _check_objective(f, spec.dimension)
    nodes, weights = _grid(spec) if grid is None else grid
    values = f.evaluate_batch(nodes)
    if not np.all(np.isfinite(values)):  # +inf: the Objective refuses NaN and -inf
        raise QuadratureError("objective is non-finite on the quadrature box")
    shift = float(np.min(values))
    # At a huge alpha the exponent overflows to -inf away from the minimum,
    # and the factor underflows to its exact limit, 0.
    with np.errstate(over="ignore"):
        integrand = np.exp(-spec.alpha * (values - shift))
    z = float(_one_blas_thread(np.dot, weights, integrand))
    if z <= 0.0 or not math.isfinite(z):
        raise QuadratureError(
            "normalizer underflowed after shifting; enlarge the box"
        )
    return _one_blas_thread(np.matmul, weights * integrand, nodes) / z


def laplace_gap(
    f: Objective,
    minimizer,
    domain: Tuple[Tuple[float, float], ...],
    alphas: Sequence[float],
    grid_points: int = 1601,
) -> Array:
    """|| tempered mean - minimizer || for each temperature in ``alphas``;
    ``minimizer`` has one coordinate per side of ``domain`` (a number in 1-d).

    For smooth objectives with a generic third derivative at the minimizer
    the gap decays like 1/alpha; for a pure quadratic it is exactly zero
    (the tempered measure is a centered Gaussian).
    """
    _check_objective(f, len(domain))
    minimizer = np.atleast_1d(np.asarray(minimizer, dtype=float))
    if minimizer.shape != (len(domain),):
        raise ValueError(f"minimizer has shape {minimizer.shape} but the box has shape ({len(domain)},)")
    if not np.isfinite(minimizer).all():
        raise ValueError(f"minimizer must be finite, got {minimizer}")
    specs = [QuadratureSpec(domain, grid_points, alpha) for alpha in alphas]
    if any(s2.alpha <= s1.alpha for s1, s2 in zip(specs, specs[1:])):
        raise ValueError("alphas must be strictly increasing")
    gaps = np.empty(len(specs))
    if specs:  # one grid serves every temperature, so no call may change it
        grid = _grid(specs[0])
        grid[0].flags.writeable = False
    for i, spec in enumerate(specs):
        mean = gibbs_mean(f, spec, grid=grid)
        gaps[i] = float(np.linalg.norm(mean - minimizer))
    return gaps


# x^2 + 0.2 x^3 in 1-d: a quadratic whose third derivative does not vanish.
# Its unique minimum on CUBIC_DOMAIN, [-3, 3], is 0 at the origin (on [-6, 6]
# the cubic term puts it at the edge), making it the standard test case for
# the 1/alpha concentration law, which a pure quadratic (zero gap) cannot show.
def _cubic_batch(points: Array) -> Array:
    x = points[:, 0]
    return x * x + 0.2 * x**3


cubic_perturbed_quadratic = Objective(1, _cubic_batch, known_minimizer=np.zeros(1), name="quad-cubic")
CUBIC_DOMAIN = ((-3.0, 3.0),)
