"""Brute-force validation of the tempered measure pi_alpha ~ exp(-alpha f).

Deterministic composite-Simpson quadrature on a tensor grid (d <= 2 only).
This is the independent oracle used to validate the sampling-based estimator
and to exercise the O(1/alpha) concentration of the tempered mean around the
minimizer.

Integrands are computed in shifted log space (shift = grid minimum of f) and
exponentiated, so the same anti-underflow discipline applies as in the
estimator core; the shift cancels algebraically in every ratio.

``f`` is either a plain per-point callable, called once per grid node, or an
:class:`~lisopt.objectives.Objective`, evaluated with one ``evaluate_batch``
call per grid (so its ``eval_count`` grows by the node count per grid).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .estimators import _one_blas_thread, _positive_finite

Array = np.ndarray


class QuadratureError(RuntimeError):
    """Quadrature could not produce a trustworthy value."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Axis-aligned box, per-dimension grid size (odd), and temperature."""

    domain: Tuple[Tuple[float, float], ...]
    grid_points: int = 1601
    alpha: float = 1.0

    def __post_init__(self):
        d = len(self.domain)
        if d < 1 or d > 2:
            raise ValueError("quadrature supports d in {1, 2} only")
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("domain box must be finite and nonempty")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and >= 3")
        _positive_finite("alpha", self.alpha)

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


def _shifted_boltzmann(f: Callable, nodes: Array, alpha: float) -> Array:
    """exp(-alpha (f - shift)) at each node, shift being the min of f on the nodes."""
    evaluate_batch = getattr(f, "evaluate_batch", None)
    if evaluate_batch is not None:
        values = np.asarray(evaluate_batch(nodes), dtype=float)
    else:
        values = np.array([f(x) for x in nodes], dtype=float)
    if not np.all(np.isfinite(values)):
        raise QuadratureError("objective is non-finite on the quadrature box")
    shift = float(np.min(values))
    # At a huge alpha the exponent overflows to -inf away from the minimum,
    # and the factor underflows to its exact limit, 0.
    with np.errstate(over="ignore"):
        return np.exp(-alpha * (values - shift))


def gibbs_mean(f: Callable, spec: QuadratureSpec, *,
               grid: Optional[Tuple[Array, Array]] = None) -> Array:
    """Mean of the tempered measure pi_alpha restricted to the box.

    Invariant under adding a constant to f: the shift cancels exactly.
    ``grid``, when given, is ``spec``'s nodes and Simpson weights, built once
    by a caller that evaluates several temperatures on one grid.
    """
    nodes, weights = _grid(spec) if grid is None else grid
    integrand = _shifted_boltzmann(f, nodes, spec.alpha)
    z = float(_one_blas_thread(np.dot, weights, integrand))
    if z <= 0.0 or not math.isfinite(z):
        raise QuadratureError(
            "normalizer underflowed after shifting; enlarge the box"
        )
    return _one_blas_thread(np.matmul, weights * integrand, nodes) / z


def laplace_gap(
    f: Callable,
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
    minimizer = np.atleast_1d(np.asarray(minimizer, dtype=float))
    if minimizer.shape != (len(domain),):
        raise ValueError(f"minimizer has shape {minimizer.shape} but the box has shape ({len(domain)},)")
    alphas = list(alphas)
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    specs = [QuadratureSpec(domain, grid_points, alpha) for alpha in alphas]
    gaps = np.empty(len(specs))
    if specs:  # one grid serves every temperature, so no call may change it
        grid = _grid(specs[0])
        grid[0].flags.writeable = False
    for i, spec in enumerate(specs):
        mean = gibbs_mean(f, spec, grid=grid)
        gaps[i] = float(np.linalg.norm(mean - minimizer))
    return gaps


def cubic_perturbed_quadratic(x) -> float:
    """x^2 + 0.2 x^3 in 1-d: a quadratic whose third derivative does not vanish.

    On [-3, 3] its unique minimum is 0 at the origin, making it the standard
    test case for the 1/alpha concentration law (a pure quadratic has zero
    gap and cannot exercise it).  ``x`` is that one coordinate: a number or
    an array of one element.
    """
    x = np.asarray(x, dtype=float)
    if x.size != 1:
        raise ValueError(f"cubic_perturbed_quadratic takes one coordinate, got shape {x.shape}")
    v = x.item()
    return v * v + 0.2 * v**3


CUBIC_DOMAIN = ((-3.0, 3.0),)
