import math
from types import SimpleNamespace

import numpy as np
import pytest

from lisopt import (
    EvaluationError,
    IsotropicGaussian,
    Objective,
    QuadratureError,
    QuadratureSpec,
    benchmark,
    cubic_perturbed_quadratic,
    gibbs_mean,
    laplace_gap,
    laplace_log_weights,
    make_rng,
    normalized_weights,
)
from lisopt import oracle
from lisopt.oracle import CUBIC_DOMAIN


def test_gibbs_mean_at_a_huge_temperature_is_the_grid_minimizer():
    # No overflow warning: the suite turns every RuntimeWarning into an error.
    mean = gibbs_mean(cubic_perturbed_quadratic, QuadratureSpec(CUBIC_DOMAIN, 1601, 1e308))
    assert np.array_equal(mean, [0.0])


def test_cubic_takes_exactly_one_coordinate():
    assert isinstance(cubic_perturbed_quadratic, Objective)
    assert cubic_perturbed_quadratic(np.array([2.0])) == cubic_perturbed_quadratic([2.0]) == 5.6
    assert np.array_equal(cubic_perturbed_quadratic.known_minimizer, [0.0])
    for x, shape in ((2.0, r"\(\)"), ([1.0, 5.0], r"\(2,\)")):
        with pytest.raises(EvaluationError, match=f"got shape {shape}"):
            cubic_perturbed_quadratic(x)


def refuse_grids(monkeypatch):
    """Make building a quadrature grid fail, to show a check runs before it."""
    def no_grid(spec):
        raise AssertionError("built a grid")
    monkeypatch.setattr(oracle, "_grid", no_grid)


@pytest.mark.parametrize("call", [
    lambda f: gibbs_mean(f, QuadratureSpec(((-3.0, 3.0), (-3.0, 3.0)), 1601, 4.0)),
    lambda f: laplace_gap(f, [0.0, 0.0], ((-3.0, 3.0), (-3.0, 3.0)), [4.0, 8.0]),
], ids=["gibbs_mean", "laplace_gap"])
def test_oracle_refuses_an_objective_of_another_dimension_before_its_grid(monkeypatch, call):
    # A 2-d box would hand the 1-d cubic two coordinates per node at each of
    # its 1601**2 nodes; the dimensions are compared first.
    refuse_grids(monkeypatch)
    with pytest.raises(ValueError, match="objective has dimension 1 but the box has dimension 2"):
        call(cubic_perturbed_quadratic)


@pytest.mark.parametrize("f", [
    lambda x: float(np.sum(np.asarray(x) ** 2)),
    math.fabs,
    # Duck-typed: the attributes of an Objective, but not its checks.
    SimpleNamespace(dimension=1, evaluate_batch=lambda P: np.sum(P * P, axis=1)),
], ids=["lambda", "builtin", "duck_typed"])
def test_oracle_evaluates_only_an_objective(monkeypatch, f):
    refuse_grids(monkeypatch)
    with pytest.raises(TypeError, match="the oracle evaluates an Objective"):
        gibbs_mean(f, QuadratureSpec(((-1.0, 1.0),), 11, 1.0))
    with pytest.raises(TypeError, match="the oracle evaluates an Objective"):
        laplace_gap(f, [0.0], ((-1.0, 1.0),), [1.0], grid_points=11)


def quadratic():
    return benchmark("sphere", 1)


def test_spec_keeps_its_own_copy_of_the_box():
    domain = [[-3, 3.0]]
    spec = QuadratureSpec(domain, 5, 1.0)
    domain[0][1] = -5.0  # the caller's list, not the spec's
    assert spec.domain == ((-3.0, 3.0),) and type(spec.domain[0][0]) is float


def test_the_shared_cubic_minimizer_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        cubic_perturbed_quadratic.known_minimizer[0] = 1.0
    gaps = laplace_gap(cubic_perturbed_quadratic, cubic_perturbed_quadratic.known_minimizer,
                       CUBIC_DOMAIN, [4.0, 8.0], grid_points=401)
    assert gaps == pytest.approx([0.0400, 0.0193], abs=1e-4)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(domain=((0.0, 1.0),) * 3)  # d > 2
    with pytest.raises(ValueError):
        QuadratureSpec(domain=((1.0, 0.0),))
    with pytest.raises(ValueError, match="^grid_points must be odd, got 4$"):
        QuadratureSpec(domain=((0.0, 1.0),), grid_points=4)
    for grid_points in (5.5, 5.0, "5", True):
        with pytest.raises(ValueError, match=f"^grid_points must be an integer, got {grid_points!r}$"):
            QuadratureSpec(domain=((0.0, 1.0),), grid_points=grid_points)
    for grid_points, message in ((1, "must be >= 3"), (2**63 + 1, r"must be at most 2\*\*63 - 1")):
        with pytest.raises(ValueError, match=f"^grid_points {message}$"):
            QuadratureSpec(domain=((0.0, 1.0),), grid_points=grid_points)
    assert QuadratureSpec(domain=((0.0, 1.0),), grid_points=np.int64(5)).grid_points == 5
    with pytest.raises(ValueError):
        QuadratureSpec(domain=((0.0, 1.0),), alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        QuadratureSpec(domain=((0.0, 1.0),), alpha=math.inf)
    with pytest.raises(ValueError, match="domain box must be finite"):
        QuadratureSpec(domain=((0.0, math.inf),))


def test_mean_symmetric_cases():
    c = 1.3
    spec = QuadratureSpec(((c - 6.0, c + 6.0),), 1601, 2.0)
    mean = gibbs_mean(Objective(1, lambda P: (P[:, 0] - c) ** 2), spec)
    assert mean[0] == pytest.approx(c, abs=1e-8)

    spec = QuadratureSpec(((-6.0, 6.0),), 1601, 1.0)
    mean = gibbs_mean(Objective(1, lambda P: P[:, 0] ** 2 + P[:, 0] ** 4), spec)
    assert mean[0] == pytest.approx(0.0, abs=1e-8)

    # 2-d, on a box off-centre around the minimizer, so the grid is not
    # symmetric about it and only the quadrature's accuracy gives the centre.
    c = np.array([1.3, -0.7])
    f = Objective(2, lambda P: (P[:, 0] - c[0]) ** 2 + 2 * (P[:, 1] - c[1]) ** 2
                  + (P[:, 1] - c[1]) ** 4)
    spec = QuadratureSpec(((c[0] - 5.0, c[0] + 7.0), (c[1] - 6.5, c[1] + 5.5)), 401, 2.0)
    assert np.allclose(gibbs_mean(f, spec), c, rtol=0, atol=1e-10)


def test_mean_regression_constant_cubic_on_wide_box():
    # Frozen from the first quadrature run of this suite.  On [-6, 6] the
    # cubic term makes the boundary the global minimum, so the tempered mass
    # at alpha = 4 sits near -6; the value is a pure regression anchor.
    spec = QuadratureSpec(((-6.0, 6.0),), 1601, 4.0)
    mean = gibbs_mean(cubic_perturbed_quadratic, spec)
    assert mean[0] == pytest.approx(-5.9731779, abs=1e-6)
    assert mean[0] < 0


def test_mean_regression_constant_cubic_local_box():
    # Frozen from the first quadrature run: tempered mean of x^2 + 0.2 x^3
    # restricted to [-3, 3] at alpha = 16.
    mean = gibbs_mean(cubic_perturbed_quadratic, QuadratureSpec(CUBIC_DOMAIN, 1601, 16.0))
    assert mean[0] == pytest.approx(-0.0095115333, abs=1e-8)


def test_mean_cross_checked_by_importance_sampling():
    # Dual-oracle agreement: deterministic quadrature vs self-normalized
    # importance sampling with a unit Gaussian proposal (points outside the
    # box get an infinite penalty, i.e. zero weight).
    alpha = 4.0
    spec = QuadratureSpec(CUBIC_DOMAIN, 1601, alpha)
    quad = gibbs_mean(cubic_perturbed_quadratic, spec)[0]

    q = IsotropicGaussian(mean=np.zeros(1), variance=1.0)
    pts = q.sample(make_rng(123), 10**7)
    x = pts[:, 0]
    vals = np.where(np.abs(x) <= 3.0, x**2 + 0.2 * x**3, np.inf)
    lw = laplace_log_weights(alpha, vals, q.log_density_batch(pts))
    p = normalized_weights(lw)
    est = float(p @ x)
    se = math.sqrt(float(np.sum(p**2 * (x - est) ** 2)))
    assert abs(est - quad) < 3 * se


def test_mean_shift_invariance():
    spec = QuadratureSpec(CUBIC_DOMAIN, 801, 8.0)
    base = gibbs_mean(cubic_perturbed_quadratic, spec)
    shifted = gibbs_mean(Objective(1, lambda P: cubic_perturbed_quadratic.evaluate_batch(P) + 10.0), spec)
    assert np.allclose(base, shifted, rtol=0, atol=1e-12)


def test_nonfinite_objective_rejected():
    spec = QuadratureSpec(((0.0, 1.0),), 11, 1.0)
    # +inf, which an Objective lets through, has no Boltzmann factor to integrate.
    with pytest.raises(QuadratureError, match="non-finite on the quadrature box"):
        gibbs_mean(Objective(1, lambda P: np.full(len(P), np.inf)), spec)
    # NaN and -inf never leave the Objective.
    for bad in (np.nan, -np.inf):
        with pytest.raises(EvaluationError, match="NaN or -inf"):
            gibbs_mean(Objective(1, lambda P: np.full(len(P), bad)), spec)


def test_laplace_gap_quadratic_is_exactly_centered():
    gaps = laplace_gap(quadratic(), [0.0], ((-8.0, 8.0),), [4.0, 8.0, 16.0, 32.0, 64.0])
    assert np.all(gaps < 1e-8)


def test_laplace_gap_needs_a_minimizer_of_the_box_dimension():
    assert laplace_gap(quadratic(), 0.0, ((-8.0, 8.0),), [4.0])[0] < 1e-8  # a scalar on a 1-d box
    sphere2 = Objective(2, lambda p: np.sum(p * p, axis=1))
    with pytest.raises(ValueError, match=r"minimizer has shape \(1,\) but the box has shape \(2,\)"):
        laplace_gap(sphere2, np.zeros(1), ((-3.0, 3.0), (-3.0, 3.0)), [4.0], grid_points=41)


@pytest.mark.parametrize("minimizer", [np.nan, np.inf, -np.inf, [0.0, np.nan]],
                         ids=["nan", "inf", "-inf", "2d_nan"])
def test_laplace_gap_refuses_a_non_finite_minimizer(monkeypatch, minimizer):
    refuse_grids(monkeypatch)  # refused before the grid, not a NaN gap after it
    f = quadratic() if np.ndim(minimizer) == 0 else Objective(2, lambda p: np.sum(p * p, axis=1))
    domain = ((-8.0, 8.0),) * f.dimension
    with pytest.raises(ValueError, match="minimizer must be finite"):
        laplace_gap(f, minimizer, domain, [4.0, 8.0], grid_points=41)


def test_laplace_gap_cubic_halving_ratios():
    gaps = laplace_gap(
        cubic_perturbed_quadratic, [0.0], CUBIC_DOMAIN, [8.0, 16.0, 32.0, 64.0]
    )
    ratios = gaps[1:] / gaps[:-1]
    assert np.all(ratios > 0.35) and np.all(ratios < 0.65)


def test_laplace_gap_monotone_decay():
    gaps = laplace_gap(
        cubic_perturbed_quadratic, [0.0], CUBIC_DOMAIN, [4.0, 8.0, 16.0, 32.0, 64.0]
    )
    assert np.all(np.diff(gaps) < 0)


def test_laplace_gap_requires_increasing_alphas():
    with pytest.raises(ValueError):
        laplace_gap(quadratic(), [0.0], ((-1.0, 1.0),), [4.0, 2.0])


class BatchCountingObjective(Objective):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_calls = 0

    def evaluate_batch(self, points):
        self.batch_calls += 1
        return super().evaluate_batch(points)


def quad_cubic_2d():
    return BatchCountingObjective(2, lambda P: np.sum(P * P + 0.2 * P**3, axis=1))


def one_node_at_a_time(objective):
    """The same values, from one call of ``objective`` per node."""
    return Objective(objective.dimension, lambda P: np.array([objective(x) for x in P]))


def test_objective_is_evaluated_one_batch_per_grid():
    domain = ((-3.0, 3.0), (-3.0, 3.0))
    spec = QuadratureSpec(domain, 41, 8.0)
    reference = quad_cubic_2d()
    per_node = gibbs_mean(one_node_at_a_time(reference), spec)
    assert reference.batch_calls == 41 * 41

    obj = quad_cubic_2d()
    assert np.array_equal(gibbs_mean(obj, spec), per_node)
    assert (obj.batch_calls, obj.eval_count) == (1, 41 * 41)

    alphas = [4.0, 8.0, 16.0, 32.0]
    obj = quad_cubic_2d()
    gaps = laplace_gap(obj, [0.0, 0.0], domain, alphas, grid_points=41)
    assert (obj.batch_calls, obj.eval_count) == (len(alphas), len(alphas) * 41 * 41)
    reference = quad_cubic_2d()
    expected = laplace_gap(one_node_at_a_time(reference), [0.0, 0.0], domain, alphas, grid_points=41)
    assert np.array_equal(gaps, expected)
