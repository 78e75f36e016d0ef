import math
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from lisopt import (
    AdaptiveConfig,
    IsotropicGaussian,
    MixturePolicy,
    Objective,
    StaticConfig,
    alpha_schedule,
    benchmark,
    bootstrap_stderr,
    default_checkpoints,
    derive_seed,
    isotropic_es_recombination_weights,
    effective_sample_size,
    laplace_log_weights,
    liso_from_sample,
    make_rng,
    normalized_weights,
    run_adaptive_liso,
    run_adaptive_random_search,
    run_isotropic_es,
    run_liso,
    run_random_search,
)
from lisopt import optimizers
from lisopt.estimators import _weighted_sum
from lisopt.optimizers import _normalized_recombination_weights, _recombine, _SoftminPrefixes

D4_NEAR = IsotropicGaussian(mean=np.full(4, 0.5), variance=0.25)


def shifted_sphere(shift, d):
    return Objective(
        d,
        lambda P: np.sum(P * P, axis=1) + shift,
        known_minimizer=np.zeros(d),
    )


# ----------------------------------------------------------------------
# Temperature schedule
# ----------------------------------------------------------------------

def test_alpha_schedule_spot_values():
    assert alpha_schedule(1.0, 16, 2) == pytest.approx(4.0)
    assert alpha_schedule(1.0, 1, 7) == pytest.approx(1.0)
    assert alpha_schedule(0.05, 10**4, 4) == pytest.approx(1.077217, abs=1e-6)
    with pytest.raises(ValueError):
        alpha_schedule(0.0, 10, 2)
    with pytest.raises(ValueError):
        alpha_schedule(1.0, 0, 2)


def test_default_checkpoints_grid():
    cps = default_checkpoints(10**5)
    assert cps[0] == 100 and cps[-1] == 10**5
    assert np.all(np.diff(cps) > 0)
    assert default_checkpoints(50)[-1] == 50


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget", [2**63 - 1, 2**53 + 1])
def test_default_checkpoints_grid_at_budgets_beyond_floats(budget):
    cps = default_checkpoints(budget)
    assert np.all(np.diff(cps) > 0)
    assert cps[0] >= 1 and cps[-1] == budget
    assert 2**53 not in cps.tolist()


@pytest.mark.parametrize("count,start,name", [
    (30, 0, "start"), (30, -5, "start"), (0, 100, "count"), (-1, 100, "count"),
])
def test_default_checkpoints_rejects_count_or_start_below_one(count, start, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        default_checkpoints(1000, count=count, start=start)


def test_config_resolves_its_checkpoints_once_into_a_read_only_grid():
    q0 = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    asked = [333, 10, np.int32(100), 10]
    cfg = AdaptiveConfig(budget=500, alpha0=1.0, q0=q0, seed=1, checkpoints=asked)
    assert cfg.checkpoints is asked  # the request is kept, the grid is derived
    assert cfg.grid.tolist() == [10, 100, 333, 500]
    assert cfg.grid.dtype == np.dtype(int) and not cfg.grid.flags.writeable
    default = AdaptiveConfig(budget=500, alpha0=1.0, q0=q0, seed=1)
    assert default.checkpoints is None
    assert np.array_equal(default.grid, default_checkpoints(500)) and not default.grid.flags.writeable
    for bad in ([0], [501], [], [-3, 7], [2**64]):
        with pytest.raises(ValueError, match="checkpoints must lie in"):
            AdaptiveConfig(budget=500, alpha0=1.0, q0=q0, seed=1, checkpoints=bad)
    # Integer arrays of any numpy int dtype pass; a float or a bool is refused, not truncated.
    for dtype in (np.int8, np.uint16, np.int32, np.uint64):
        assert AdaptiveConfig(budget=500, alpha0=1.0, q0=q0, seed=1,
                              checkpoints=np.array([100, 10], dtype=dtype)).grid.tolist() == [10, 100, 500]
    for bad, got in (([2.9, 7], "2.9"), ([100.0], "100.0"), (np.array([1.5, 3.0]), "1.5"),
                     ([7, True], "True"), ([np.float64(3.0)], "np.float64(3.0)")):
        with pytest.raises(ValueError, match=f"^checkpoints must be an integer, got {re.escape(got)}$"):
            AdaptiveConfig(budget=500, alpha0=1.0, q0=q0, seed=1, checkpoints=bad)
    points = np.arange(40.0).reshape(20, 2)
    with pytest.raises(ValueError, match=r"^checkpoints must be an integer, got 1\.5$"):
        liso_from_sample(points, np.zeros(20), [1.5], alpha0=1.0)
    # replace() resolves the grid anew, and configs compare by value.
    base = AdaptiveConfig(budget=1000, alpha0=1.0, q0=q0, seed=1)
    for budget in (500, 5000):
        fresh = AdaptiveConfig(budget=budget, alpha0=1.0, q0=q0, seed=1)
        assert np.array_equal(replace(base, budget=budget).grid, fresh.grid)
        assert replace(base, budget=budget) == fresh
    assert cfg == replace(cfg) and base == replace(base)
    assert base != replace(base, checkpoints=[10, 1000])
    # Gaussians compare by value too: a separately built twin of q0, and a config on it.
    twin = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    assert twin == q0 and twin is not q0
    assert AdaptiveConfig(budget=1000, alpha0=1.0, q0=twin, seed=1) == base
    assert twin != IsotropicGaussian(mean=np.ones(2), variance=1.0)
    assert twin != IsotropicGaussian(mean=np.zeros(2), variance=2.0)
    assert twin != IsotropicGaussian(mean=np.zeros(3), variance=1.0) and twin != "q0"
    assert base != replace(base, q0=IsotropicGaussian(mean=np.ones(2), variance=1.0))


def test_configs_with_array_fields_compare_by_value():
    def config(**fields):  # each call builds its own q0 and arrays
        return AdaptiveConfig(budget=1000, alpha0=1.0, q0=IsotropicGaussian(np.zeros(2), 1.0),
                              seed=1, **fields)

    def box(hi):
        return np.zeros(2), np.full(2, hi)

    assert config(projection_box=box(1.0)) == config(projection_box=box(1.0))
    assert config(projection_box=box(1.0)) != config(projection_box=box(2.0))
    assert config(projection_box=box(1.0)) != config()
    assert config(checkpoints=np.array([10, 1000])) == config(checkpoints=np.array([10, 1000]))
    assert config(checkpoints=np.array([10, 1000])) == config(checkpoints=[10, 1000])
    assert config(checkpoints=np.array([10, 1000])) != config(checkpoints=np.array([20, 1000]))
    assert config(checkpoints=np.array([10, 1000])) != config()
    assert config() != "config"


# ----------------------------------------------------------------------
# Static drivers
# ----------------------------------------------------------------------

def test_liso_single_sample_is_the_sample():
    obj = benchmark("sphere", 2)
    q0 = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    est, trace = run_liso(obj, StaticConfig(budget=1, alpha0=1.0, q0=q0, seed=5))
    sample = q0.sample(make_rng(5), 1)[0]
    assert np.array_equal(est, sample)
    assert trace.checkpoints.tolist() == [1]


def test_liso_objective_shift_invariance():
    q0 = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    cfg = StaticConfig(budget=500, alpha0=1.0, q0=q0, seed=9)
    base, _ = run_liso(shifted_sphere(0.0, 2), cfg)
    shifted, _ = run_liso(shifted_sphere(1e6, 2), cfg)
    assert np.linalg.norm(base - shifted) < 1e-10


def test_liso_recovers_gaussian_center_within_bootstrap_error():
    # With a quadratic objective and a proposal centered at the optimum, the
    # tempered measure is an exact Gaussian at c; check 3 bootstrap SEs.
    c = np.array([1.5, -0.5])
    obj = Objective(2, lambda P: np.sum((P - c) ** 2, axis=1), known_minimizer=c)
    q0 = IsotropicGaussian(mean=c, variance=1.0)
    cfg = StaticConfig(budget=10**5, alpha0=1.0, q0=q0, seed=17, fixed_alpha=50.0)
    est, _ = run_liso(obj, cfg)
    pts = q0.sample(make_rng(17), 10**5)
    lw = laplace_log_weights(
        50.0, np.sum((pts - c) ** 2, axis=1), q0.log_density_batch(pts)
    )
    se = bootstrap_stderr(pts, lw, make_rng(18), resamples=200)
    assert np.all(np.abs(est - c) < 3 * se)


def test_random_search_basics():
    obj = benchmark("sphere", 2)
    q0 = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    est, _ = run_random_search(obj, StaticConfig(budget=1, alpha0=1.0, q0=q0, seed=5))
    assert np.array_equal(est, q0.sample(make_rng(5), 1)[0])

    # argmin returns the exact best sample
    obj2 = benchmark("sphere", 2)
    n = 200
    est2, _ = run_random_search(obj2, StaticConfig(budget=n, alpha0=1.0, q0=q0, seed=6))
    pts = q0.sample(make_rng(6), n)
    vals = np.sum(pts * pts, axis=1)
    assert np.array_equal(est2, pts[np.argmin(vals)])


def test_random_search_tie_break_lowest_index():
    obj = Objective(1, lambda P: np.array([3.0, 1.0, 1.0])[: P.shape[0]])
    q0 = IsotropicGaussian(mean=np.zeros(1), variance=1.0)
    est, _ = run_random_search(obj, StaticConfig(budget=3, alpha0=1.0, q0=q0, seed=2))
    pts = q0.sample(make_rng(2), 3)
    assert np.array_equal(est, pts[1])


def test_random_search_best_value_nonincreasing_along_trace():
    obj = benchmark("ackley", 3)
    q0 = IsotropicGaussian(mean=np.ones(3), variance=1.0)
    _, trace = run_random_search(
        obj, StaticConfig(budget=3000, alpha0=1.0, q0=q0, seed=8)
    )
    best_vals = [obj(e) for e in trace.estimates]
    assert np.all(np.diff(best_vals) <= 0)


SAMPLE_POINTS = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.1, 0.0]])


@pytest.mark.parametrize("driver", [run_liso, run_random_search])
@pytest.mark.parametrize("points,values,message", [
    (SAMPLE_POINTS, [np.nan, 0.0, 8.0, 0.01], "values must hold one finite or \\+inf number"),
    (np.array([[np.inf, 0.0], [0.0, 0.0], [2.0, 2.0], [0.1, 0.0]]), [0.0, -np.inf, 8.0, 0.01],
     "points must be a nonempty \\(n, d\\) array of finite numbers"),
    (SAMPLE_POINTS[:3], [2.0, 0.0, 8.0], "the sample must hold 4 points of dimension 2"),
], ids=["nan_value", "non_finite_point", "wrong_length"])
def test_static_drivers_check_a_given_sample(driver, points, values, message):
    obj = benchmark("sphere", 2)
    cfg = StaticConfig(budget=4, alpha0=1.0, q0=IsotropicGaussian(np.zeros(2), 1.0), seed=1)
    with pytest.raises(ValueError, match=message):
        driver(obj, cfg, sample=(points, np.array(values)))
    assert obj.eval_count == 0


@pytest.mark.parametrize("driver,sample", [
    *((driver, None) for driver in (run_liso, run_random_search, run_adaptive_liso,
                                    run_adaptive_random_search, run_isotropic_es)),
    *((driver, (np.zeros((40, 3)), np.zeros(40))) for driver in (run_liso, run_random_search)),
])
def test_drivers_refuse_a_q0_of_another_dimension(driver, sample):
    obj = benchmark("sphere", 3)
    cfg = AdaptiveConfig(budget=40, alpha0=1.0, q0=IsotropicGaussian(np.zeros(2), 1.0), seed=1,
                         batch_size=10)
    kwargs = {} if sample is None else {"sample": sample}
    with pytest.raises(ValueError, match="^q0 has dimension 2 but the objective has dimension 3$"):
        driver(obj, cfg, **kwargs)
    assert obj.eval_count == 0


# ----------------------------------------------------------------------
# Adaptive drivers
# ----------------------------------------------------------------------

def adaptive_cfg(budget, seed, d=2, lam=0.0, B=100, q0=None, **kw):
    if q0 is None:
        q0 = IsotropicGaussian(mean=np.ones(d), variance=0.5)
    return AdaptiveConfig(
        budget=budget, alpha0=1.0, q0=q0, seed=seed,
        sigma2=0.5, mixture_weight=lam, batch_size=B, **kw,
    )


def test_adaptive_single_batch_equals_static():
    # A static run, the same run given its q0 draw, and the adaptive twins
    # whose one batch is the whole budget all fill one record alike.
    n, seed = 1500, 3
    q0 = IsotropicGaussian(mean=np.ones(2), variance=0.5)
    static_cfg = StaticConfig(budget=n, alpha0=1.0, q0=q0, seed=seed)
    points = q0.sample(make_rng(seed), n)
    sample = (points, benchmark("sphere", 2).evaluate_batch(points))
    before = [a.tobytes() for a in sample]
    for a in sample:  # a run that wrote to its given sample would raise
        a.flags.writeable = False
    for static, adaptive in ((run_liso, run_adaptive_liso),
                             (run_random_search, run_adaptive_random_search)):
        runs = [
            static(benchmark("sphere", 2), static_cfg),
            static(benchmark("sphere", 2), static_cfg, sample=sample),
            adaptive(benchmark("sphere", 2), adaptive_cfg(n, seed, B=n, lam=0.7)),
            adaptive(benchmark("sphere", 2), adaptive_cfg(n, seed, B=n + 7, lam=0.7)),
        ]
        est, trace = runs[0]
        assert (trace.ess is None) == (static is run_random_search)
        for other_est, other in runs[1:]:
            assert np.array_equal(other_est, est)
            assert np.array_equal(other.estimates, trace.estimates)
            assert other.ess is None if trace.ess is None else np.array_equal(other.ess, trace.ess)
    assert [a.tobytes() for a in sample] == before


def test_adaptive_mixture_weight_one_reduces_to_static():
    n = 1200
    q0 = IsotropicGaussian(mean=np.ones(2), variance=0.5)
    static, _ = run_liso(
        benchmark("sphere", 2), StaticConfig(budget=n, alpha0=1.0, q0=q0, seed=4)
    )
    adaptive, _ = run_adaptive_liso(
        benchmark("sphere", 2), adaptive_cfg(n, 4, B=200, lam=1.0)
    )
    assert np.linalg.norm(static - adaptive) < 1e-10


def test_adaptive_constant_objective_random_search_keeps_first_sample():
    obj = Objective(2, lambda P: np.zeros(P.shape[0]))
    est, _ = run_adaptive_random_search(obj, adaptive_cfg(300, 7, B=50))
    q0 = IsotropicGaussian(mean=np.ones(2), variance=0.5)
    assert np.array_equal(est, q0.sample(make_rng(7), 50)[0])


def test_adaptive_shift_invariance():
    cfg = adaptive_cfg(900, 11, B=150)
    base, _ = run_adaptive_liso(shifted_sphere(0.0, 2), cfg)
    shifted, _ = run_adaptive_liso(shifted_sphere(1e6, 2), cfg)
    assert np.linalg.norm(base - shifted) < 1e-10


def test_adaptive_projection_box_clamps_the_mean():
    lo, hi = np.array([2.0, 2.0]), np.array([3.0, 3.0])
    cfg = adaptive_cfg(600, 13, B=100, projection_box=(lo, hi))
    est, trace = run_adaptive_liso(benchmark("sphere", 2), cfg)
    assert np.all(est >= lo) and np.all(est <= hi)
    assert np.all(trace.estimates >= lo) and np.all(trace.estimates <= hi)


@pytest.mark.parametrize("driver,box", [
    (run_adaptive_liso, (np.full(2, -1.0), np.full(2, 1.0))),  # d = 2 box, d = 3 q0
    (run_adaptive_liso, (np.zeros((1, 3)), np.ones((1, 3)))),
    (run_adaptive_liso, (-1.0, np.ones(3))),
    (run_liso, (np.array([-1.0, np.nan, -1.0]), np.ones(3))),
    (run_liso, (-1.0, np.nan)),
    (run_liso, (1.0, -1.0)),
])
def test_config_rejects_a_bad_projection_box_before_any_evaluation(driver, box):
    objective = benchmark("sphere", 3)
    q0 = IsotropicGaussian(mean=np.zeros(3), variance=1.0)
    with pytest.raises(ValueError, match="^projection_box "):
        driver(objective, AdaptiveConfig(budget=600, alpha0=1.0, q0=q0, seed=1,
                                         projection_box=box))
    assert objective.eval_count == 0


def test_a_config_keeps_its_own_read_only_projection_box():
    lo, hi = np.array([-0.1, -0.1]), np.array([0.1, 0.1])
    cfg = adaptive_cfg(600, 13, projection_box=(lo, hi))
    _, expected = run_liso(benchmark("sphere", 2), adaptive_cfg(600, 13, projection_box=(-0.1, 0.1)))
    lo[0] = np.nan  # the caller's array, not the config's
    _, trace = run_liso(benchmark("sphere", 2), cfg)
    assert trace.estimates.tobytes() == expected.estimates.tobytes()
    for bound in cfg.projection_box:
        assert bound.dtype == float and not bound.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cfg.projection_box[1][0] = -1.0


@pytest.mark.parametrize("driver", [run_liso, run_adaptive_liso])
def test_scalar_projection_box_equals_its_per_dimension_box(driver):
    cfg = adaptive_cfg(600, 13, B=100, projection_box=(0.2, 0.9))
    vector = replace(cfg, projection_box=(np.full(2, 0.2), np.full(2, 0.9)))
    _, scalar_trace = driver(benchmark("sphere", 2), cfg)
    _, vector_trace = driver(benchmark("sphere", 2), vector)
    assert scalar_trace.estimates.tobytes() == vector_trace.estimates.tobytes()
    assert np.all((scalar_trace.estimates >= 0.2) & (scalar_trace.estimates <= 0.9))


def test_adaptive_liso_beats_static_from_far_start():
    # Paired comparison over 20 seeds: adaptation must reduce the final MSE
    # relative to a static run from the same poor initial policy.
    d = 4
    q0 = IsotropicGaussian(mean=np.full(d, 4.0 / math.sqrt(d)), variance=1.0 / d)
    n = 9 * 10**4
    static_mse, adaptive_mse = [], []
    for seed in range(20):
        s = derive_seed(101, seed)
        _, tr_s = run_liso(
            benchmark("sphere", d), StaticConfig(budget=n, alpha0=1.0, q0=q0, seed=s)
        )
        _, tr_a = run_adaptive_liso(
            benchmark("sphere", d),
            AdaptiveConfig(budget=n, alpha0=1.0, q0=q0, seed=s,
                           sigma2=1.0 / d, batch_size=300),
        )
        static_mse.append(tr_s.squared_errors[-1])
        adaptive_mse.append(tr_a.squared_errors[-1])
    assert np.mean(adaptive_mse) < np.mean(static_mse)


def test_adaptive_liso_beats_adaptive_random_search_from_far_start():
    d = 4
    q0 = IsotropicGaussian(mean=np.full(d, 4.0 / math.sqrt(d)), variance=1.0 / d)
    n = 9 * 10**4
    liso_mse, rs_mse = [], []
    for seed in range(20):
        s = derive_seed(202, seed)
        cfg = AdaptiveConfig(budget=n, alpha0=1.0, q0=q0, seed=s,
                             sigma2=1.0 / d, batch_size=300)
        _, tr_l = run_adaptive_liso(benchmark("sphere", d), cfg)
        _, tr_r = run_adaptive_random_search(benchmark("sphere", d), cfg)
        liso_mse.append(tr_l.squared_errors[-1])
        rs_mse.append(tr_r.squared_errors[-1])
    assert np.mean(rs_mse) > 0
    assert np.mean(liso_mse) < np.mean(rs_mse)


# ----------------------------------------------------------------------
# Isotropic evolution strategy
# ----------------------------------------------------------------------

def test_es_recombination_weights_spot_values():
    count, w = isotropic_es_recombination_weights(4)
    assert count == 2
    assert w == pytest.approx([0.916291, 0.223144], abs=1e-6)

    count, w = isotropic_es_recombination_weights(2)
    assert count == 1
    assert w == pytest.approx([math.log(1.5)], abs=1e-6)

    count, w = isotropic_es_recombination_weights(300)
    assert count == 150
    assert w[0] == pytest.approx(math.log(150.5), abs=1e-6)
    assert w[-1] == pytest.approx(math.log(150.5 / 150.0), abs=1e-6)
    assert np.all(w > 0)

    with pytest.raises(ValueError):
        isotropic_es_recombination_weights(1)


def test_es_identical_batch_collapses_to_the_point():
    pts = np.tile(np.array([1.0, -2.0]), (6, 1))
    vals = np.full(6, 3.0)
    assert np.allclose(_recombine(pts, vals), pts[0])


def test_es_batch_of_two_returns_the_better_point():
    pts = np.array([[5.0], [1.0]])
    vals = np.array([25.0, 1.0])
    assert np.array_equal(_recombine(pts, vals), pts[1])


def test_es_recombination_is_permutation_invariant():
    rng = make_rng(21)
    pts = rng.standard_normal((20, 3))
    vals = rng.standard_normal(20)
    base = _recombine(pts, vals)
    perm = rng.permutation(20)
    assert np.allclose(_recombine(pts[perm], vals[perm]), base, atol=1e-12)


def test_es_recombination_weights_are_computed_once_and_read_only():
    rng = make_rng(22)
    pts, vals = rng.standard_normal((9, 2)), rng.standard_normal(9)
    count, w = isotropic_es_recombination_weights(9)
    cached = _normalized_recombination_weights(9)
    assert cached is _normalized_recombination_weights(9) and not cached.flags.writeable
    assert cached.tobytes() == (w / np.sum(w)).tobytes()
    order = np.argsort(vals, kind="stable")[:count]
    assert _recombine(pts, vals).tobytes() == _weighted_sum(cached, pts[order]).tobytes()


def test_es_runs_and_respects_budget():
    obj = benchmark("sphere", 3)
    cfg = AdaptiveConfig(budget=1050, alpha0=1.0,
                         q0=IsotropicGaussian(mean=np.ones(3), variance=1.0),
                         seed=1, sigma2=0.3, batch_size=100)
    est, trace = run_isotropic_es(obj, cfg)
    assert obj.eval_count == 1050
    assert trace.squared_errors[-1] < trace.squared_errors[0]
    with pytest.raises(ValueError):
        run_isotropic_es(benchmark("sphere", 3),
                         AdaptiveConfig(budget=10, alpha0=1.0, q0=cfg.q0,
                                        seed=1, sigma2=0.3, batch_size=1))


def test_es_runs_on_the_config_it_is_given_and_ignores_mixture_and_box(monkeypatch):
    cfg = adaptive_cfg(600, 5, lam=0.5, projection_box=(-0.05, 0.05))
    plain = replace(cfg, mixture_weight=0.0, projection_box=None)
    built, post_init = [], AdaptiveConfig.__post_init__
    monkeypatch.setattr(AdaptiveConfig, "__post_init__", lambda self: built.append(self) or post_init(self))
    est, trace = run_isotropic_es(benchmark("sphere", 2), cfg)
    assert not built  # no config is rebuilt per call
    plain_est, plain_trace = run_isotropic_es(benchmark("sphere", 2), plain)
    assert est.tobytes() == plain_est.tobytes()
    assert trace.estimates.tobytes() == plain_trace.estimates.tobytes()
    assert np.abs(trace.estimates).max() > 0.05  # never projected


def test_one_config_serves_every_driver():
    assert StaticConfig is AdaptiveConfig
    q0 = IsotropicGaussian(mean=np.ones(4), variance=0.5)
    with pytest.raises(ValueError, match="^budget must be >= 1$"):
        AdaptiveConfig(budget=0, alpha0=1.0, q0=q0, seed=0)
    with pytest.raises(ValueError, match="fixed_alpha"):
        AdaptiveConfig(budget=10, alpha0=1.0, q0=q0, seed=0, fixed_alpha=0.0)
    # An alpha0 whose temperature at the budget overflows is refused; a
    # fixed temperature is never scheduled.
    with pytest.raises(ValueError, match="^alpha0 is too large: its temperature at 400 evaluations is inf$"):
        AdaptiveConfig(budget=400, alpha0=1e308, q0=q0, seed=0)
    AdaptiveConfig(budget=400, alpha0=1.0, q0=q0, seed=0, fixed_alpha=1e308)
    # sigma2 stays None and is read as 1/d of q0, also of a q0 put in by replace().
    cfg = AdaptiveConfig(budget=600, alpha0=1.0, q0=q0, seed=2, batch_size=100)
    assert cfg.sigma2 is None

    def trace(config):
        return run_adaptive_liso(benchmark("sphere", config.q0.dimension), config)[1].estimates.tobytes()

    assert trace(cfg) == trace(replace(cfg, sigma2=0.25))
    cfg = replace(cfg, q0=IsotropicGaussian(mean=np.ones(8), variance=0.5))
    assert trace(cfg) == trace(replace(cfg, sigma2=0.125))
    assert trace(cfg) != trace(replace(cfg, sigma2=0.25))


def test_a_config_is_a_value_whose_fields_cannot_be_assigned():
    q0 = IsotropicGaussian(mean=np.ones(2), variance=0.5)
    cfg = AdaptiveConfig(budget=2000, alpha0=1.0, q0=q0, seed=3, batch_size=100)
    for name, value in (("budget", 1000), ("grid", np.array([1000]))):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    # Assigning the budget used to leave the grid, and so trace rows no
    # run writes, at the old budget; a changed copy resolves its own.
    assert cfg.budget == 2000 and cfg.grid[-1] == 2000
    assert replace(cfg, budget=1000).grid[-1] == 1000


def test_a_config_and_its_q0_stay_read_only_through_pickle():
    # Pool workers get their configs by pickle.
    cfg = adaptive_cfg(900, 5, checkpoints=[10, 900])
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy.grid.tolist() == [10, 900]
    assert not copy.grid.flags.writeable and not copy.q0.mean.flags.writeable


@pytest.mark.parametrize("field", ["alpha0", "fixed_alpha", "sigma2"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_numbers(field, value):
    q0 = IsotropicGaussian(mean=np.ones(2), variance=0.5)
    kw = dict(budget=10, alpha0=1.0, q0=q0, seed=0)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        AdaptiveConfig(**kw)


def test_adaptive_liso_honours_fixed_alpha():
    def trace(cfg):
        return run_adaptive_liso(benchmark("sphere", 2), cfg)[1]

    cfg = adaptive_cfg(900, 5, fixed_alpha=3.0)
    fixed = trace(cfg)
    # alpha0 only feeds the schedule, which a fixed temperature replaces.
    assert np.array_equal(fixed.estimates, trace(replace(cfg, alpha0=9.0)).estimates)
    assert not np.array_equal(fixed.estimates, trace(replace(cfg, fixed_alpha=None)).estimates)


# ----------------------------------------------------------------------
# Cross-driver contracts
# ----------------------------------------------------------------------

ALL_DRIVERS = [
    ("liso", run_liso, True),
    ("random_search", run_random_search, True),
    ("adaptive_liso", run_adaptive_liso, False),
    ("adaptive_random_search", run_adaptive_random_search, False),
    ("isotropic_es", run_isotropic_es, False),
]


@pytest.mark.parametrize("name,driver,is_static", ALL_DRIVERS)
def test_budget_exactness_and_determinism(name, driver, is_static):
    n = 730
    q0 = IsotropicGaussian(mean=np.ones(3), variance=1.0)
    if is_static:
        cfg = StaticConfig(budget=n, alpha0=1.0, q0=q0, seed=42)
    else:
        cfg = AdaptiveConfig(budget=n, alpha0=1.0, q0=q0, seed=42,
                             sigma2=0.5, batch_size=100)
    obj1 = benchmark("rastrigin", 3)
    est1, tr1 = driver(obj1, cfg)
    obj2 = benchmark("rastrigin", 3)
    est2, tr2 = driver(obj2, cfg)
    assert obj1.eval_count == n == obj2.eval_count
    assert np.array_equal(est1, est2)
    assert np.array_equal(tr1.estimates, tr2.estimates)
    assert np.array_equal(tr1.checkpoints, tr2.checkpoints)


@pytest.mark.parametrize("checkpoints", [None, [400, 7, 7, 100]])
@pytest.mark.parametrize("name,driver,is_static", ALL_DRIVERS)
def test_every_trace_records_its_configs_grid(name, driver, is_static, checkpoints):
    cfg = adaptive_cfg(730, 5, checkpoints=checkpoints)
    _, trace = driver(benchmark("sphere", 2), cfg)
    assert trace.checkpoints.tolist() == cfg.grid.tolist()
    assert len(trace.estimates) == cfg.grid.size


@pytest.mark.parametrize("name,driver,is_static", ALL_DRIVERS)
def test_estimates_lie_in_sample_hull(name, driver, is_static):
    n = 600
    q0 = IsotropicGaussian(mean=np.ones(2), variance=1.0)
    if is_static:
        cfg = StaticConfig(budget=n, alpha0=1.0, q0=q0, seed=33)
    else:
        cfg = AdaptiveConfig(budget=n, alpha0=1.0, q0=q0, seed=33,
                             sigma2=0.5, batch_size=100)
    seen = []
    obj = Objective(
        2,
        lambda P: (seen.append(P.copy()), np.sum(P * P, axis=1))[1],
        known_minimizer=np.zeros(2),
    )
    est, trace = driver(obj, cfg)
    pts = np.vstack(seen)
    assert np.all(est >= pts.min(axis=0) - 1e-12)
    assert np.all(est <= pts.max(axis=0) + 1e-12)
    assert np.all(trace.estimates >= pts.min(axis=0) - 1e-12)
    assert np.all(trace.estimates <= pts.max(axis=0) + 1e-12)


def _per_run_counts(monkeypatch, driver, mixture_weight, budget):
    """How many Gaussians and mixtures one config and run of ``driver``
    builds, and how many times it checks ``alpha_schedule``'s arguments."""
    counts = dict.fromkeys(("IsotropicGaussian", "MixturePolicy", "alpha_schedule"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (IsotropicGaussian, MixturePolicy):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(optimizers, "alpha_schedule", counted("alpha_schedule", optimizers.alpha_schedule))
    q0 = IsotropicGaussian(mean=np.full(4, 2.0), variance=0.25)
    cfg = AdaptiveConfig(budget=budget, alpha0=1.0, q0=q0, seed=5, sigma2=0.25,
                         mixture_weight=mixture_weight, batch_size=300)
    driver(benchmark("sphere", 4), cfg)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("mixture_weight", [0.0, 0.3])
@pytest.mark.parametrize("driver", [run_adaptive_liso, run_adaptive_random_search, run_isotropic_es])
def test_policies_and_temperature_checks_are_per_run_not_per_batch(monkeypatch, driver, mixture_weight):
    # 10 batches and 100: a count that grew with the batches would differ.
    small, large = (_per_run_counts(monkeypatch, driver, mixture_weight, n) for n in (3000, 30000))
    assert small == large


# ----------------------------------------------------------------------
# Softmin post-processing of an evaluated sample
# ----------------------------------------------------------------------

def random_search_record(n=500, seed=3):
    """The points, values and q0 log-densities of a random search on sphere d=3."""
    q0 = IsotropicGaussian(mean=np.ones(3), variance=0.5)
    points = q0.sample(make_rng(seed), n)
    return q0, points, benchmark("sphere", 3).evaluate_batch(points), q0.log_density_batch(points)


def test_liso_from_sample_is_run_liso_without_evaluations():
    q0, points, values, logq = random_search_record()
    cfg = StaticConfig(budget=500, alpha0=0.5, q0=q0, seed=3, checkpoints=[10, 100, 333])
    _, expected = run_liso(benchmark("sphere", 3), cfg)
    trace = liso_from_sample(points, values, [10, 100, 333], logq=logq, alpha0=0.5)
    assert trace.checkpoints.tolist() == [10, 100, 333, 500]
    assert trace.squared_errors is None
    for field in ("estimates", "ess"):
        assert getattr(trace, field).tobytes() == getattr(expected, field).tobytes()
    assert not trace.degenerate_final


def test_liso_from_sample_defaults_and_fixed_alpha():
    _, points, values, logq = random_search_record()
    trace = liso_from_sample(points, values, logq=logq, alpha0=1.0)
    assert np.array_equal(trace.checkpoints, default_checkpoints(500))
    # A fixed temperature replaces the schedule; a constant log-density cancels.
    fixed = liso_from_sample(points, values, logq=np.full(500, -2.0), alpha0=9.0, fixed_alpha=3.0)
    uniform = liso_from_sample(points, values, fixed_alpha=3.0)
    assert np.allclose(fixed.estimates, uniform.estimates, rtol=0, atol=1e-12)
    # Only the schedule is checked for overflow: a fixed temperature of 1e308 is allowed.
    sharp = liso_from_sample(np.eye(3), [1.0, 0.0, 0.5], alpha0=1e308, fixed_alpha=1e308)
    assert sharp.estimates.tolist() == [[0.0, 1.0, 0.0]]


def test_liso_from_sample_all_inf_falls_back_to_the_first_point():
    _, points, _, _ = random_search_record(n=20)
    trace = liso_from_sample(points, np.full(20, np.inf), [5], alpha0=1.0)
    assert trace.degenerate_final
    assert np.array_equal(trace.estimates, points[[0, 0]])
    assert np.isnan(trace.ess).all()


@pytest.mark.parametrize("change,message", [
    (dict(points=np.zeros(5)), "points must be a nonempty"),
    (dict(values=np.zeros(4)), "one finite or \\+inf number per point"),
    (dict(values=np.array([0, 1, np.nan, 2, 3.0])), "one finite or \\+inf"),
    (dict(logq=np.array([0, 1, np.inf, 2, 3.0])), "log-densities must be finite"),
    (dict(logq=np.zeros(4)), "log-densities must be finite, one per point"),
    (dict(alpha0=None), "give alpha0 or fixed_alpha"),
    (dict(fixed_alpha=np.inf), "fixed_alpha must be positive and finite"),
    (dict(checkpoints=[6]), "checkpoints must lie in"),
    (dict(alpha0=1e308), "alpha0 is too large: its temperature at 5 evaluations is inf"),
])
def test_liso_from_sample_checks_its_inputs(change, message):
    kw = dict(points=np.zeros((5, 2)), values=np.arange(5.0), checkpoints=None,
              logq=np.zeros(5), alpha0=1.0)
    kw.update(change)
    with pytest.raises(ValueError, match=message):
        liso_from_sample(kw.pop("points"), kw.pop("values"), kw.pop("checkpoints"), **kw)


@pytest.mark.parametrize("alpha0,fixed_alpha", [(1.5, None), (None, 2.0)])
def test_softmin_prefixes_equal_the_public_estimators_on_every_prefix(alpha0, fixed_alpha):
    # The prefixes keep values - min from one re-weighting to the next; each
    # must still equal a from-scratch re-weighting, bit for bit.  The first 12
    # values are +inf, and the minimum falls again mid-run and near the end.
    rng = make_rng(23)
    n, d = 400, 3
    points = rng.standard_normal((n, d))
    values = rng.uniform(5.0, 9.0, n)
    values[:12] = np.inf
    values[rng.choice(np.arange(12, n), 40, replace=False)] = np.inf
    values[200], values[390] = 1.0, 0.25
    logq = rng.standard_normal(n)
    prefixes = _SoftminPrefixes(points, values, logq, alpha0, fixed_alpha)
    for c in range(1, n + 1):
        estimate, ess = prefixes.at(c)
        if c <= 12:
            assert prefixes.degenerate and math.isnan(ess)
            assert estimate.tobytes() == points[0].tobytes()
            continue
        alpha = fixed_alpha or alpha_schedule(alpha0, c, d)
        lw = laplace_log_weights(alpha, values[:c], logq[:c])
        expected = _weighted_sum(normalized_weights(lw), points[:c])
        assert estimate.tobytes() == expected.tobytes(), c
        assert ess == effective_sample_size(lw), c


@pytest.mark.parametrize("logq", ["absent", "zero", "random"])
def test_softmin_prefixes_on_signed_zeros_after_an_inf_head(logq):
    # The first prefix is all +inf and falls back to its first point; from the
    # second on, the running best is the -0.0 at index 1, which a 0.0 and a
    # -0.0 later tie.  Each prefix equals a from-scratch re-weighting, bit for bit.
    rng = make_rng(29)
    n, d, alpha0 = 60, 3, 1.5
    points = rng.standard_normal((n, d))
    values = rng.uniform(0.0, 4.0, n)
    values[:3] = np.inf, -0.0, 0.0
    values[[20, 40]] = 0.0, -0.0
    given = {"absent": None, "zero": np.zeros(n), "random": rng.standard_normal(n)}[logq]
    trace = liso_from_sample(points, values, np.arange(1, n + 1), logq=given, alpha0=alpha0)
    assert trace.estimates[0].tobytes() == points[0].tobytes() and math.isnan(trace.ess[0])
    assert not trace.degenerate_final
    logq = np.zeros(n) if given is None else given
    for c in range(2, n + 1):
        lw = laplace_log_weights(alpha_schedule(alpha0, c, d), values[:c], logq[:c])
        expected = _weighted_sum(normalized_weights(lw), points[:c])
        assert trace.estimates[c - 1].tobytes() == expected.tobytes(), c
        assert trace.ess[c - 1] == effective_sample_size(lw), c
