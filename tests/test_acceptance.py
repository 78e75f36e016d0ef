"""End-to-end acceptance checks for the whole toolkit.

Each test covers one headline guarantee and prints a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).  These are the
checks a release must clear; the per-module suites cover the finer grain.
"""

import math

import numpy as np

from lisopt import (
    AdaptiveConfig,
    CUBIC_DOMAIN,
    ExperimentSpec,
    IsotropicGaussian,
    QuadratureSpec,
    StaticConfig,
    ackley,
    bootstrap_stderr,
    benchmark,
    cubic_perturbed_quadratic,
    derive_seed,
    fit_loglog_slope,
    gibbs_mean,
    isotropic_es_recombination_weights,
    laplace_gap,
    laplace_log_weights,
    liso_from_sample,
    make_rng,
    normalized_weights,
    parse_csv,
    rastrigin,
    run_adaptive_liso,
    run_adaptive_random_search,
    run_experiment,
    run_isotropic_es,
    run_liso,
    run_random_search,
    self_normalized_average,
    sphere,
)
from lisopt.harness import csv_string, emit_csv, svg_string

ACKLEY_HALF = 20.0 + math.e - 20.0 * math.exp(-0.1) - math.exp(-1.0)


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion:2d}] {label}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {label}{suffix}"


def test_criterion_01_benchmark_values():
    ok = True
    for d in (1, 2, 4, 8):
        ok &= abs(sphere(np.zeros(d))) <= 1e-12
        ok &= abs(rastrigin(np.zeros(d))) <= 1e-12
        ok &= abs(ackley(np.zeros(d))) <= 1e-12
    ok &= abs(rastrigin(np.array([1.0, 0.0])) - 24.0) <= 1e-12
    ok &= abs(ackley(np.array([0.5])) - ACKLEY_HALF) <= 1e-12
    report(1, "benchmark spot values", bool(ok),
           f"ackley(0.5)={ackley(np.array([0.5])):.10f}")


def test_criterion_02_shift_invariance():
    n, d = 200, 5
    q0 = IsotropicGaussian(mean=np.zeros(d), variance=1.0)
    worst = 0.0
    for ensemble in range(50):
        rng = make_rng(derive_seed(4242, ensemble))
        points = q0.sample(rng, n)
        logq = q0.log_density_batch(points)
        # Values on a dyadic grid so that adding the shift is itself exact
        # in double precision; any residual comes from the estimator.
        values = np.round(rng.normal(2.0, 1.5, size=n) * 2.0**26) / 2.0**26
        alpha = 2.5
        base = self_normalized_average(
            points, laplace_log_weights(alpha, values, logq)
        )
        for c in (1.0, -1.0, 1e6, -1e6):
            shifted = self_normalized_average(
                points, laplace_log_weights(alpha, values + c, logq)
            )
            worst = max(worst, float(np.max(np.abs(shifted - base))))
    report(2, "estimate invariant under objective shifts", worst < 1e-10,
           f"worst deviation {worst:.3e}")


def test_criterion_03_weight_sanity():
    rng = make_rng(77)
    ok = True
    worst_sum = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 6))
        if trial % 5 == 0:
            alpha, scale = 1e3, 1e4  # extreme-magnitude regime
        else:
            alpha = float(rng.uniform(0.1, 50.0))
            scale = 1.0
        values = rng.normal(0.0, scale, size=n)
        logq = rng.normal(0.0, 2.0, size=n)
        points = rng.normal(0.0, 1.0, size=(n, d))
        lw = laplace_log_weights(alpha, values, logq)
        p = normalized_weights(lw)
        est = self_normalized_average(points, lw)
        ok &= not np.any(np.isnan(p)) and not np.any(np.isnan(est))
        ok &= bool(np.all(p >= 0.0) and np.all(p <= 1.0))
        worst_sum = max(worst_sum, abs(float(np.sum(p)) - 1.0))
        ok &= bool(
            np.all(est >= points.min(axis=0) - 1e-12)
            and np.all(est <= points.max(axis=0) + 1e-12)
        )
    ok &= worst_sum <= 1e-12
    report(3, "weights normalized, bounded, hull-respecting", bool(ok),
           f"worst |sum-1| {worst_sum:.3e} over 1000 instances")


def _boxed_cubic(points):
    x = points[:, 0]
    vals = x * x + 0.2 * x**3
    vals[np.abs(x) > 3.0] = np.inf
    return vals


def test_criterion_04_sampler_matches_quadrature():
    alpha = 16.0
    target = gibbs_mean(
        cubic_perturbed_quadratic, QuadratureSpec(CUBIC_DOMAIN, 1601, alpha)
    )[0]
    q0 = IsotropicGaussian(mean=np.zeros(1), variance=1.0)
    hits = 0
    details = []
    for s in range(5):
        rng = make_rng(derive_seed(910, s))
        points = q0.sample(rng, 100_000)
        values = _boxed_cubic(points)
        lw = laplace_log_weights(alpha, values, q0.log_density_batch(points))
        est = self_normalized_average(points, lw)[0]
        se = bootstrap_stderr(points, lw, make_rng(derive_seed(911, s)))[0]
        z = abs(est - target) / se
        hits += z <= 3.0
        details.append(f"{z:.2f}")
    report(4, "sampling estimate agrees with quadrature mean", hits >= 4,
           f"target {target:.8f}, |z| per seed: {', '.join(details)}")


def _boxed_cubic_sum(points):
    vals = np.sum(points * points + 0.2 * points**3, axis=1)
    vals[np.any(np.abs(points) > 3.0, axis=1)] = np.inf
    return vals


def test_criterion_04_in_every_shipped_dimension():
    # f(x) = sum_i x_i^2 + 0.2 x_i^3 on [-3, 3]^d: exp(-alpha f) factorizes, so
    # every coordinate of the tempered mean is the 1-D quadrature mean.  At
    # alpha = 1 the target is skewed and reaches the box's edge, and q0 is
    # centred at 0, not at the target, so only the weighted average hits it.
    # About 1% of the points in d = 12 lie outside the box and score +inf.
    alpha, n = 1.0, 20_000
    target = gibbs_mean(
        cubic_perturbed_quadratic, QuadratureSpec(CUBIC_DOMAIN, 1601, alpha)
    )[0]
    ok = True
    details = []
    for d in (4, 8, 12):
        q0 = IsotropicGaussian(mean=np.zeros(d), variance=0.8)
        z = []
        for s in range(3):
            points = q0.sample(make_rng(derive_seed(940, 100 * d + s)), n)
            values = _boxed_cubic_sum(points)
            logq = q0.log_density_batch(points)
            est = liso_from_sample(points, values, [n], logq=logq, fixed_alpha=alpha).estimates[-1]
            lw = laplace_log_weights(alpha, values, logq)
            se = bootstrap_stderr(points, lw, make_rng(derive_seed(941, 100 * d + s)))
            z.extend(np.abs(est - target) / se)
        misses = sum(zi > 3.0 for zi in z)
        ok &= misses <= 1
        details.append(f"d={d}: max |z| {max(z):.2f}, {misses} of {len(z)} above 3")
    report(4, "sampling estimate agrees with quadrature mean in d = 4, 8, 12", ok,
           f"target {target:.8f} per coordinate; {'; '.join(details)}")


def test_criterion_05_tempered_mean_concentrates():
    alphas = [4.0, 8.0, 16.0, 32.0, 64.0]
    gaps = laplace_gap(cubic_perturbed_quadratic, np.zeros(1), CUBIC_DOMAIN, alphas)
    decreasing = bool(np.all(np.diff(gaps) < 0))
    slope = np.polyfit(np.log(alphas), np.log(gaps), 1)[0]
    quad_gap = laplace_gap(benchmark("sphere", 1), np.zeros(1), ((-8.0, 8.0),), [16.0])[0]
    ok = decreasing and slope <= -0.8 and quad_gap < 1e-8
    report(5, "tempered mean concentrates at the minimizer", ok,
           f"slope {slope:.3f}, symmetric-case gap {quad_gap:.1e}")


def test_criterion_06_convergence_rates():
    d = 4
    spec = ExperimentSpec(
        objective="sphere",
        dimension=d,
        methods=["liso", "random_search"],
        budget=100_000,
        seed=20244,
        alpha0=1.0,
        q0_center=[d**-0.5] * d,
        q0_variance=1.0 / d,
        trials=100,
    )
    rep = run_experiment(spec)
    liso_slope, _, _ = fit_loglog_slope(rep, "liso", (1e3, 1e5))
    rs_slope, _, _ = fit_loglog_slope(rep, "random_search", (1e3, 1e5))
    liso_final = rep.methods["liso"].mean_mse[-1]
    rs_final = rep.methods["random_search"].mean_mse[-1]
    ok = (
        -0.87 <= liso_slope <= -0.47
        and -0.70 <= rs_slope <= -0.30
        and liso_final < rs_final
    )
    report(6, "weighted averaging beats pure search in rate", ok,
           f"slopes {liso_slope:.3f} vs {rs_slope:.3f}, "
           f"final MSE {liso_final:.2e} vs {rs_final:.2e}")


def test_criterion_07_adaptation_recovers_from_poor_start():
    d = 4
    spec = ExperimentSpec(
        objective="sphere",
        dimension=d,
        methods=["adaptive_liso", "adaptive_random_search"],
        budget=90_000,
        seed=20247,
        alpha0=1.0,
        q0_center=[4.0 / math.sqrt(d)] * d,
        q0_variance=1.0 / d,
        trials=20,
        batch_size=300,
        mixture_weight=0.0,
        sigma2=1.0 / d,
    )
    rep = run_experiment(spec)
    al = rep.methods["adaptive_liso"]
    ar = rep.methods["adaptive_random_search"]
    ok = al.mean_mse[-1] < ar.mean_mse[-1] and al.mean_mse[-1] < 0.01 * al.mean_mse[0]
    report(7, "adaptive averaging recovers from a poor start", bool(ok),
           f"final MSE {al.mean_mse[-1]:.2e} (vs {ar.mean_mse[-1]:.2e} for "
           f"recentring search; initial {al.mean_mse[0]:.2e})")


def test_criterion_08_rank_weight_formula():
    ok = True
    for B in (2, 4, 300):
        count, weights = isotropic_es_recombination_weights(B)
        ok &= count == B // 2
        expected = np.log((B + 1) / 2.0) - np.log(np.arange(1, B // 2 + 1))
        ok &= bool(np.all(np.abs(weights - expected) <= 1e-6))
        ok &= bool(np.all(weights > 0))
    report(8, "rank-based recombination weights", bool(ok))


def test_criterion_09_determinism_and_budget():
    d = 3
    budget = 700
    q0 = IsotropicGaussian(mean=np.full(d, 0.8), variance=0.5)
    static = StaticConfig(budget=budget, alpha0=1.0, q0=q0, seed=99)
    adaptive = AdaptiveConfig(
        budget=budget, alpha0=1.0, q0=q0, seed=99, sigma2=1.0 / d,
        batch_size=150,
    )
    drivers = [
        ("liso", run_liso, static),
        ("random_search", run_random_search, static),
        ("adaptive_liso", run_adaptive_liso, adaptive),
        ("adaptive_random_search", run_adaptive_random_search, adaptive),
        ("isotropic_es", run_isotropic_es, adaptive),
    ]
    ok = True
    for name, driver, config in drivers:
        obj1 = benchmark("ackley", d)
        est1, trace1 = driver(obj1, config)
        obj2 = benchmark("ackley", d)
        est2, trace2 = driver(obj2, config)
        ok &= obj1.eval_count == budget and obj2.eval_count == budget
        ok &= bool(np.array_equal(est1, est2))
        ok &= bool(np.array_equal(trace1.estimates, trace2.estimates))
    report(9, "all drivers deterministic and budget-exact", bool(ok))


def test_criterion_10_reporting_contracts(tmp_path):
    base = dict(
        objective="sphere",
        dimension=2,
        methods=["liso", "random_search"],
        budget=2000,
        seed=42,
        alpha0=1.0,
        q0_center=[0.7, 0.7],
        q0_variance=0.5,
        checkpoint_count=10,
    )
    rep20 = run_experiment(ExperimentSpec(trials=20, **base))
    rep80 = run_experiment(ExperimentSpec(trials=80, **base))

    path = tmp_path / "r.csv"
    emit_csv(rep20, str(path))
    round_trip = parse_csv(str(path)) == rep20
    byte_stable = (
        csv_string(rep20) == csv_string(rep20)
        and svg_string(rep20) == svg_string(rep20)
    )
    ratios = [
        float(np.median(rep20.methods[m].ci_half_width)
              / np.median(rep80.methods[m].ci_half_width))
        for m in base["methods"]
    ]
    shrink_ok = all(1.6 <= r <= 2.6 for r in ratios)
    ok = round_trip and byte_stable and shrink_ok
    report(10, "CSV round-trip, stable SVG, CI shrinks like 1/sqrt(trials)",
           bool(ok), f"CI ratios at 4x trials: {', '.join(f'{r:.2f}' for r in ratios)}")
