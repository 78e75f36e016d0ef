import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lisopt
from lisopt import (
    DegenerateWeightsError,
    IsotropicGaussian,
    MixturePolicy,
    bootstrap_stderr,
    effective_sample_size,
    laplace_log_weights,
    liso_from_sample,
    make_rng,
    normalized_weights,
    self_normalized_average,
)
from lisopt import estimators
from lisopt.estimators import _openblas_thread_calls, _row_sum, _sq_dev_sum


def test_log_weights_all_terms_vanish():
    lw = laplace_log_weights(1.0, np.zeros(2), np.zeros(2))
    assert np.array_equal(lw, np.zeros(2))


def test_log_weights_formula_anchored_at_best_value():
    # Weights are reported relative to the best value: -alpha (f - min f) - logq.
    lw = laplace_log_weights(2.0, np.array([1.0, 3.0]), np.zeros(2))
    assert np.array_equal(lw, np.array([0.0, -4.0]))
    # The anchoring constant is common to all entries, so the difference
    # matches the plain formula -alpha f - logq.
    assert lw[1] - lw[0] == -2.0 * 3.0 - (-2.0 * 1.0)


def test_log_weights_infinite_penalty_sentinel():
    lw = laplace_log_weights(1.0, np.array([0.0, np.inf]), np.zeros(2))
    assert lw[0] == 0.0 and lw[1] == -np.inf
    assert np.all(
        laplace_log_weights(1.0, np.array([np.inf, np.inf]), np.zeros(2)) == -np.inf
    )


def test_log_weights_validation():
    with pytest.raises(ValueError):
        laplace_log_weights(0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        laplace_log_weights(-1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        laplace_log_weights(1.0, np.array([np.nan]), np.zeros(1))
    with pytest.raises(ValueError):
        laplace_log_weights(1.0, np.zeros(1), np.array([np.inf]))


VALID = dict(alpha=1.0, values=np.array([1.0, 2.0, 3.0]), logq=np.zeros(3))


@pytest.mark.parametrize("change", [
    dict(alpha=0.0), dict(alpha=-1.0), dict(alpha=np.inf), dict(alpha=np.nan),
    dict(values=np.array([1.0, np.nan, 3.0])), dict(values=np.array([1.0, -np.inf, 3.0])),
    dict(logq=np.array([0.0, np.inf, 0.0])), dict(logq=np.array([0.0, -np.inf, 0.0])),
    dict(logq=np.array([0.0, np.nan, 0.0])), dict(logq=np.zeros(2)), dict(logq=np.zeros(4)),
], ids=["alpha0", "alpha-1", "alpha_inf", "alpha_nan", "value_nan", "value_-inf",
        "logq_inf", "logq_-inf", "logq_nan", "logq_short", "logq_long"])
def test_log_weights_and_liso_from_sample_refuse_the_same_inputs(change):
    kw = {**VALID, **change}
    with pytest.raises(ValueError):
        laplace_log_weights(kw["alpha"], kw["values"], kw["logq"])
    points = np.zeros((kw["values"].size, 2))
    for name in ("alpha0", "fixed_alpha"):
        with pytest.raises(ValueError):
            liso_from_sample(points, kw["values"], logq=kw["logq"], **{name: kw["alpha"]})


def weight_calls(lw):
    """Every public function of log-weights, on ``lw`` (and four points where it takes points)."""
    pts = np.zeros((4, 1))
    return [lambda: normalized_weights(lw), lambda: self_normalized_average(pts, lw),
            lambda: effective_sample_size(lw),
            lambda: bootstrap_stderr(pts, lw, make_rng(0), resamples=3)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_public_weight_functions_refuse_nan_and_inf_log_weights(bad):
    for call in weight_calls(np.array([0.0, bad, bad, bad])):
        with pytest.raises(ValueError, match="log-weights must be finite or -inf"):
            call()


@pytest.mark.parametrize("lw, shape", [([], (0,)), (0.0, ()), ([[0.0, 1.0], [2.0, 3.0]], (2, 2))],
                         ids=["empty", "0-d", "2-d"])
def test_public_weight_functions_refuse_log_weights_that_are_not_a_nonempty_vector(lw, shape):
    message = re.escape(f"log-weights must be a nonempty 1-d array, got shape {shape}")
    for call in weight_calls(lw):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_average_refuses_non_finite_points(bad):
    with pytest.raises(ValueError, match=r"points must be a nonempty \(n, d\) array of finite"):
        self_normalized_average(np.array([[bad], [1.0]]), np.zeros(2))


def test_average_needs_one_log_weight_per_point():
    with pytest.raises(ValueError, match="one log-weight per row"):
        self_normalized_average(np.zeros((3, 1)), np.zeros(2))


def test_average_equal_weights_is_midpoint():
    pts = np.array([[0.0], [2.0]])
    assert self_normalized_average(pts, np.zeros(2)) == pytest.approx([1.0])


def test_average_softmax_by_hand():
    pts = np.array([[0.0], [2.0]])
    lw = np.array([0.0, math.log(3.0)])  # p = (1/4, 3/4)
    assert self_normalized_average(pts, lw) == pytest.approx([1.5])


def test_average_single_point():
    pts = np.array([[4.0, -1.0]])
    for lw in (0.0, -1e5, 123.0):
        assert np.array_equal(self_normalized_average(pts, np.array([lw])), pts[0])


def test_average_degenerate_weights_error():
    with pytest.raises(DegenerateWeightsError):
        self_normalized_average(np.zeros((3, 1)), np.full(3, -np.inf))


def test_ess_spot_values():
    assert effective_sample_size(np.zeros(7)) == pytest.approx(7.0)
    lw = np.array([0.0, -np.inf, -np.inf])
    assert effective_sample_size(lw) == pytest.approx(1.0)
    assert effective_sample_size(np.array([0.0, math.log(3.0)])) == pytest.approx(1.6)
    with pytest.raises(DegenerateWeightsError):
        effective_sample_size(np.full(2, -np.inf))


finite_values = arrays(
    np.float64,
    st.integers(2, 40),
    elements=st.floats(-100, 100, allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(values=finite_values, c=st.floats(-1e4, 1e4, allow_nan=False), seed=st.integers(0, 2**31))
def test_shift_invariance_property(values, c, seed):
    rng = make_rng(seed)
    n = values.size
    pts = rng.standard_normal((n, 3))
    logq = rng.standard_normal(n)
    alpha = 2.5
    base = self_normalized_average(pts, laplace_log_weights(alpha, values, logq))
    shifted = self_normalized_average(pts, laplace_log_weights(alpha, values + c, logq))
    assert np.linalg.norm(base - shifted) < 1e-10


@settings(max_examples=100, deadline=None)
@given(values=finite_values, seed=st.integers(0, 2**31), alpha=st.floats(1e-3, 1e3))
def test_normalized_weights_and_hull_property(values, seed, alpha):
    rng = make_rng(seed)
    n = values.size
    pts = rng.standard_normal((n, 2))
    logq = rng.standard_normal(n)
    lw = laplace_log_weights(alpha, values, logq)
    p = normalized_weights(lw)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-12
    est = self_normalized_average(pts, lw)
    assert np.all(est >= pts.min(axis=0) - 1e-12)
    assert np.all(est <= pts.max(axis=0) + 1e-12)


def test_extreme_magnitudes_do_not_overflow():
    # log-weights of order -1e7 must survive the max shift
    rng = make_rng(1)
    pts = rng.standard_normal((100, 3))
    values = rng.uniform(0, 1e4, 100)
    logq = rng.standard_normal(100)
    lw = laplace_log_weights(1e3, values, logq)
    est = self_normalized_average(pts, lw)
    assert np.all(np.isfinite(est))
    p = normalized_weights(lw)
    assert abs(p.sum() - 1.0) < 1e-12


def test_bootstrap_stderr_scales_down_with_sample_size():
    rng = make_rng(2)
    ses = []
    for n in (200, 20000):
        pts = rng.standard_normal((n, 1))
        lw = laplace_log_weights(1.0, pts[:, 0] ** 2, np.zeros(n))
        ses.append(bootstrap_stderr(pts, lw, make_rng(3), resamples=100)[0])
    assert ses[1] < ses[0] / 3


def test_bootstrap_checks_once_and_keeps_the_bits_of_one_average_per_resample():
    rng = make_rng(4)
    pts = rng.standard_normal((500, 3))
    lw = laplace_log_weights(2.0, np.sum(pts * pts, axis=1), np.zeros(500))
    lw[::7] = -np.inf
    draws = make_rng(11)
    old = [self_normalized_average(pts[idx], lw[idx])
           for idx in (draws.integers(0, 500, size=500) for _ in range(50))]
    got = bootstrap_stderr(pts, lw, make_rng(11), resamples=50)
    assert got.tobytes() == np.std(old, axis=0, ddof=1).tobytes()
    # A bad input raises before the first resample draws from the generator;
    # one resample has no standard deviation.
    bad_lw, bad_pts = lw.copy(), pts.copy()
    bad_lw[499], bad_pts[499, 1] = np.nan, np.inf
    for args, resamples, match in (((pts, bad_lw), 50, "log-weights must be finite or -inf"),
                                   ((bad_pts, lw), 50, "points must be a nonempty"),
                                   ((pts, lw), 1, "^resamples must be >= 2$"),
                                   ((pts, lw), 0, "^resamples must be >= 2$"),
                                   ((pts, lw), 2.5, "^resamples must be an integer, got 2\\.5$")):
        draws = make_rng(11)
        with pytest.raises(ValueError, match=match):
            bootstrap_stderr(*args, draws, resamples=resamples)
        assert draws.bit_generator.state == make_rng(11).bit_generator.state


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

_LISO_PROBE = (
    "import hashlib, numpy as np\n"
    "from lisopt import IsotropicGaussian, StaticConfig, benchmark, run_liso\n"
    "q0 = IsotropicGaussian(mean=np.full({d}, 0.5), variance=0.25)\n"
    "_, trace = run_liso(benchmark('sphere', {d}),"
    " StaticConfig(budget=150_000, alpha0=1.0, q0=q0, seed=3))\n"
    "print(hashlib.sha256(trace.estimates.tobytes()).hexdigest())\n"
)

_BLAS_PROBES = {
    "run_liso_d4": _LISO_PROBE.format(d=4),
    "run_liso_d12": _LISO_PROBE.format(d=12),
    # 1601^2 nodes: np.dot and the (N, 2) product both split across threads.
    "gibbs_mean_2d": (
        "import hashlib, numpy as np\n"
        "from lisopt import Objective\n"
        "from lisopt.oracle import QuadratureSpec, gibbs_mean\n"
        "f = Objective(2, lambda x: np.sum(x * x + 0.2 * x**3, axis=1))\n"
        "mean = gibbs_mean(f, QuadratureSpec(((-3.0, 3.0), (-3.0, 3.0)), 1601, 2.0))\n"
        "print(hashlib.sha256(mean.tobytes()).hexdigest())\n"
    ),
    "bench_static_d12_workers2": (
        "import contextlib, hashlib, io, os, tempfile\n"
        "from lisopt import ExperimentSpec\n"
        "from lisopt.cli import main\n"
        f"spec = ExperimentSpec.from_yaml({os.path.join(CONFIGS, 'sphere_static_d12.yaml')!r})\n"
        "spec.budget, spec.trials = 100_000, 2\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    spec.csv_out = os.path.join(tmp, 'report.csv')\n"
        "    spec.svg_out = os.path.join(tmp, 'report.svg')\n"
        "    spec.to_yaml(os.path.join(tmp, 'spec.yaml'))\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['bench', '--config', os.path.join(tmp, 'spec.yaml')]) == 0\n"
        "    with open(spec.csv_out, 'rb') as fh:\n"
        "        print(hashlib.sha256(fh.read()).hexdigest())\n"
    ),
    # The caller's count, set to 2 here, reads 2 again after a guarded product.
    "restores_thread_count": (
        "import numpy as np\n"
        "from lisopt.estimators import _openblas_thread_calls, _weighted_sum\n"
        "get, set_ = _openblas_thread_calls()\n"
        "set_(2)\n"
        "_weighted_sum(np.full(250_000, 4e-6), np.ones((250_000, 12)))\n"
        "print(get())\n"
    ),
}

_no_openblas = pytest.mark.skipif(_openblas_thread_calls() is None,
                                  reason="numpy does not bundle OpenBLAS here")


@pytest.mark.parametrize("probe", [
    "run_liso_d4",
    "run_liso_d12",
    "gibbs_mean_2d",
    "bench_static_d12_workers2",
    pytest.param("restores_thread_count", marks=_no_openblas),
])
def test_average_is_blas_thread_count_invariant(probe):
    # OpenBLAS splits a large product across threads (a dot above 1e4
    # elements, a 1e5-row block at d=12), which changes the summation order.
    # Every BLAS product runs under the one-thread guard, so its bits must
    # not depend on OPENBLAS_NUM_THREADS.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lisopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path,
                   LISOPT_WORKERS="2")
        out = subprocess.run([sys.executable, "-c", _BLAS_PROBES[probe]], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(out.stdout)
    if probe == "restores_thread_count":
        assert outputs == ["2\n", "2\n"]
    else:
        assert len(outputs[0]) == 65 and outputs[0] == outputs[1]


@pytest.mark.parametrize("count,expected", [(1, ["product"]), (2, [1, "product", 2])])
def test_one_blas_thread_sets_the_count_only_when_it_differs(monkeypatch, count, expected):
    calls = []
    monkeypatch.setattr(estimators, "_openblas_thread_calls", lambda: (lambda: count, calls.append))
    assert estimators._one_blas_thread(lambda x: calls.append("product") or x, 7) == 7
    assert calls == expected


# ----------------------------------------------------------------------
# Fixed-order row sums and the in-place sampling kernels
# ----------------------------------------------------------------------

def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _extreme_rows(n, d, rng):
    """Signed magnitudes from 1e-300 to 1e300, with some +inf and signed zeros."""
    a = 10.0 ** rng.uniform(-300, 300, (n, d)) * rng.choice([-1.0, 1.0], (n, d))
    a[rng.random((n, d)) < 0.01] = np.inf
    a[rng.random((n, d)) < 0.01] = 0.0
    a[rng.random((n, d)) < 0.01] = -0.0
    return a


@pytest.mark.parametrize("n", [1, 300, 100_000])
def test_row_sum_matches_numpy_bit_for_bit(n):
    # The golden traces skip on another numpy; this pins the one assumption
    # _row_sum makes about numpy's reduction order wherever the suite runs.
    rng = np.random.default_rng(n)
    for d in range(1, 21):
        a = _extreme_rows(n, d, rng)
        if n == 1:
            a[0, :2] = -0.0  # a row of signed zeros sums to +0.0 in numpy
        layouts = {
            "C": a,
            "F": np.asfortranarray(a),
            "strided columns": np.repeat(a, 2, axis=1)[:, ::2],
            "strided rows": np.repeat(a, 2, axis=0)[::2],
        }
        for layout, view in layouts.items():
            assert _same_bits(_row_sum(view), np.sum(view, axis=1)), (d, layout)
        normal = rng.standard_normal((n, d))
        assert _same_bits(_row_sum(normal), np.sum(normal, axis=1)), d


@pytest.mark.parametrize("n", [1, 300, 100_000])
def test_sq_dev_sum_matches_numpy_bit_for_bit(n):
    # The sum of squared deviations, with and without a centre and an ``out``,
    # has the bits of the (n, d) formula on every layout.
    rng = np.random.default_rng(n + 1)
    for d in range(1, 21):
        a = _extreme_rows(n, d, rng)
        centre = _extreme_rows(1, d, rng)[0]
        centre[~np.isfinite(centre)] = 1.5
        layouts = {
            "C": a,
            "F": np.asfortranarray(a),
            "strided columns": np.repeat(a, 2, axis=1)[:, ::2],
            "strided rows": np.repeat(a, 2, axis=0)[::2],
            "normal": rng.standard_normal((n, d)),
        }
        for layout, x in layouts.items():
            for c in (None, centre):
                with np.errstate(over="ignore"):  # squares of 1e300
                    expected = np.sum((x if c is None else x - c) ** 2, axis=1)
                    assert _same_bits(_sq_dev_sum(x, c), expected), (d, layout, c)
                    buf = np.full(n, np.nan)
                    assert _sq_dev_sum(x, c, out=buf) is buf, (d, layout)
                assert _same_bits(buf, expected), (d, layout, c)


@pytest.mark.parametrize("d", [1, 4, 8, 12])
def test_log_density_batch_writes_into_out(d):
    adapted = IsotropicGaussian(mean=np.full(d, 0.25), variance=0.1)
    envelope = IsotropicGaussian(mean=np.linspace(-1.0, 1.0, d), variance=2.0)
    points = make_rng(13).standard_normal((3000, d)) * 2.0
    policies = [adapted] + [MixturePolicy(weight=w, adapted=adapted, envelope=envelope)
                            for w in (0.0, 0.3, 1.0)]
    for policy in policies:
        record = np.full(3100, np.nan)
        buf = record[100:]
        assert policy.log_density_batch(points, out=buf) is buf
        assert _same_bits(buf, policy.log_density_batch(points)), policy
        assert np.isnan(record[:100]).all()


def _old_isotropic_log_density(g, points):
    sq = np.sum((points - g.mean) ** 2, axis=1)
    return -0.5 * g.dimension * np.log(2.0 * np.pi * g.variance) - sq / (2.0 * g.variance)


@pytest.mark.parametrize("d", [1, 4, 8, 12])
def test_isotropic_kernels_match_the_one_line_formulas(d):
    g = IsotropicGaussian(mean=np.linspace(-3.0, 2.0, d), variance=0.37)
    x = g.sample(make_rng(11), 5000)
    z = make_rng(11).standard_normal((5000, d))
    assert _same_bits(x, g.mean + math.sqrt(g.variance) * z)
    points = x * 3.0 + 1.0
    assert _same_bits(g.log_density_batch(points), _old_isotropic_log_density(g, points))


@pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("d", [1, 4, 8, 12])
def test_mixture_kernels_match_the_one_line_formulas(d, weight):
    adapted = IsotropicGaussian(mean=np.full(d, 0.25), variance=0.1)
    envelope = IsotropicGaussian(mean=np.linspace(-1.0, 1.0, d), variance=2.0)
    policy = MixturePolicy(weight=weight, adapted=adapted, envelope=envelope)
    x = policy.sample(make_rng(12), 5000)
    rng = make_rng(12)
    if weight in (0.0, 1.0):
        g = envelope if weight else adapted
        expected = g.mean + math.sqrt(g.variance) * rng.standard_normal((5000, d))
    else:
        pick = rng.random(5000) < weight
        z = rng.standard_normal((5000, d))
        means = np.where(pick[:, None], envelope.mean, adapted.mean)
        stds = np.where(pick, math.sqrt(envelope.variance), math.sqrt(adapted.variance))
        expected = means + stds[:, None] * z
    assert _same_bits(x, expected)

    a = _old_isotropic_log_density(adapted, x)
    b = _old_isotropic_log_density(envelope, x)
    if weight == 0.0:
        expected = a
    elif weight == 1.0:
        expected = b
    else:
        a = a + math.log1p(-weight)
        b = b + math.log(weight)
        m = np.maximum(a, b)
        expected = m + np.log(np.exp(a - m) + np.exp(b - m))
    assert _same_bits(policy.log_density_batch(x), expected)
