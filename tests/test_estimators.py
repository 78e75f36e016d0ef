import math
import os
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
    bootstrap_stderr,
    effective_sample_size,
    laplace_log_weights,
    make_rng,
    normalized_weights,
    self_normalized_average,
)


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


_BLAS_PROBE = (
    "import hashlib, numpy as np\n"
    "from lisopt import IsotropicGaussian, StaticConfig, benchmark, run_liso\n"
    "q0 = IsotropicGaussian(mean=np.full(4, 0.5), variance=0.25)\n"
    "_, trace = run_liso(benchmark('sphere', 4),"
    " StaticConfig(budget=150_000, alpha0=1.0, q0=q0, seed=3))\n"
    "print(hashlib.sha256(trace.estimates.tobytes()).hexdigest())\n"
)


def test_average_is_blas_thread_count_invariant():
    # Above ~1.2e5 rows OpenBLAS splits one product across threads, which
    # changes the summation order; blocked sums must not depend on it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lisopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
