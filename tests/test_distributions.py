import math

import numpy as np
import pytest

from lisopt import IsotropicGaussian, MixturePolicy, derive_seed, make_rng


def _at(policy, x):
    """The log-density of ``policy`` at the one point x."""
    return policy.log_density_batch(np.asarray(x, dtype=float)[None])[0]


def test_gaussian_log_density_spot_values():
    g = IsotropicGaussian(mean=np.zeros(1), variance=1.0)
    assert _at(g, np.zeros(1)) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-6)
    g2 = IsotropicGaussian(mean=np.array([1.3, -0.7]), variance=1.0)
    assert _at(g2, g2.mean) == pytest.approx(-math.log(2 * math.pi), abs=1e-6)


def test_gaussian_translation_invariance_exact():
    rng = make_rng(0)
    for _ in range(20):
        mu = rng.standard_normal(3)
        x = rng.standard_normal(3)
        c = rng.standard_normal(3)
        a = _at(IsotropicGaussian(mean=mu, variance=0.7), x)
        b = _at(IsotropicGaussian(mean=mu + c, variance=0.7), x + c)
        # (x + c) - (mu + c) == x - mu exactly in IEEE arithmetic is not
        # guaranteed; the identity holds exactly when evaluated on the same
        # difference, so allow one ulp of slack.
        assert a == pytest.approx(b, rel=1e-15, abs=1e-12)


def test_gaussian_density_integrates_to_one():
    g = IsotropicGaussian(mean=np.array([0.4]), variance=2.3)
    sd = math.sqrt(g.variance)
    xs = np.linspace(g.mean[0] - 10 * sd, g.mean[0] + 10 * sd, 20001)
    dens = np.exp(g.log_density_batch(xs[:, None]))
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        IsotropicGaussian(mean=np.zeros(2), variance=0.0)
    with pytest.raises(ValueError):
        IsotropicGaussian(mean=np.array([np.inf]), variance=1.0)


def test_a_gaussian_keeps_its_own_read_only_mean():
    m = np.zeros(2)
    q0 = IsotropicGaussian(m, 1.0)
    m[0] = np.nan  # the caller's array, not the policy's
    assert np.array_equal(q0.mean, [0.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        q0.mean[0] = 1.0


@pytest.mark.parametrize("weight", [None, 0.0, 0.5, 1.0])
def test_log_density_rejects_points_of_the_wrong_dimension(weight):
    g = IsotropicGaussian(mean=np.zeros(3), variance=1.0)
    policy = g if weight is None else MixturePolicy(weight, g, g)
    message = r"expected an \(m, 3\) array of points, got shape \(1, 1\)"
    with pytest.raises(ValueError, match=message):
        policy.log_density_batch(np.array([[0.5]]))


def test_mixture_degenerate_weights_are_bit_exact():
    a = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    b = IsotropicGaussian(mean=np.ones(2), variance=2.0)
    x = np.array([0.3, -0.4])
    assert _at(MixturePolicy(0.0, a, b), x) == _at(a, x)
    assert _at(MixturePolicy(1.0, a, b), x) == _at(b, x)


def test_mixture_of_identical_components_is_the_component():
    a = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    m = MixturePolicy(0.5, a, a)
    x = np.array([0.1, 2.0])
    assert _at(m, x) == pytest.approx(_at(a, x), abs=1e-12)


def test_mixture_lower_envelope_bound():
    adapted = IsotropicGaussian(mean=np.full(2, 5.0), variance=0.1)
    envelope = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    lam = 0.25
    m = MixturePolicy(lam, adapted, envelope)
    rng = make_rng(3)
    pts = rng.standard_normal((500, 2)) * 4
    lower = math.log(lam) + envelope.log_density_batch(pts)
    assert np.all(m.log_density_batch(pts) >= lower - 1e-12)
    # full support: log-density is finite everywhere sampled
    assert np.all(np.isfinite(m.log_density_batch(pts)))


def test_mixture_validation():
    a = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    with pytest.raises(ValueError):
        MixturePolicy(1.5, a, a)
    with pytest.raises(ValueError):
        MixturePolicy(0.5, a, IsotropicGaussian(mean=np.zeros(3), variance=1.0))


def test_sampling_tiny_variance_collapses_to_mean():
    c = np.array([2.0, -3.0])
    g = IsotropicGaussian(mean=c, variance=1e-20)
    samples = g.sample(make_rng(1), 100)
    assert np.max(np.abs(samples - c)) < 1e-8


def test_sampling_is_seed_deterministic():
    g = IsotropicGaussian(mean=np.zeros(2), variance=1.0)
    a = g.sample(make_rng(7), 5)
    b = g.sample(make_rng(7), 5)
    assert np.array_equal(a, b)
    m = MixturePolicy(0.3, g, IsotropicGaussian(mean=np.ones(2), variance=2.0))
    assert np.array_equal(m.sample(make_rng(7), 5), m.sample(make_rng(7), 5))


def test_sampling_empirical_mean_within_clt_bound():
    mu = np.array([1.0, -2.0, 0.5])
    g = IsotropicGaussian(mean=mu, variance=1.0)
    samples = g.sample(make_rng(11), 10**6)
    # 4 standard errors of the mean at n = 1e6, sigma = 1
    assert np.all(np.abs(samples.mean(axis=0) - mu) < 4e-3)


def test_mixture_sampling_hits_both_components():
    adapted = IsotropicGaussian(mean=np.full(1, -50.0), variance=0.01)
    envelope = IsotropicGaussian(mean=np.full(1, 50.0), variance=0.01)
    m = MixturePolicy(0.5, adapted, envelope)
    samples = m.sample(make_rng(5), 200)
    frac_envelope = np.mean(samples[:, 0] > 0)
    assert 0.3 < frac_envelope < 0.7


def test_derived_streams_are_reproducible_and_distinct():
    a1 = make_rng(derive_seed(99, 0)).standard_normal(4)
    a2 = make_rng(derive_seed(99, 0)).standard_normal(4)
    b = make_rng(derive_seed(99, 1)).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert derive_seed(99, 0) != derive_seed(99, 1)


def _policies(d=3):
    q0 = IsotropicGaussian(mean=np.full(d, 2.0), variance=0.5)
    adapted = IsotropicGaussian(mean=np.linspace(-1.0, 1.0, d), variance=0.3)
    return [q0] + [MixturePolicy(weight=w, adapted=adapted, envelope=q0) for w in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize("policy", _policies(), ids=["gaussian", "mix0", "mix0.3", "mix1"])
def test_sampling_into_a_buffer_gives_the_same_bits_and_stream(policy):
    expected_rng, rng = make_rng(9), make_rng(9)
    record = np.full((40, 3), np.nan)
    for lo, k in ((0, 7), (7, 30), (37, 3)):  # consecutive rows of one record
        expected = policy.sample(expected_rng, k)
        buf = record[lo:lo + k]
        assert policy.sample(rng, k, out=buf) is buf
        assert buf.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    with pytest.raises(ValueError):
        policy.sample(rng, 4, out=np.empty((5, 3)))
