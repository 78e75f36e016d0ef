"""Every count lisopt takes follows one rule, ``estimators._count``: an int or
a numpy integer, not a bool, within the parameter's bounds (at most
2**63 - 1, except a seed, which is any integer).  Anything else raises a
ValueError naming the parameter before any evaluation: never a TypeError, an
OverflowError, a numpy error or a run on a truncated value."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lisopt import (AdaptiveConfig, IsotropicGaussian, MixturePolicy, Objective, alpha_schedule, benchmark,
                    bootstrap_stderr, default_checkpoints, derive_seed, isotropic_es_recombination_weights,
                    liso_from_sample, make_rng, run_adaptive_liso, run_isotropic_es, run_liso)

INT64_MAX = 2**63 - 1
# An accepted count above this is not passed where the call allocates that many
# points, grid nodes, weights or resamples; every drawn count below 2**63 is under it.
SMALL = 1000
BUDGET = 300

Q0 = IsotropicGaussian(np.zeros(2), 1.0)
ENVELOPE = IsotropicGaussian(np.ones(2), 4.0)
POINTS = make_rng(0).standard_normal((20, 2))
VALUES = (POINTS**2).sum(axis=1)


def run(objective, **fields):
    """Adaptive softmin averaging on a config of budget 300 with ``fields``."""
    return run_adaptive_liso(objective, AdaptiveConfig(
        **{"budget": BUDGET, "alpha0": 1.0, "q0": Q0, "seed": 1, **fields}))


# site -> (parameter, least, most, allocates, call(x, objective)); None bounds: any integer.
SITES = {
    "IsotropicGaussian.sample": ("count", 1, INT64_MAX, True, lambda x, f: Q0.sample(make_rng(0), x)),
    "MixturePolicy.sample": ("count", 1, INT64_MAX, True,
                             lambda x, f: MixturePolicy(0.3, Q0, ENVELOPE).sample(make_rng(0), x)),
    "Objective": ("dimension", 1, INT64_MAX, False, lambda x, f: Objective(x, lambda p: p[:, 0])),
    "alpha_schedule.n": ("n", 1, INT64_MAX, False, lambda x, f: alpha_schedule(1.0, x, 2)),
    "alpha_schedule.d": ("d", 1, INT64_MAX, False, lambda x, f: alpha_schedule(1.0, 10, x)),
    "default_checkpoints.budget": ("budget", 1, INT64_MAX, False, lambda x, f: default_checkpoints(x)),
    "default_checkpoints.count": ("count", 1, INT64_MAX, True,
                                  lambda x, f: default_checkpoints(1000, count=x)),
    "default_checkpoints.start": ("start", 1, INT64_MAX, False,
                                  lambda x, f: default_checkpoints(1000, start=x)),
    "AdaptiveConfig.budget": ("budget", 1, INT64_MAX, True, lambda x, f: run(f, budget=x)),
    "AdaptiveConfig.batch_size": ("batch_size", 1, INT64_MAX, False, lambda x, f: run(f, batch_size=x)),
    "AdaptiveConfig.seed": ("seed", None, None, False, lambda x, f: run(f, seed=x)),
    "AdaptiveConfig.checkpoints": ("checkpoints", 1, BUDGET, False,
                                   lambda x, f: run(f, checkpoints=[x, BUDGET])),
    "isotropic_es_recombination_weights": ("batch_size", 2, INT64_MAX, True,
                                           lambda x, f: isotropic_es_recombination_weights(x)),
    "bootstrap_stderr": ("resamples", 2, INT64_MAX, True,
                         lambda x, f: bootstrap_stderr(POINTS, -VALUES, make_rng(0), resamples=x)),
    "liso_from_sample.checkpoints": ("checkpoints", 1, len(POINTS), False,
                                     lambda x, f: liso_from_sample(POINTS, VALUES, [x], alpha0=1.0)),
}

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
COUNTS = st.one_of(
    st.booleans(),
    st.integers(-3, 128),
    st.integers(2**63 - 2, 2**90),
    st.integers(-3, 128).map(float),  # integral floats
    st.floats(allow_nan=True, allow_infinity=True),
    st.tuples(st.sampled_from(NUMPY_INTS), st.integers(0, 127)).map(lambda t: t[0](t[1])),
    st.sampled_from([np.int8(-3), np.int64(-1), np.int64(INT64_MAX), np.uint64(2**63), np.uint64(2**64 - 1)]),
    st.floats(-3, 128).map(np.float64),
    st.integers(0, 128).map(np.float32),
)


@pytest.mark.parametrize("site", sorted(SITES))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(x=COUNTS)
@example(x=1000.0)
@example(x=True)
@example(x=2**63)
@example(x=2.5)
@example(x=1.5)
@example(x=np.float64(3.0))
@example(x=0)
@example(x=np.int8(127))
def test_a_count_is_an_integer_in_its_bounds_or_a_value_error_naming_it(site, x):
    name, least, most, allocates, call = SITES[site]
    objective = benchmark("sphere", 2)
    integer = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    if integer and (least is None or least <= x <= most):
        if not (allocates and x > SMALL):
            call(x, objective)
        return
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(x, objective)
    assert objective.eval_count == 0


def test_a_config_keeps_its_numpy_counts_and_runs_them_as_ints():
    # A numpy integer is a count like its int: int8 arithmetic on a batch of
    # 100 within a budget of 300 would overflow, and a negative int8 seed
    # cannot be masked to 64 bits in its own type.
    fields = {"budget": np.uint16(BUDGET), "batch_size": np.int8(100), "seed": np.int8(-3)}
    config = AdaptiveConfig(alpha0=1.0, q0=Q0, **fields)
    assert all(getattr(config, k) is v for k, v in fields.items())
    as_ints = AdaptiveConfig(alpha0=1.0, q0=Q0, budget=BUDGET, batch_size=100, seed=-3)
    assert make_rng(np.int8(-3)).bit_generator.state == make_rng(-3).bit_generator.state
    assert derive_seed(np.int8(-3), 5) == derive_seed(-3, 5)
    for driver in (run_adaptive_liso, run_isotropic_es, run_liso):
        objective = benchmark("sphere", 2)
        mu, trace = driver(objective, config)
        want_mu, want = driver(benchmark("sphere", 2), as_ints)
        assert objective.eval_count == BUDGET
        assert mu.tobytes() == want_mu.tobytes() and trace.estimates.tobytes() == want.estimates.tobytes()
