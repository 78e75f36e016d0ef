"""Every number lisopt takes follows one of the rules of ``estimators``.

A count (``_count``) is an int or a numpy integer, not a bool, within the
parameter's bounds (at most 2**63 - 1, except a seed, which is any integer).
A real (``_real``, ``_positive_finite``) is a ``numbers.Real``, not a bool,
whose float is finite and within the parameter's range, and it is used as
that float.  An array (``_real_array``) is a real, an ndarray of integer or
float dtype, or a nested sequence of reals, and it is used as its float64
array.  Anything else raises a ValueError naming the parameter before any
evaluation (an EvaluationError where an objective takes its points): never a
TypeError, an OverflowError, a numpy error or a run on a truncated or
converted value."""

import math
import numbers
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lisopt import (CUBIC_DOMAIN, AdaptiveConfig, EvaluationError, ExperimentReport, ExperimentSpec,
                    IsotropicGaussian, MethodStats, MixturePolicy, Objective, QuadratureSpec, alpha_schedule,
                    benchmark, bootstrap_stderr, cubic_perturbed_quadratic, default_checkpoints, derive_seed,
                    fit_loglog_slope, isotropic_es_recombination_weights, laplace_gap, laplace_log_weights,
                    liso_from_sample, make_rng, normalized_weights, run_adaptive_liso, run_isotropic_es, run_liso,
                    self_normalized_average)
from lisopt.estimators import _real_array

INT64_MAX = 2**63 - 1
# An accepted count above this is not passed where the call allocates that many
# points, grid nodes, weights or resamples; every drawn count below 2**63 is under it.
SMALL = 1000
BUDGET = 300

Q0 = IsotropicGaussian(np.zeros(2), 1.0)
ENVELOPE = IsotropicGaussian(np.ones(2), 4.0)
POINTS = make_rng(0).standard_normal((20, 2))
VALUES = (POINTS**2).sum(axis=1)


def config(**fields):
    """A config of budget 300 on sphere d=2 with ``fields``."""
    return AdaptiveConfig(**{"budget": BUDGET, "alpha0": 1.0, "q0": Q0, "seed": 1, **fields})


def run(objective, **fields):
    """Adaptive softmin averaging on ``config(**fields)``."""
    return run_adaptive_liso(objective, config(**fields))


def spec(**fields):
    """A one-trial liso spec of sphere d=2 and budget 300 with ``fields``; an
    integer dimension up to 1000 gets a q0_center of its length."""
    d = fields.get("dimension", 2)
    small = isinstance(d, (int, np.integer)) and not isinstance(d, bool) and 0 <= d <= SMALL
    return ExperimentSpec(**{"objective": "sphere", "dimension": 2, "methods": ["liso"], "budget": BUDGET,
                             "seed": 0, "alpha0": 1.0, "q0_center": [0.0] * (d if small else 2),
                             "q0_variance": 1.0, "trials": 1, **fields})


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
    "make_rng": ("seed", None, None, False, lambda x, f: make_rng(x)),
    "derive_seed.seed": ("seed", None, None, False, lambda x, f: derive_seed(x, 0)),
    "derive_seed.index": ("index", None, None, False, lambda x, f: derive_seed(0, x)),
    "QuadratureSpec.grid_points": ("grid_points", 3, INT64_MAX, False,  # and odd
                                   lambda x, f: QuadratureSpec(((0.0, 1.0),), x)),
    "run_isotropic_es.batch_size": ("batch_size", 2, INT64_MAX, False,
                                    lambda x, f: run_isotropic_es(f, config(batch_size=x))),
    "ExperimentSpec.dimension": ("dimension", 1, INT64_MAX, True, lambda x, f: spec(dimension=x)),
    "ExperimentSpec.checkpoint_count": ("checkpoint_count", 1, 10**6, True,
                                        lambda x, f: spec(checkpoint_count=x)),
    **{f"ExperimentSpec.{name}": (name, least, None if least is None else INT64_MAX, False,
                                  lambda x, f, name=name: spec(**{name: x}))
       for name, least in (("budget", 1), ("seed", None), ("trials", 1), ("batch_size", 1),
                           ("checkpoint_start", 1))},
}
ODD = {"QuadratureSpec.grid_points"}  # sites that also refuse an even count

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
@example(x=2**63 + 1)
@example(x=1)
@example(x=2.5)
@example(x=1.5)
@example(x=np.float64(3.0))
@example(x=0)
@example(x=np.int8(127))
def test_a_count_is_an_integer_in_its_bounds_or_a_value_error_naming_it(site, x):
    name, least, most, allocates, call = SITES[site]
    objective = benchmark("sphere", 2)
    integer = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    if integer and (least is None or least <= x <= most) and (site not in ODD or x % 2 == 1):
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


def real_value(x):
    """float(x) for a finite real number that is not a bool, else None."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        v = float(x)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def positive(v):
    return v > 0


def unit(v):
    return 0 <= v <= 1


def schedule_finite(n):
    """alpha0 > 0 whose temperature alpha0 * n**(2/(d+2)) at d = 2 stays finite."""
    return lambda v: v > 0 and math.isfinite(v * float(n) ** 0.5)


def draws_fit(center=0.0, variance=1.0):
    """Whether a one-trial d=2 spec's squared errors cannot overflow (the spec's bound)."""
    bound = 2 * (abs(center) + 10.0 * math.sqrt(variance)) * (abs(center) + 10.0 * math.sqrt(variance))
    return math.isfinite(bound * bound)


# site -> (refusal, accepts(float), None accepted, call(x, objective)).  The
# refusal names the parameter: it "must" be something, or, for a real whose
# temperature or draws would overflow in the run, it "is too large"; an alpha0
# left out with no fixed_alpha asks for one of the two.
ALPHA0 = "^alpha0 (must |is too large)|^give alpha0 or fixed_alpha$"
REAL_SITES = {
    "AdaptiveConfig.alpha0": (ALPHA0, schedule_finite(BUDGET), False, lambda x, f: run(f, alpha0=x)),
    "AdaptiveConfig.fixed_alpha": ("^fixed_alpha must ", positive, True, lambda x, f: run(f, fixed_alpha=x)),
    "AdaptiveConfig.sigma2": ("^sigma2 must ", positive, True, lambda x, f: run(f, sigma2=x)),
    "AdaptiveConfig.mixture_weight": ("^mixture_weight must ", unit, False,
                                      lambda x, f: run(f, mixture_weight=x)),
    "IsotropicGaussian.variance": ("^variance must ", positive, False,
                                   lambda x, f: IsotropicGaussian(np.zeros(2), x)),
    "MixturePolicy.weight": ("^mixture weight must ", unit, False,
                             lambda x, f: MixturePolicy(x, Q0, ENVELOPE)),
    "QuadratureSpec.alpha": ("^alpha must ", positive, False,
                             lambda x, f: QuadratureSpec(((0.0, 1.0),), 5, x)),
    "alpha_schedule": ("^alpha0 must ", positive, False, lambda x, f: alpha_schedule(x, 10, 2)),
    "laplace_log_weights": ("^alpha must ", positive, False,
                            lambda x, f: laplace_log_weights(x, VALUES, np.zeros(len(VALUES)))),
    "liso_from_sample.alpha0": (ALPHA0, schedule_finite(len(POINTS)), False,
                                lambda x, f: liso_from_sample(POINTS, VALUES, alpha0=x)),
    "liso_from_sample.fixed_alpha": ("^fixed_alpha must ", positive, True, lambda x, f: liso_from_sample(
        POINTS, VALUES, alpha0=1.0, fixed_alpha=x)),
    "ExperimentSpec.alpha0": ("^alpha0 (must |is too large)", schedule_finite(BUDGET), False,
                              lambda x, f: spec(alpha0=x)),
    "ExperimentSpec.q0_variance": ("^q0_variance (must |is too large)",
                                   lambda v: v > 0 and draws_fit(variance=v), False,
                                   lambda x, f: spec(q0_variance=x)),
    "ExperimentSpec.sigma2": ("^sigma2 (must |is too large)",
                              lambda v: v > 0 and draws_fit(variance=max(v, 1.0)), True,
                              lambda x, f: spec(sigma2=x)),
    "ExperimentSpec.mixture_weight": ("^mixture_weight must ", unit, False,
                                      lambda x, f: spec(mixture_weight=x)),
    "ExperimentSpec.q0_center": ("^q0_center (entries must |is too large)", lambda v: draws_fit(center=v),
                                 False, lambda x, f: spec(q0_center=[x, 0.0])),
}

REALS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(),  # with NaN, +-inf and subnormals
    st.floats(-1.0, 2.0),
    st.decimals(allow_nan=False, allow_infinity=False, places=2),
    st.fractions(max_denominator=100),
    st.complex_numbers(max_magnitude=10.0),
    st.integers(-3, 10**6),
    st.sampled_from([10**400, -(10**400), Fraction(10**400, 3), 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.tuples(st.sampled_from((np.int8, np.int32, np.int64, np.uint8, np.uint64)), st.integers(0, 127)).map(
        lambda t: t[0](t[1])),
)


@pytest.mark.parametrize("site", sorted(REAL_SITES))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(x=REALS)
@example(x=True)
@example(x=None)
@example(x="1.0")
@example(x=Decimal("0.5"))
@example(x=Fraction(5, 2))
@example(x=1j)
@example(x=10**400)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=math.nan)
@example(x=5e-324)
@example(x=np.float32(0.5))
@example(x=np.int64(1))
@example(x=1.7e308)
def test_a_real_is_a_finite_real_number_in_its_range_or_a_value_error_naming_it(site, x):
    refusal, accepts, optional, call = REAL_SITES[site]
    objective = benchmark("sphere", 2)
    v = real_value(x)
    if x is None and optional or v is not None and accepts(v):
        call(x, objective)
        return
    with pytest.raises(ValueError, match=refusal):
        call(x, objective)
    assert objective.eval_count == 0


@pytest.mark.parametrize("x", [np.float32(0.3), Fraction(3, 10)], ids=["float32", "Fraction"])
@pytest.mark.parametrize("field", ["alpha0", "sigma2", "variance", "fixed_alpha"])
def test_a_real_runs_with_the_bits_of_its_float(field, x):
    # A float32 and a Fraction each have their own arithmetic; the config and
    # the Gaussian store their float, so a run has the bits of float(x).
    def traces(value):
        fields = {"alpha0": 1.0, "q0": Q0, field: value}
        if field == "variance":
            fields["q0"] = IsotropicGaussian(np.zeros(2), fields.pop("variance"))
        cfg = config(**fields)
        assert type(cfg.q0.variance) is float and all(
            type(getattr(cfg, name)) is float for name in ("alpha0", "sigma2", "fixed_alpha")
            if getattr(cfg, name) is not None)
        runs = (driver(benchmark("sphere", 2), cfg) for driver in (run_liso, run_adaptive_liso))
        return [(mu.tobytes(), trace.estimates.tobytes(), trace.squared_errors.tobytes(), trace.ess.tobytes())
                for mu, trace in runs]

    assert traces(x) == traces(float(x))


@pytest.mark.parametrize("dtype", NUMPY_INTS)
def test_an_integer_array_of_checkpoints_of_any_dtype_gives_its_grid(dtype):
    def grid(checkpoints):  # a budget that every dtype holds
        return config(budget=120, checkpoints=np.array(checkpoints, dtype=dtype)).grid

    assert grid([5, 100, 5]).tolist() == [5, 100, 120] and grid([5, 100, 5]).dtype == np.int64
    assert grid([[7, 5], [120, 120]]).tolist() == [5, 7, 120]
    for outside in ([0, 5], [5, 121]):
        with pytest.raises(ValueError, match=r"^checkpoints must lie in \[1, budget\]$"):
            grid(outside)


@pytest.mark.parametrize("checkpoints,message", [
    (np.array([5, 2**63], dtype=np.uint64), r"checkpoints must lie in \[1, budget\]"),
    (np.array([], dtype=np.int64), r"checkpoints must lie in \[1, budget\]"),
    (np.array([True, False]), "checkpoints must be an integer, got True"),
    (np.array([5.0, 300.0]), "checkpoints must be an integer, got 5.0"),
    ([5, True, 300], "checkpoints must be an integer, got True"),
], ids=["uint64_above_int64", "empty", "bool_array", "integral_floats", "list_with_a_bool"])
def test_checkpoints_that_are_not_counts_in_the_budget_are_refused_by_name(checkpoints, message):
    # Each entry is checked with _count, an array's as a list's (numpy would
    # turn the list [5, True] into [5, 1]).
    with pytest.raises(ValueError, match=f"^{message}$"):
        config(checkpoints=checkpoints)


NS = np.array([100, 200, 400, 800, 1600, 3200])
POWER_LAW = ExperimentReport(methods={"m": MethodStats(NS, 3.0 * NS**-0.5, np.zeros(6), np.zeros(6), 5)})


@pytest.mark.parametrize("n_range,message", [
    (("a", 1000), "n_range must be a real number, got 'a'"),
    ((True, 1000), "n_range must be a real number, got True"),
    ((math.nan, 1000), "n_range must not be NaN, got nan"),
    ((100, Decimal(1000)), "n_range must be a real number, got Decimal('1000')"),
])
def test_each_end_of_a_slope_fit_range_is_a_real_or_an_infinity(n_range, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_loglog_slope(POWER_LAW, "m", n_range)
    whole = fit_loglog_slope(POWER_LAW, "m")
    assert fit_loglog_slope(POWER_LAW, "m", (-math.inf, math.inf)) == whole
    assert fit_loglog_slope(POWER_LAW, "m", (np.float32(100), Fraction(3200))) == whole


# site -> (parameter, error class, shape of x, call(x, objective)); each call
# returns what it made of x, so that an accepted x can be compared with its
# float64 array.
ARRAY_SITES = {
    "_checked_points": ("points", ValueError, (3, 2), lambda x, f: self_normalized_average(x, np.zeros(3))),
    "_checked_values": ("values", ValueError, (3,), lambda x, f: laplace_log_weights(1.0, x, np.zeros(3))),
    "_checked_logq": ("sample log-densities", ValueError, (3,),
                      lambda x, f: laplace_log_weights(1.0, np.arange(3.0), x)),
    "_checked_log_weights": ("log-weights", ValueError, (3,), lambda x, f: normalized_weights(x)),
    "IsotropicGaussian.mean": ("mean", ValueError, (2,),
                               lambda x, f: IsotropicGaussian(x, 1.0).sample(make_rng(0), 4)),
    "IsotropicGaussian.log_density_batch": ("points", ValueError, (3, 2), lambda x, f: Q0.log_density_batch(x)),
    "Objective.__call__": ("x", EvaluationError, (2,), lambda x, f: f(x)),
    "Objective.evaluate_batch": ("points", EvaluationError, (3, 2), lambda x, f: f.evaluate_batch(x)),
    "Objective.evaluate_batch.values": ("evaluator values", EvaluationError, (3,),
                                       lambda x, f: Objective(2, lambda p: x).evaluate_batch(np.zeros((3, 2)))),
    "Objective.known_minimizer": ("known_minimizer", ValueError, (2,),
                                  lambda x, f: Objective(2, lambda p: p[:, 0], known_minimizer=x).known_minimizer),
    "AdaptiveConfig.projection_box": ("projection_box", ValueError, (2,),
                                      lambda x, f: config(projection_box=(x, np.full(2, 1e3))).projection_box[0]),
    "laplace_gap.minimizer": ("minimizer", ValueError, (1,), lambda x, f: laplace_gap(
        cubic_perturbed_quadratic, x, CUBIC_DOMAIN, [1.0], grid_points=5)),
}
OPTIONAL = {"Objective.known_minimizer"}  # None: no minimizer is known


def nested(base, entry):
    """``base`` as nested lists of ``entry(value)``."""
    return np.vectorize(entry, otypes=[object])(base).tolist()


# form -> x made of a base float64 array; accepted forms and refused forms.
ACCEPTED = {
    "float64": lambda b: b,
    "float32": lambda b: b.astype(np.float32),
    "floats": lambda b: b.tolist(),
    "fractions": lambda b: nested(b, lambda v: Fraction(v).limit_denominator(7)),
    **{t.__name__: lambda b, t=t: np.rint(np.abs(b) if np.issubdtype(t, np.unsignedinteger) else b).astype(t)
       for t in NUMPY_INTS},
}
REFUSED = {
    "bool array": lambda b: b > 0,
    "str array": lambda b: b.astype(str),
    "complex array": lambda b: b.astype(complex),
    "object array": lambda b: np.array(nested(b, Decimal), dtype=object),
}
BAD_ENTRIES = [True, np.True_, "1.0", b"1", 1j, None, Decimal("1.5"), 10**400, Fraction(10**400, 3)]
FORMS = st.one_of(
    st.sampled_from(sorted(ACCEPTED)),
    st.sampled_from(sorted(REFUSED)),
    st.tuples(st.sampled_from(BAD_ENTRIES), st.booleans()),  # the value itself, or one entry of a float list
)


def made(form, base):
    """The x of ``form`` on ``base``, and whether the rule accepts it."""
    if isinstance(form, str):
        return (ACCEPTED.get(form) or REFUSED[form])(base), form in ACCEPTED
    bad, as_entry = form
    if not as_entry:
        return bad, False
    x = nested(base, float)
    row = x[-1] if isinstance(x[-1], list) else x  # the last row's last entry
    row[-1] = bad
    return x, False


@pytest.mark.parametrize("site", sorted(ARRAY_SITES))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(form=FORMS, seed=st.integers(0, 2**16))
@example(form="float32", seed=0)
@example(form="int8", seed=0)
@example(form="uint64", seed=0)
@example(form="fractions", seed=0)
@example(form="bool array", seed=0)
@example(form=(True, True), seed=0)
@example(form=(None, False), seed=0)
@example(form=(10**400, True), seed=0)
@example(form=(b"1", False), seed=0)
def test_an_array_holds_real_numbers_or_a_value_error_naming_it(site, form, seed):
    name, error, shape, call = ARRAY_SITES[site]
    base = 3.0 * make_rng(seed).standard_normal(shape)
    x, accepted = made(form, base)
    objective = benchmark("sphere", 2)
    if x is None and site in OPTIONAL:
        assert call(x, objective) is None
        return
    if accepted:
        got, want = call(x, objective), call(np.asarray(x, dtype=float), benchmark("sphere", 2))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        return
    with pytest.raises(error, match=f"^{re.escape(name)} must "):
        call(x, objective)
    assert objective.eval_count == 0


RAGGED = {
    "blocks": [np.zeros((2, 2)), np.zeros((2, 3))],  # numpy cannot stack them
    "rows": [[1.0, 2.0], [3.0]],  # numpy would make an array of two lists
}


@pytest.mark.parametrize("ragged", sorted(RAGGED))
@pytest.mark.parametrize("site", sorted(ARRAY_SITES))
def test_a_ragged_sequence_is_named_as_one(site, ragged):
    name, error, _, call = ARRAY_SITES[site]
    objective = benchmark("sphere", 2)
    with pytest.raises(error, match=f"^{re.escape(name)} must .*, got a ragged sequence$"):
        call(RAGGED[ragged], objective)
    assert objective.eval_count == 0


def test_a_float64_array_is_taken_as_it_is_and_a_frozen_one_is_copied():
    points = make_rng(0).standard_normal((3, 2))
    assert _real_array("points", points) is points
    frozen = _real_array("points", points, frozen=True)
    assert frozen is not points and not frozen.flags.writeable and frozen.tobytes() == points.tobytes()
    assert points.flags.writeable
