import concurrent.futures
import copy
import ctypes
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisopt import (
    AdaptiveConfig,
    ExperimentReport,
    ExperimentSpec,
    IsotropicGaussian,
    MethodStats,
    Objective,
    benchmark,
    default_checkpoints,
    derive_seed,
    emit_csv,
    emit_svg_plot,
    fit_loglog_slope,
    parse_csv,
    run_experiment,
    run_liso,
    run_random_search,
)
from lisopt import estimators, harness, optimizers
from lisopt.harness import CSV_HEADER, ConfigError, _run_trial, _worker_count, csv_string, svg_string


def small_spec(**overrides):
    kw = dict(
        objective="sphere",
        dimension=2,
        methods=["liso", "random_search"],
        budget=400,
        seed=7,
        alpha0=1.0,
        q0_center=[0.7, 0.7],
        q0_variance=0.5,
        trials=4,
        checkpoint_start=50,
        checkpoint_count=8,
    )
    kw.update(overrides)
    return ExperimentSpec(**kw)


def synthetic_report(power=-0.5, scale=2.0, methods=("m",)):
    cps = np.unique(np.geomspace(100, 10**4, 12).astype(int))
    out = {}
    for m in methods:
        mse = scale * cps.astype(float) ** power
        out[m] = MethodStats(
            checkpoints=cps,
            mean_mse=mse,
            std=mse / 10,
            ci_half_width=mse / 20,
            trials=10,
        )
    return ExperimentReport(methods=out)


# ----------------------------------------------------------------------
# Spec validation and config files
# ----------------------------------------------------------------------

def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        small_spec(objective="nope")
    with pytest.raises(ConfigError):
        small_spec(methods=[])
    with pytest.raises(ConfigError):
        small_spec(methods=["gradient_descent"])
    with pytest.raises(ConfigError):
        small_spec(q0_center=[0.7])
    with pytest.raises(ConfigError):
        small_spec(trials=0)


def test_yaml_round_trip_and_unknown_key_rejection(tmp_path):
    path = tmp_path / "spec.yaml"
    for spec in (small_spec(), small_spec(budget=np.int64(400), alpha0=2),
                 small_spec(q0_center=list(np.array([0.7, 0.7]))),
                 small_spec(q0_center=(0.7, 0.7))):
        spec.to_yaml(str(path))
        assert "config" not in path.read_text()
        loaded = ExperimentSpec.from_yaml(str(path))
        assert loaded == spec

    path.write_text(path.read_text() + "tpyo_key: 3\n")
    with pytest.raises(ConfigError, match="tpyo_key"):
        ExperimentSpec.from_yaml(str(path))


@pytest.mark.parametrize("field,value", [
    ("budget", 1000.0),
    ("dimension", True),
    ("seed", "7"),
    ("trials", 4.0),
    ("batch_size", None),
    ("checkpoint_start", 50.5),
    ("checkpoint_count", False),
    ("alpha0", "1.0"),
    ("alpha0", True),
    ("q0_variance", None),
    ("mixture_weight", "0"),
    ("sigma2", [0.5]),
    ("q0_center", [0.7, "0.7"]),
    ("q0_center", "0.7"),
    ("objective", 1),
    ("title", 5),
    ("csv_out", 1),
    ("svg_out", ["plot.svg"]),
    ("methods", "liso"),
    ("methods", ["liso", ["random_search"]]),
    ("q0_center", 0.5),
])
def test_spec_field_types_are_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        small_spec(**{field: value})


def test_spec_ranges_are_checked():
    for field, value in (("alpha0", 0.0), ("batch_size", 0), ("mixture_weight", 1.5),
                         ("sigma2", -1.0), ("checkpoint_start", 0), ("checkpoint_count", -3),
                         ("checkpoint_count", 10**6 + 1), ("checkpoint_count", 2**63 - 1)):
        with pytest.raises(ConfigError, match=field):
            small_spec(**{field: value})
    # numpy integers and plain ints both count as integers
    assert small_spec(budget=np.int64(400), alpha0=2).budget == 400


@pytest.mark.parametrize("field,value", [
    ("alpha0", math.inf),
    ("q0_variance", math.inf),
    ("sigma2", math.inf),
    ("mixture_weight", math.nan),
    ("q0_center", [0.7, math.nan]),
])
def test_spec_non_finite_numbers_are_config_errors(field, value):
    with pytest.raises(ConfigError, match=f"{field}.* finite"):
        small_spec(**{field: value})


def test_spec_duplicate_method_is_rejected():
    with pytest.raises(ConfigError, match="duplicate method 'liso'"):
        small_spec(methods=["liso", "random_search", "liso"])


def test_assigning_a_field_rebuilds_the_config(tmp_path, monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    spec, replaced = small_spec(), replace(small_spec(), alpha0=50.0)
    spec.alpha0 = 50
    assert spec.alpha0 == 50.0 and isinstance(spec.alpha0, float) and spec.config.alpha0 == 50.0
    assert spec == replaced and spec.config == replaced.config
    emit_csv(run_experiment(spec), str(tmp_path / "assigned.csv"))
    emit_csv(run_experiment(replaced), str(tmp_path / "replaced.csv"))
    assert (tmp_path / "assigned.csv").read_bytes() == (tmp_path / "replaced.csv").read_bytes()
    spec.budget = 800  # the checkpoint grid follows the budget
    assert spec.config.budget == 800 and spec.config.grid[-1] == 800
    assert run_experiment(spec).methods["liso"].checkpoints[-1] == 800


@pytest.mark.parametrize("field,value", [
    ("alpha0", math.inf),
    ("budget", 0),
    ("dimension", 3),
    ("methods", ["liso", "liso"]),
    ("seed", 1.5),
])
def test_an_invalid_assignment_names_the_field_and_changes_nothing(field, value):
    spec = small_spec()
    before = copy.deepcopy(spec)
    with pytest.raises(ConfigError, match=f"^cannot set {field} to "):
        setattr(spec, field, value)
    assert spec == before and spec.config == before.config


def test_isotropic_es_needs_a_batch_of_two():
    with pytest.raises(ConfigError, match="isotropic_es requires batch_size >= 2"):
        small_spec(methods=["liso", "isotropic_es"], batch_size=1)
    assert small_spec(methods=["isotropic_es"], batch_size=2).batch_size == 2
    assert small_spec(methods=["adaptive_liso"], batch_size=1).batch_size == 1


def test_sigma2_defaults_to_inverse_dimension():
    # The spec and its config keep None; the driver reads 1/d of the spec's q0,
    # also after the dimension is replaced.
    spec = small_spec(methods=["adaptive_liso"], batch_size=100, trials=1)
    assert spec.sigma2 is None and spec.config.sigma2 is None

    def errors(spec, **sigma2):
        return _run_trial(replace(spec, **sigma2), 0)["adaptive_liso"].tobytes()

    assert errors(spec) == errors(spec, sigma2=0.5)
    spec = replace(spec, dimension=8, q0_center=[0.0] * 8)
    assert errors(spec) == errors(spec, sigma2=0.125)
    assert errors(spec) != errors(spec, sigma2=0.5)


def test_sequence_fields_cannot_change_in_place():
    spec = small_spec()
    with pytest.raises(TypeError):
        spec.q0_center[0] = 5.0
    with pytest.raises(AttributeError):
        spec.methods.append("liso")
    assert spec == small_spec() and spec.config == small_spec().config
    for center in ([5.0, 0.7], (1.5, -2.0), list(np.array([0.25, 4.0]))):
        spec.q0_center = center
        assert type(spec.q0_center) is tuple
        assert np.array_equal(spec.config.q0.mean, spec.q0_center)
    spec.methods = ["random_search"]
    assert spec.methods == ("random_search",)


# Values a YAML file or a caller may hand a spec field: plain and numpy
# numbers, bools, numbers beyond an int64 or a float, strings, None, and
# lists or tuples mixing them.
_field_scalars = st.one_of(
    st.integers(-3, 3000),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, 10**30, 10**400]),
    st.booleans(),
    st.none(),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, 0.5, 2.0]),
    st.sampled_from([np.int64(3), np.int32(400), np.uint64(2**64 - 1), np.float64(0.5),
                     np.float32(2.0), np.bool_(True)]),
    st.sampled_from(["sphere", "rastrigin", "liso", "random_search", "isotropic_es", "7", ""]),
    st.text(max_size=4),
)
_field_values = st.one_of(
    _field_scalars,
    st.lists(_field_scalars, max_size=3),
    st.lists(_field_scalars, max_size=3).map(tuple),
)


def _or_numpy(values, cast):
    return values | values.map(cast)


def _list_or_tuple(values):
    return values | values.map(tuple)


# Values of the right kind, plain or numpy, so that many drawn specs build.
_counts = _or_numpy(st.integers(1, 3000), np.int64)
_reals = _or_numpy(st.floats(1e-300, 1e300), np.float64)
_strings = st.text(max_size=6)
_plausible_fields = st.fixed_dictionaries({}, optional={
    "objective": st.sampled_from(["sphere", "rastrigin", "ackley"]),
    "methods": _list_or_tuple(st.lists(st.sampled_from(["liso", "random_search", "isotropic_es"]),
                                       min_size=1, max_size=3, unique=True)),
    "budget": _counts | st.just(2**63 - 1),
    "seed": st.integers(-(2**70), 2**70) | st.integers(0, 2**64 - 1).map(np.uint64),
    "alpha0": _reals,
    "q0_center": _list_or_tuple(st.lists(_or_numpy(st.floats(-1e300, 1e300), np.float64),
                                         min_size=2, max_size=2)),
    "q0_variance": _reals,
    "trials": _counts,
    "batch_size": _counts,
    "mixture_weight": _or_numpy(st.floats(0.0, 1.0), np.float64) | st.sampled_from([0, 1]),
    "sigma2": st.none() | _reals,
    "checkpoint_start": _counts,
    "checkpoint_count": _counts,
    "title": _strings,
    "csv_out": st.none() | _strings,
    "svg_out": st.none() | _strings,
})
_FIELD_NAMES = [f.name for f in fields(ExperimentSpec)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(plausible=_plausible_fields,
       odd=st.dictionaries(st.sampled_from(_FIELD_NAMES), _field_values, max_size=2))
def test_a_spec_is_plain_or_a_config_error_naming_a_drawn_field(tmp_path_factory, plausible, odd):
    drawn = {**plausible, **odd}
    try:
        spec = small_spec(**drawn)
    except ConfigError as exc:
        assert any(name in str(exc) for name in drawn), str(exc)
        return
    for f in fields(spec):
        value = getattr(spec, f.name)
        assert type(value) in (int, float, str, tuple, type(None)), (f.name, value)
        if type(value) is tuple:
            assert all(type(v) in (float, str) for v in value), (f.name, value)
    path = tmp_path_factory.getbasetemp() / "drawn_spec.yaml"
    spec.to_yaml(str(path))
    loaded = ExperimentSpec.from_yaml(str(path))
    assert loaded == spec and loaded.config == spec.config


# ----------------------------------------------------------------------
# run_experiment
# ----------------------------------------------------------------------

def test_single_trial_statistics_are_degenerate(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    report = run_experiment(small_spec(trials=1))
    for stats in report.methods.values():
        assert stats.trials == 1
        assert np.all(stats.ci_half_width == 0)
        assert np.all(stats.std == 0)
        assert np.all(stats.mean_mse >= 0)


def test_experiment_is_seed_deterministic(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    r1 = run_experiment(small_spec())
    r2 = run_experiment(small_spec())
    assert r1 == r2
    assert csv_string(r1) == csv_string(r2)
    assert svg_string(r1) == svg_string(r2)


def test_worker_pool_matches_sequential(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    sequential = run_experiment(small_spec())
    monkeypatch.setenv("LISOPT_WORKERS", "2")
    parallel = run_experiment(small_spec())
    assert sequential == parallel


def test_pool_is_capped_at_the_trial_count(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    expected = csv_string(run_experiment(small_spec(trials=2)))
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    # run_experiment imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("LISOPT_WORKERS", "4")
    assert csv_string(run_experiment(small_spec(trials=2))) == expected
    assert sizes == [2]


def test_bad_worker_count_names_the_variable(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "abc")
    with pytest.raises(ConfigError, match="LISOPT_WORKERS"):
        run_experiment(small_spec())


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_worker_count_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("LISOPT_WORKERS", value)
    with pytest.raises(ConfigError, match="LISOPT_WORKERS must be >= 1"):
        run_experiment(small_spec())


def test_default_worker_count_is_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("LISOPT_WORKERS", raising=False)
    expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
    assert _worker_count() == expected


def test_methods_share_checkpoints(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    spec = small_spec()
    report = run_experiment(spec)
    cps = [s.checkpoints.tolist() for s in report.methods.values()]
    assert cps[0] == cps[1]
    assert all(s.checkpoints is spec.config.grid for s in report.methods.values())


def test_static_methods_share_one_draw_per_trial(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    samples, evaluated = [], []
    sample = IsotropicGaussian.sample
    evaluate = Objective.evaluate_batch
    monkeypatch.setattr(IsotropicGaussian, "sample",
                        lambda self, rng, count: samples.append(count) or sample(self, rng, count))
    monkeypatch.setattr(Objective, "evaluate_batch",
                        lambda self, p: evaluated.append(len(p)) or evaluate(self, p))
    run_experiment(small_spec(trials=3))
    assert samples == [400] * 3
    assert sum(evaluated) == 3 * 400


def test_shared_draw_matches_separate_runs():
    spec = small_spec(trials=3)
    checkpoints = default_checkpoints(spec.budget, count=spec.checkpoint_count,
                                      start=spec.checkpoint_start)
    for trial in range(spec.trials):
        errors = _run_trial(spec, trial)
        config = AdaptiveConfig(
            budget=spec.budget, alpha0=spec.alpha0, seed=derive_seed(spec.seed, trial),
            q0=IsotropicGaussian(mean=np.array(spec.q0_center), variance=spec.q0_variance),
            checkpoints=checkpoints,
        )
        for method, driver in (("liso", run_liso), ("random_search", run_random_search)):
            objective = benchmark("sphere", 2)
            _, trace = driver(objective, config)
            assert objective.eval_count == spec.budget
            assert errors[method].tobytes() == trace.squared_errors.tobytes()


def _trial_peak(name, budget):
    """tracemalloc's peak, in bytes, of the second trial of a shipped d = 4
    config of ``budget`` points."""
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.yaml")
    spec = ExperimentSpec.from_yaml(config)
    assert (spec.budget, spec.dimension) == (budget, 4)
    _run_trial(spec, 0)  # caches filled on first use are not the trial's
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _run_trial(spec, 1)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_static_trial_allocates_its_record_and_no_n_by_d_temporary():
    # A sphere_static_d4 trial (1e5 points, d = 4) keeps a 5.6 MB record: the
    # points, their values and log-densities, and one re-weighting buffer,
    # allocated after the log-densities' column scratch is freed.  One more
    # (n, d) float array would add 3.2 MB; an (n,) vector adds 0.8 MB.
    peak = _trial_peak("sphere_static_d4", 100_000)
    assert peak < 6.0e6, f"peak {peak / 1e6:.2f} MB"


def test_an_adaptive_trial_allocates_its_record_and_no_second_weight_buffer():
    # A sphere_adaptive_d4 run (9e4 points, d = 4) keeps a 5.04 MB record: the
    # points, values, log-densities and one re-weighting buffer.  One more
    # (n,) vector would add 0.72 MB.
    peak = _trial_peak("sphere_adaptive_d4", 90_000)
    assert peak < 5.5e6, f"peak {peak / 1e6:.2f} MB"


_NUMPY_MA_PROBE = """
import dataclasses, sys
import lisopt
if "numpy.ma" in sys.modules:
    sys.exit("numpy.ma preloaded")
import numpy as np
spec = lisopt.ExperimentSpec.from_yaml(sys.argv[1])
lisopt.run_experiment(dataclasses.replace(spec, trials=1))
lisopt.liso_from_sample(np.eye(3), np.arange(3.0), [2, 1, 2], alpha0=1.0)
print("numpy.ma" in sys.modules)
"""


def test_a_trial_and_an_explicit_grid_leave_numpy_ma_unloaded():
    # numpy.ma costs about 13 ms to import; np.unique's first call imports it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(optimizers.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, LISOPT_WORKERS="1")
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "sphere_static_d4.yaml")
    out = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, config], env=env,
                         capture_output=True, text=True, timeout=120)
    if out.stderr.strip() == "numpy.ma preloaded":
        pytest.skip("import lisopt already loads numpy.ma here")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def _failing_driver(objective, config, sample=None):
    raise ValueError("boom")


# A monkeypatched driver reaches the pool's workers only when they are forked.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="workers do not inherit the monkeypatch")


@needs_fork
@pytest.mark.parametrize("module, lookup", [
    pytest.param(harness, "_glibc_mallopt", id="no_mallopt"),
    pytest.param(estimators, "_openblas_thread_calls", id="no_openblas"),
])
def test_worker_count_moves_no_byte_without_the_native_calls(monkeypatch, module, lookup):
    # Without glibc's mallopt the worker initializer does nothing, and without
    # numpy's OpenBLAS the one-thread guard only runs the product; neither
    # moves a byte.  Forked workers inherit the missing lookup.
    spec = small_spec(methods=["liso", "adaptive_liso", "isotropic_es"], batch_size=50)
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    expected = csv_string(run_experiment(spec))
    monkeypatch.setattr(module, lookup, lambda: None)
    for workers in ("1", "2"):
        monkeypatch.setenv("LISOPT_WORKERS", workers)
        assert csv_string(run_experiment(spec)) == expected


def test_native_lookups_find_nothing_elsewhere(monkeypatch):
    # Another C library has no CS_GNU_LIBC_VERSION, and another BLAS build
    # exports no scipy_openblas thread calls.
    def no_glibc(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "confstr", no_glibc)
    assert harness._glibc_mallopt() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert estimators._openblas_thread_calls.__wrapped__() is None


# The in-process cases keep the ids they had before the pool cases joined them.
@pytest.mark.parametrize("method, workers", [
    pytest.param("random_search", "1", id="random_search"),
    pytest.param("adaptive_liso", "1", id="adaptive_liso"),
    pytest.param("random_search", "2", id="random_search-workers2", marks=needs_fork),
    pytest.param("adaptive_liso", "2", id="adaptive_liso-workers2", marks=needs_fork),
])
def test_abort_names_the_method_trial_and_seed(monkeypatch, method, workers):
    monkeypatch.setenv("LISOPT_WORKERS", workers)
    monkeypatch.setitem(harness.METHODS, method, (_failing_driver, 1))
    with pytest.raises(RuntimeError) as info:
        run_experiment(small_spec(methods=["liso", method]))
    assert str(info.value) == (
        f"experiment aborted in method {method}; replay with derived seed "
        f"{derive_seed(7, 0)} (trial 0): boom")


@needs_fork
def test_abort_cancels_the_trials_not_yet_started(monkeypatch, tmp_path):
    monkeypatch.setenv("LISOPT_WORKERS", "2")
    calls = tmp_path / "calls"

    def slow_driver(objective, config):
        with open(calls, "a") as fh:
            fh.write(f"{config.seed}\n")
        if config.seed == derive_seed(7, 0):
            raise ValueError("boom")
        time.sleep(0.05)
        return optimizers.run_adaptive_liso(objective, config)

    monkeypatch.setitem(harness.METHODS, "adaptive_liso", (slow_driver, 1))
    with pytest.raises(RuntimeError, match=r"\(trial 0\): boom"):
        run_experiment(small_spec(methods=["adaptive_liso"], trials=40))
    assert len(calls.read_text().splitlines()) < 20


ALL_METHODS = tuple(harness.METHODS)


@pytest.mark.parametrize("workers", ["2", "3"])
def test_a_five_method_report_is_the_same_bytes_for_any_worker_count(monkeypatch, workers):
    # Each adaptive method's run of a trial is its own task; the fold is by trial.
    spec = small_spec(methods=list(ALL_METHODS), batch_size=50, trials=3)
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    report = run_experiment(spec)
    expected = csv_string(report), svg_string(report, title=spec.title)
    monkeypatch.setenv("LISOPT_WORKERS", workers)
    report = run_experiment(spec)
    assert (csv_string(report), svg_string(report, title=spec.title)) == expected


def test_a_task_has_the_bits_of_its_whole_trial():
    # A task builds its own objective and generator, so no task's bits depend
    # on which tasks ran before it, or in which order.
    spec = small_spec(methods=list(ALL_METHODS), batch_size=50, trials=2)
    for trial in reversed(range(spec.trials)):
        whole = _run_trial(spec, trial)
        for group in (("liso", "random_search"),) + tuple((m,) for m in ALL_METHODS[2:]):
            alone = _run_trial(spec, trial, group)
            assert {m: e.tobytes() for m, e in alone.items()} == {m: whole[m].tobytes() for m in group}


@needs_fork
def test_a_failing_adaptive_task_aborts_a_mixed_spec_and_cancels_the_rest(monkeypatch, tmp_path):
    monkeypatch.setenv("LISOPT_WORKERS", "2")
    calls = tmp_path / "calls"

    def slow(method):
        run = harness.METHODS[method][0]

        def driver(objective, config):
            with open(calls, "a") as fh:
                fh.write(f"{method} {config.seed}\n")
            if method == "adaptive_random_search" and config.seed == derive_seed(7, 0):
                raise ValueError("boom")
            time.sleep(0.05)
            return run(objective, config)
        return driver

    for method in ("adaptive_random_search", "isotropic_es"):
        monkeypatch.setitem(harness.METHODS, method, (slow(method), harness.METHODS[method][1]))
    with pytest.raises(RuntimeError) as info:
        run_experiment(small_spec(methods=list(ALL_METHODS), batch_size=50, trials=20))
    assert str(info.value) == ("experiment aborted in method adaptive_random_search; replay with derived seed "
                               f"{derive_seed(7, 0)} (trial 0): boom")
    # 40 slow tasks were queued, the failing one first.
    assert len(calls.read_text().splitlines()) < 20


def test_abort_names_a_failing_shared_draw(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    monkeypatch.setattr("lisopt.harness._build_objective",
                        lambda spec: Objective(2, lambda p: np.full(len(p), np.nan)))
    with pytest.raises(RuntimeError, match="in the shared draw of liso, random_search;"
                                           ".*evaluator returned NaN"):
        run_experiment(small_spec())


def test_a_static_method_that_evaluates_breaks_the_budget(monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")

    def evaluating_driver(objective, config, sample=None):
        objective.evaluate_batch(np.zeros((1, 2)))
        return run_random_search(objective, config, sample=sample)

    monkeypatch.setitem(harness.METHODS, "random_search", (evaluating_driver, 1))
    with pytest.raises(RuntimeError, match="in method random_search;.*"
                                           "spent 1 evaluations instead of 0"):
        run_experiment(small_spec())


# ----------------------------------------------------------------------
# Slope fitting
# ----------------------------------------------------------------------

def test_slope_exact_power_law():
    slope, _, r2 = fit_loglog_slope(synthetic_report(power=-2.0 / 3.0), "m")
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_and_intercept():
    slope, intercept, _ = fit_loglog_slope(synthetic_report(power=-0.5, scale=2.0), "m")
    assert slope == pytest.approx(-0.5, abs=1e-9)
    assert intercept == pytest.approx(np.log(2.0), abs=1e-9)


def test_slope_error_cases():
    report = synthetic_report()
    with pytest.raises(ValueError):
        fit_loglog_slope(report, "missing")
    with pytest.raises(ValueError):
        fit_loglog_slope(report, "m", n_range=(100, 150))  # too few points
    bad = synthetic_report()
    bad.methods["m"].mean_mse[3] = 0.0
    with pytest.raises(ValueError):
        fit_loglog_slope(bad, "m")


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

def test_csv_header_only_for_empty_report():
    assert csv_string(ExperimentReport(methods={})) == (
        "method,n_evals,mean_mse,std,ci_half_width,trials\n"
    )


def test_csv_one_method_one_checkpoint():
    r = ExperimentReport(methods={
        "m": MethodStats(
            checkpoints=np.array([10]),
            mean_mse=np.array([0.5]),
            std=np.array([0.1]),
            ci_half_width=np.array([0.05]),
            trials=3,
        )
    })
    assert csv_string(r) == (
        "method,n_evals,mean_mse,std,ci_half_width,trials\n"
        "m,10,0.5,0.1,0.05,3\n"
    )


def test_csv_round_trip_identity(tmp_path):
    report = synthetic_report(methods=("b", "a"))
    # perturb with awkward floats that need full round-trip precision
    report.methods["a"].mean_mse[0] = 0.1 + 0.2
    report.methods["b"].std[2] = 1e-17
    path = tmp_path / "r.csv"
    emit_csv(report, str(path))
    assert parse_csv(str(path)) == report
    emit_csv(report, str(path))  # second emission is byte-identical
    assert parse_csv(str(path)) == report


def test_csv_rows_sorted_by_method_then_n(tmp_path):
    report = synthetic_report(methods=("zeta", "alpha"))
    lines = csv_string(report).splitlines()[1:]
    methods = [l.split(",")[0] for l in lines]
    assert methods == sorted(methods)


def test_parse_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        parse_csv(str(path))


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------

def _one_method_report(means, half_widths):
    means = np.array(means)
    return ExperimentReport(methods={"only": MethodStats(
        checkpoints=np.array([100, 200, 400, 800]), mean_mse=means, std=np.zeros_like(means),
        ci_half_width=np.array(half_widths), trials=10)})


def test_svg_structure_single_method():
    for report in (
        synthetic_report(methods=("only",)),
        # Near the float maximum, 1.25 x the top would overflow the upper y-limit.
        _one_method_report([1.5e308, 1e308, 1e307, 1e306], [0.0, 0.0, 0.0, 0.0]),
        # Subnormal means, whose band floor would underflow to a lower y-limit of 0.
        _one_method_report([5e-324, 1e-300, 1e-310, 1e-320], [1e-300, 0.0, 0.0, 0.0]),
        # All at the smallest subnormal, where 0.8 x and 1.25 x round to the same limit.
        _one_method_report([5e-324] * 4, [0.0] * 4),
    ):
        svg = svg_string(report)
        assert svg.count("<polyline") == 1
        assert svg.count("<polygon") == 1
        assert "only" in svg
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert not re.search(r"inf|nan", svg)


def test_svg_byte_determinism():
    a = svg_string(synthetic_report(methods=("x", "y")))
    b = svg_string(copy.deepcopy(synthetic_report(methods=("x", "y"))))
    assert a == b


def test_svg_drops_nonpositive_points_with_warning():
    report = synthetic_report(methods=("m",))
    report.methods["m"].mean_mse[0] = 0.0
    svg = svg_string(report)
    assert "warning: dropped 1 nonpositive points for m" in svg
    # A non-finite mean is dropped and counted too.  A non-finite CI
    # half-width keeps its mean, with no band there: the band's upper and
    # lower edges meet the mean line.
    stats = report.methods["m"]
    stats.mean_mse[[1, 2]] = np.inf, np.nan
    stats.ci_half_width[[-2, -1]] = np.inf, np.nan
    svg = svg_string(report)
    assert "warning: dropped 1 nonpositive points for m" in svg
    assert "warning: dropped 2 non-finite points for m" in svg

    def points(tag):
        text = re.search(f'<{tag} points="([^"]*)"', svg).group(1)
        return [tuple(map(float, p.split(","))) for p in text.split()]

    line, band = points("polyline"), points("polygon")
    kept = stats.checkpoints.size - 3
    assert len(line) == kept and len(band) == 2 * kept
    upper, lower = band[:kept], band[kept:][::-1]
    assert upper[-2:] == lower[-2:] == line[-2:]
    assert all(u[1] < m[1] for u, m in zip(upper[:-2], line[:-2]))
    stats.mean_mse[:] = np.inf
    with pytest.raises(ValueError, match="no positive finite mean MSE values to plot"):
        svg_string(report)
    # Where mean + half-width overflows, no band is drawn there either.
    svg = svg_string(_one_method_report([1e308, 1e308, 1.0, 1.0], [1e308, 1e307, 0.5, 0.5]))
    line, band = points("polyline"), points("polygon")
    upper, lower = band[:4], band[4:][::-1]
    assert upper[0] == lower[0] == line[0]
    assert upper[1][1] < line[1][1]


def test_svg_title_defaults_and_is_taken_from_the_argument():
    def first_text(svg):
        return re.search(r"<text[^>]*>([^<]*)</text>", svg).group(1)

    report = synthetic_report()
    assert first_text(svg_string(report)) == "mean squared error vs evaluations"
    assert first_text(svg_string(report, title="t")) == "t"


def _xml_texts(svg):
    """The text of each <text> element and each comment of a well-formed SVG."""
    root = minidom.parseString(svg).documentElement  # raises ExpatError if not well-formed
    texts = ["".join(c.data for c in t.childNodes) for t in root.getElementsByTagName("text")]
    return texts, [c.data for c in root.childNodes if c.nodeType == c.COMMENT_NODE]


def test_svg_is_well_formed_for_any_method_name(tmp_path):
    # A method read from a CSV may hold any character but a comma or a line break.
    path = tmp_path / "r.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(f"a<b&c--x,{n},{m},0.1,0.1,3\n"
                                                for n, m in ((100, 0.5), (200, 0.0), (400, 0.25))))
    emit_svg_plot(parse_csv(str(path)), str(tmp_path / "r.svg"), title="a < b & c > d")
    texts, comments = _xml_texts((tmp_path / "r.svg").read_text())
    assert texts[0] == "a < b & c > d" and texts[-1] == "a<b&c--x"
    assert comments == [" warning: dropped 1 nonpositive points for a&lt;b&amp;c- -x "]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(name=st.text(max_size=8), title=st.text(max_size=8))
def test_svg_is_well_formed_for_any_text(name, title):
    stats = _one_method_report([0.0, 1.0, 0.5, 0.25], [0.1] * 4).methods["only"]
    texts, comments = _xml_texts(svg_string(ExperimentReport(methods={name: stats}), title=title))

    def as_parsed(text):  # what XML 1.0 cannot hold is U+FFFD, and a parser reads every line break as \n
        text = re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", text)
        return text.replace("\r\n", "\n").replace("\r", "\n")

    assert texts[0] == as_parsed(title or "mean squared error vs evaluations")
    assert texts[-1] == as_parsed(name)
    assert len(comments) == 1 and "--" not in comments[0]


def test_svg_empty_report_raises():
    with pytest.raises(ValueError):
        svg_string(ExperimentReport(methods={}))


def test_svg_emit_writes_file(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg_plot(synthetic_report(), str(path))
    assert path.read_text().startswith("<svg ")
