"""The names perfbench's tracer patches in lisopt, pinned.

``perfbench/tracing.py`` times each layer by replacing lisopt functions,
methods and registry entries with wrappers under the names their callers
look up, and puts the originals back on ``uninstall``.  These tests install
it against this tree, imported through ``sys.path`` as ``perfbench/run.py``
does, so that a refactor which drops or reshapes a patched name (a driver
import in ``harness``, ``cli._DRIVERS``, the ``(driver, least_batch)``
entries of ``harness.METHODS``, the one registry that ``cli._DRIVERS``
names) fails here rather than breaking a traced benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from lisopt import (
    ExperimentSpec,
    cli,
    distributions,
    estimators,
    harness,
    objectives,
    optimizers,
    oracle,
    run_experiment,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DRIVER_NAMES = ("run_liso", "run_random_search", "run_adaptive_liso",
                "run_adaptive_random_search", "run_isotropic_es")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _namespaces():
    return (cli, distributions, estimators, harness, objectives, optimizers, oracle,
            distributions.IsotropicGaussian, distributions.MixturePolicy,
            objectives.Objective, harness.ExperimentSpec, harness.METHODS)


def _snapshot():
    """Every entry of every namespace the tracer may patch, by identity."""
    return [dict(ns if isinstance(ns, dict) else vars(ns)) for ns in _namespaces()]


def _same_objects(a, b):
    return all(x.keys() == y.keys() and all(x[k] is y[k] for k in x) for x, y in zip(a, b))


def test_tracer_wraps_the_drivers_and_restores_every_name(tracing):
    before = _snapshot()
    originals = {m: driver for m, (driver, _) in harness.METHODS.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not _same_objects(_snapshot(), before)
        for name in DRIVER_NAMES:
            assert getattr(harness, name).__wrapped__ is getattr(optimizers, name)
        assert cli._DRIVERS is harness.METHODS
        for method, (driver, least) in harness.METHODS.items():
            assert driver.__wrapped__ is originals[method]
            assert least == (2 if method == "isotropic_es" else 1)
    finally:
        tracer.uninstall()
    assert _same_objects(_snapshot(), before)


def test_traced_experiment_times_every_method(tracing, monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    spec = ExperimentSpec(objective="sphere", dimension=2, methods=list(harness.METHODS),
                          budget=700, seed=3, alpha0=1.0, q0_center=[0.5, 0.5],
                          q0_variance=0.5, trials=2, checkpoint_start=50, checkpoint_count=5)
    untraced = run_experiment(spec)
    with tracing.Tracer() as tracer:
        traced = run_experiment(spec)
    assert traced == untraced
    assert len(tracer.durations["optimizers.driver"]) == spec.trials * len(spec.methods)
    metrics = tracer.layer_metrics(ops=1)
    assert metrics["optimizers.driver.self_s"] > 0
    assert metrics["objectives.evaluate_batch.points"] == 4 * spec.trials * spec.budget
    assert np.isfinite(list(metrics.values())).all()
