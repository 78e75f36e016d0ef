"""lisopt: gradient-free global optimization by softmin-weighted averaging.

Instead of returning the best point of a random search, the core estimator
returns a self-normalized importance-weighted average of all evaluated
points, with weights exp(-alpha f(x)) / q(x) computed stably in log space.
Adaptive variants recenter the sampler on the running estimate, and
``liso_from_sample`` computes the estimate from a random search's own
evaluations.

``import lisopt`` loads no submodule: each one loads on first use of one of
its names (PEP 562), so a caller of ``liso_from_sample`` or ``Objective``
never pays for the YAML harness.  yaml itself only loads to read or write a
spec file, and the process pool only with more than one worker.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "distributions": ("IsotropicGaussian", "MixturePolicy", "derive_seed", "make_rng"),
        "estimators": ("DegenerateWeightsError", "bootstrap_stderr", "effective_sample_size",
                       "laplace_log_weights", "normalized_weights", "self_normalized_average"),
        "harness": ("ExperimentReport", "ExperimentSpec", "MethodStats", "emit_csv",
                    "emit_svg_plot", "fit_loglog_slope", "parse_csv", "run_experiment"),
        "objectives": ("EvaluationError", "ExternalObjective", "Objective", "ackley", "benchmark",
                       "benchmark_names", "external_objective", "rastrigin", "sphere"),
        "optimizers": ("AdaptiveConfig", "RunTrace", "StaticConfig", "alpha_schedule",
                       "default_checkpoints", "isotropic_es_recombination_weights",
                       "liso_from_sample", "run_adaptive_liso", "run_adaptive_random_search",
                       "run_isotropic_es", "run_liso", "run_random_search"),
        "oracle": ("CUBIC_DOMAIN", "QuadratureError", "QuadratureSpec",
                   "cubic_perturbed_quadratic", "gibbs_mean", "laplace_gap"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here too
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
