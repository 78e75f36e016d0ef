"""lisopt: gradient-free global optimization by softmin-weighted averaging.

Instead of returning the best point of a random search, the core estimator
returns a self-normalized importance-weighted average of all evaluated
points, with weights exp(-alpha f(x)) / q(x) computed stably in log space.
Adaptive variants recenter the sampler on the running estimate, and
``liso_from_sample`` computes the estimate from a random search's own
evaluations.
"""

from .distributions import (
    IsotropicGaussian,
    MixturePolicy,
    derive_seed,
    derive_stream,
    make_rng,
)
from .estimators import (
    DegenerateWeightsError,
    bootstrap_stderr,
    effective_sample_size,
    laplace_log_weights,
    normalized_weights,
    self_normalized_average,
)
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    MethodStats,
    emit_csv,
    emit_svg_plot,
    fit_loglog_slope,
    parse_csv,
    run_experiment,
)
from .objectives import (
    EvaluationError,
    ExternalObjective,
    Objective,
    ackley,
    benchmark,
    benchmark_names,
    external_objective,
    rastrigin,
    sphere,
)
from .optimizers import (
    AdaptiveConfig,
    RunTrace,
    StaticConfig,
    alpha_schedule,
    default_checkpoints,
    isotropic_es_recombination_weights,
    liso_from_sample,
    run_adaptive_liso,
    run_adaptive_random_search,
    run_isotropic_es,
    run_liso,
    run_random_search,
)
from .oracle import (
    CUBIC_DOMAIN,
    QuadratureError,
    QuadratureSpec,
    cubic_perturbed_quadratic,
    gibbs_mean,
    gibbs_mean_checked,
    gibbs_normalizer,
    laplace_gap,
)

__version__ = "0.1.0"
