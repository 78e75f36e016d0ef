"""Command-line entry point.

Subcommands:
  optimize  run one method on one objective and print the estimate
  bench     run an experiment spec from a YAML config, emit CSV + SVG
  oracle    quadrature mean / concentration gap of the tempered measure
  slope     log-log slope fit on an emitted CSV

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .harness import METHODS as _DRIVERS
from .harness import (
    ConfigError,
    ExperimentSpec,
    emit_csv,
    emit_svg_plot,
    fit_loglog_slope,
    parse_csv,
    run_experiment,
)
from .objectives import benchmark, benchmark_names, external_objective, format_float
from .oracle import (
    CUBIC_DOMAIN,
    QuadratureSpec,
    cubic_perturbed_quadratic,
    gibbs_mean,
    laplace_gap,
)

_ORACLE_FUNCTIONS = {
    "quad-cubic": (cubic_perturbed_quadratic, CUBIC_DOMAIN),
    "quadratic": (benchmark("sphere", 1), ((-8.0, 8.0),)),
}


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    raise ConfigError(f"{flag} must be comma-separated finite numbers, got {text!r}")


def _cmd_optimize(args) -> int:
    """One trial of a one-method spec, which checks every flag, run with ``--seed`` as its seed."""
    center = (np.zeros(max(args.d, 0)) if args.q0_center is None
              else _parse_floats(args.q0_center, "--q0-center"))
    spec = ExperimentSpec(
        objective=args.fn, dimension=args.d, methods=(args.method,), budget=args.n, seed=args.seed,
        alpha0=args.alpha0, q0_center=center.tolist(), q0_variance=args.q0_var, trials=1,
        batch_size=args.batch_size, mixture_weight=args.mixture_weight, sigma2=args.sigma2)
    config = dataclasses.replace(spec.config, seed=args.seed)
    driver, _ = _DRIVERS[args.method]
    if args.external is not None:
        with external_objective(args.external, args.d) as objective:
            estimate, _ = driver(objective, config)
    else:
        objective = benchmark(args.fn, args.d)
        estimate, _ = driver(objective, config)
    print("estimate:", " ".join(format_float(v) for v in estimate))
    if args.external is None:
        print("objective value:", format_float(objective(estimate)))
    return 0


def _output_path(flag: str, given, spec_path, default: str) -> str:
    """The path a flag gives, else the spec's, else ``default``; checked
    before any trial runs."""
    path = given if given is not None else spec_path if spec_path is not None else default
    if not path:  # a spec refuses an empty path itself
        raise ConfigError(f"{flag} must name a file, got ''")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {path}: its directory does not exist")
    return path


def _cmd_bench(args) -> int:
    spec = ExperimentSpec.from_yaml(args.config)
    if args.trials is not None:
        spec = dataclasses.replace(spec, trials=args.trials)
    csv_path = _output_path("--csv-out", args.csv_out, spec.csv_out, "report.csv")
    svg_path = _output_path("--svg-out", args.svg_out, spec.svg_out, "report.svg")
    if os.path.realpath(csv_path) == os.path.realpath(svg_path):
        raise ConfigError(f"cannot write both the CSV and the SVG to {svg_path}")
    report = run_experiment(spec)
    emit_csv(report, csv_path)
    emit_svg_plot(report, svg_path, title=spec.title)
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_oracle(args) -> int:
    f, domain = _ORACLE_FUNCTIONS[args.fn]
    if args.alphas is not None:
        alphas = _parse_floats(args.alphas, "--alphas")
        gaps = laplace_gap(f, f.known_minimizer, domain, alphas, grid_points=args.grid)
        for a, g in zip(alphas, gaps):
            print(f"alpha={format_float(a)} gap={format_float(float(g))}")
    else:
        spec = QuadratureSpec(domain=domain, grid_points=args.grid, alpha=args.alpha)
        mean = gibbs_mean(f, spec)
        print("tempered mean:", " ".join(format_float(v) for v in mean))
    return 0


def _cmd_slope(args) -> int:
    report = parse_csv(args.csv)
    n_range = None
    if args.min_n is not None or args.max_n is not None:
        n_range = (1.0 if args.min_n is None else args.min_n,
                   float("inf") if args.max_n is None else args.max_n)
    slope, intercept, r2 = fit_loglog_slope(report, args.method, n_range)
    print(f"slope={format_float(slope)} intercept={format_float(intercept)} "
          f"r2={format_float(r2)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lisopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run one method on one objective")
    p.add_argument("--fn", choices=benchmark_names(), default="sphere")
    p.add_argument("--external", metavar="COMMAND",
                   help="shell command for an external line-protocol objective")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=tuple(_DRIVERS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--q0-center", help="comma-separated d-vector (default: origin); "
                   "write a leading minus as --q0-center=-1,2")
    p.add_argument("--q0-var", type=float, default=1.0)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--mixture-weight", type=float, default=0.0)
    p.add_argument("--batch-size", type=int, default=300)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("bench", help="run an experiment spec from a YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, help="override the config's trial count")
    p.add_argument("--csv-out")
    p.add_argument("--svg-out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="quadrature statistics of the tempered measure")
    p.add_argument("--fn", choices=sorted(_ORACLE_FUNCTIONS), required=True)
    p.add_argument("--alpha", type=float, default=16.0)
    p.add_argument("--alphas", help="comma-separated increasing list: report gaps")
    p.add_argument("--grid", type=int, default=1601)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("slope", help="log-log slope fit on an emitted CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--min-n", type=float)
    p.add_argument("--max-n", type=float)
    p.set_defaults(func=_cmd_slope)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # a usage error: a ConfigError, or a value a check refused
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a runtime failure: an aborted trial, a failed child or write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
