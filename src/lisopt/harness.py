"""Multi-trial benchmark harness: experiment specs, statistics, CSV and SVG.

An experiment runs one or more methods on one objective for ``trials``
independent trials, records the squared error of the anytime estimate at a
shared checkpoint grid, and aggregates mean / std / normal 95% confidence
half-width per checkpoint.  Everything downstream of a (spec, seed) pair is
byte-deterministic.  A spec checks its fields and builds the one
``AdaptiveConfig`` (q0, the checkpoint grid, the driver settings) that each
trial copies with its own seed.

``METHODS`` maps each method name to its driver; specs, trials and ``cli``
read it.  A task runs one trial's static methods (``SHARED_DRAW``), which
post-process one draw from q0 that it samples, evaluates and weights once, or
one adaptive method's run of one trial; all use the trial's derived seed.
Each method still accounts for ``budget`` evaluations, which the task's
objective checks.

Tasks may execute in parallel; the worker count comes from the
``LISOPT_WORKERS`` environment variable (default: the number of CPUs this
process may run on), capped at the task count.  Tasks are queued in
``METHODS`` order, so the long softmin runs start first and short ones fill
the tail; one worker runs them in the caller's process, which then never
imports the process pool; likewise yaml is only imported to read or write a
spec file.  Aggregation folds results in trial order, so completion order
never matters.  The first failing task aborts the experiment and cancels
those not yet started; a failure outside any task, such as a killed worker
process, is the pool's own error.  On glibc each pool worker keeps its freed
heap instead of returning it to the OS between tasks
(``_keep_heap_resident``); the caller's own process is never touched.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .distributions import IsotropicGaussian, _equal_by_value, derive_seed
from .estimators import _count, _real, _real_array
from .objectives import Objective, benchmark, benchmark_names, format_float
from .optimizers import (AdaptiveConfig, _draw_q0, default_checkpoints, run_adaptive_liso,
                         run_adaptive_random_search, run_isotropic_es, run_liso, run_random_search)

Array = np.ndarray

CSV_HEADER = "method,n_evals,mean_mse,std,ci_half_width,trials"

# Method name -> (driver, smallest batch_size it accepts).
METHODS = {
    "liso": (run_liso, 1),
    "random_search": (run_random_search, 1),
    "adaptive_liso": (run_adaptive_liso, 1),
    "adaptive_random_search": (run_adaptive_random_search, 1),
    "isotropic_es": (run_isotropic_es, 2),
}


class ConfigError(ValueError):
    """An experiment spec, or a file lisopt reads, is malformed or cannot be read."""


# default_checkpoints computes this many grid points before it deduplicates them.
_MAX_CHECKPOINT_COUNT = 10**6

# What a value of each kind that is not a number must be, as an error message says it.
_KIND_NOUNS = {str: "a string", Tuple[float, ...]: "a list of real numbers",
               Tuple[str, ...]: "a list of method names"}


def _checked(name: str, kind, value):
    """``value`` of the spec field ``name`` as a plain value of its annotated
    ``kind``: an ``int``, ``float`` or ``str``, ``Optional`` of one, or a
    ``Tuple[X, ...]``, which takes a list or a tuple and is stored as a tuple.

    YAML reads 1000.0 as a float, yes as a bool and .inf as a float.  An int is
    a count, at least 1, or a seed (``_count``), and a float a finite real
    (``_real``); anything else raises a ValueError naming ``name``.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]
        return None if value is None else _checked(name, args[0], value)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_checked(f"{name} entries", args[0], v) for v in value)
    if kind is str and isinstance(value, str):
        return str(value)
    if kind is int:
        return _count(name, value, None if name == "seed" else 1)
    if kind is float:
        return _real(name, value)
    raise ValueError(f"{name} must be {_KIND_NOUNS[kind]}, got {value!r}")


@functools.cache
def _field_kinds(cls) -> Dict[str, object]:
    """The annotation of each field of ``cls``, resolved once (they are strings here)."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _read(path: str) -> str:
    """The text of a spec or CSV file, decoded as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not readable, not UTF-8
        raise ConfigError(f"cannot read {path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one experiment.

    It checks each field against its annotation (``_checked``) and what
    only a spec has (objective, methods, checkpoint grid, q0), then owns
    ``config``: the ``AdaptiveConfig`` of every trial (seed 0), which checks
    the driver settings itself; each check raises a ConfigError.  ``config``
    is not a field, so ``asdict``, ``to_yaml`` and ``==`` skip it.  The
    sequence fields are tuples, so no field changes in place; assigning one
    checks the spec again and builds ``config`` anew, as
    ``dataclasses.replace`` does, and an invalid value raises a ConfigError
    naming the field and leaves the spec as it was.
    """

    objective: str
    dimension: int
    methods: Tuple[str, ...]
    budget: int
    seed: int
    alpha0: float
    q0_center: Tuple[float, ...]
    q0_variance: float
    trials: int = 100
    batch_size: int = 300
    mixture_weight: float = 0.0
    sigma2: Optional[float] = None
    checkpoint_start: int = 100
    checkpoint_count: int = 30
    title: str = ""
    csv_out: Optional[str] = None
    svg_out: Optional[str] = None

    def __post_init__(self):
        try:  # every rule raises a ValueError, which a spec raises as a ConfigError
            for name, kind in _field_kinds(type(self)).items():
                setattr(self, name, _checked(name, kind, getattr(self, name)))
            if self.objective not in benchmark_names():
                raise ValueError(f"unknown objective {self.objective!r}")
            if not self.methods:
                raise ValueError("methods must be nonempty")
            for i, m in enumerate(self.methods):
                if m not in METHODS:
                    raise ValueError(f"unknown method {m!r} in methods; choose from {tuple(METHODS)}")
                if m in self.methods[:i]:
                    raise ValueError(f"duplicate method {m!r} in methods")
            if self.checkpoint_count > _MAX_CHECKPOINT_COUNT:
                raise ValueError(f"checkpoint_count must be at most {_MAX_CHECKPOINT_COUNT}")
            for name in ("csv_out", "svg_out"):
                if getattr(self, name) == "":
                    raise ValueError(f"{name} must name a file, got ''")
            if len(self.q0_center) != self.dimension:
                raise ValueError("q0_center length must equal dimension")
            if not self.q0_variance > 0:
                raise ValueError("q0_variance must be positive")
            self.config = AdaptiveConfig(  # checks the driver settings where every driver does
                self.budget, self.alpha0, IsotropicGaussian(self.q0_center, self.q0_variance),
                seed=0, sigma2=self.sigma2, mixture_weight=self.mixture_weight,
                batch_size=self.batch_size, checkpoints=default_checkpoints(
                    self.budget, count=self.checkpoint_count, start=self.checkpoint_start))
            # A draw lies within 10 standard deviations of its center, so a squared
            # error stays below d (max|c_i| + 10 sd)^2, sd the larger of q0's and a
            # given sigma2's (the default, 1/d, is too small to matter); the trials'
            # sum of squared deviations of those must be finite.
            center, sd = max(map(abs, self.q0_center)), 0.0
            for name, variance in (("q0_center", 0.0), ("q0_variance", self.q0_variance),
                                   ("sigma2", self.sigma2 or 0.0)):
                sd = max(sd, math.sqrt(variance))
                bound = self.dimension * (center + 10.0 * sd) * (center + 10.0 * sd)
                if not math.isfinite(self.trials * bound * bound):
                    raise ValueError(f"{name} is too large: its draws' squared norms reach {bound:.3g}, "
                                     f"and their mean and spread over {self.trials} trials would overflow")
            for m in self.methods:
                least = METHODS[m][1]
                if self.batch_size < least:
                    raise ValueError(f"{m} requires batch_size >= {least}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def __setattr__(self, name, value):
        if name not in self.__dataclass_fields__ or "config" not in self.__dict__:
            object.__setattr__(self, name, value)  # __post_init__ at work, or not a field
            return
        try:
            checked = replace(self, **{name: value})
        except ConfigError as exc:
            raise ConfigError(f"cannot set {name} to {value!r}: {exc}") from None
        self.__dict__.update(checked.__dict__)

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentSpec":
        """Load a flat YAML mapping; unknown and repeated keys are errors, not
        warnings (yaml.safe_load would keep the last of a repeated key)."""
        import yaml  # here, not at the top: only spec files need yaml's ~14 ms import
        loader = yaml.SafeLoader(_read(path))
        try:  # yaml.safe_load, with the keys checked between composing and constructing
            node = loader.get_single_node()
            first = {}
            for key, _ in node.value if isinstance(node, yaml.MappingNode) else ():
                if isinstance(key, yaml.ScalarNode) and first.setdefault(key.value, key) is not key:
                    line, was = key.start_mark.line + 1, first[key.value].start_mark.line + 1
                    raise ConfigError(f"{path}: key {key.value!r} on line {line} repeats line {was} "
                                      "(silent typos corrupt experiments)")
            raw = None if node is None else loader.construct_document(node)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
        finally:
            loader.dispose()
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a YAML mapping of keys to values")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown} (silent typos corrupt experiments)")
        try:
            return cls(**raw)
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def to_yaml(self, path: str) -> None:
        import yaml  # here, not at the top: only spec files need yaml's ~14 ms import
        data = {k: v for k, v in asdict(self).items() if v is not None}
        _write(path, yaml.safe_dump(data, sort_keys=False), "spec")


@dataclass
class MethodStats:
    """Aggregated per-checkpoint statistics for one method."""

    checkpoints: Array
    mean_mse: Array
    std: Array
    ci_half_width: Array
    trials: int

    __eq__ = _equal_by_value


@dataclass
class ExperimentReport:
    methods: Dict[str, MethodStats]


def _build_objective(spec: ExperimentSpec) -> Objective:
    return benchmark(spec.objective, spec.dimension)


# The static methods: each post-processes one draw from q0, which a trial
# running several of them draws once and passes as ``sample``.
SHARED_DRAW = ("liso", "random_search")


def _run_trial(spec: ExperimentSpec, trial: int, methods: Optional[Tuple[str, ...]] = None) -> Dict[str, Array]:
    """Run ``methods`` (default: every method of the spec) on one trial;
    returns squared errors per checkpoint for each method.

    The static methods in ``SHARED_DRAW`` post-process one draw from q0 made
    here, so it is sampled and evaluated once for all of them.  The adaptive
    methods each make their own run.  One objective counts every evaluation
    of the call: the draw must spend exactly ``budget`` of them,
    post-processing none, and each adaptive run ``budget``.  A failure raises
    the abort error: it names the method (or the shared draw) at fault, the
    trial and its derived seed, so the failing run can be replayed alone.
    """
    objective = _build_objective(spec)
    config = replace(spec.config, seed=derive_seed(spec.seed, trial))
    methods = spec.methods if methods is None else methods

    def check_spent(before, expected):
        spent = objective.eval_count - before
        if spent != expected:
            raise RuntimeError(f"spent {spent} evaluations instead of {expected}")

    shared = [m for m in methods if m in SHARED_DRAW]
    errors = {}
    try:
        if shared:
            where = "the shared draw of " + ", ".join(shared)
            sample = _draw_q0(objective, config)
            check_spent(0, spec.budget)
        for method in methods:
            where = f"method {method}"
            driver, _ = METHODS[method]
            before = objective.eval_count
            if method in SHARED_DRAW:
                _, trace = driver(objective, config, sample=sample)
                check_spent(before, 0)
            else:
                _, trace = driver(objective, config)
                check_spent(before, spec.budget)
            errors[method] = trace.squared_errors
    except Exception as exc:
        raise RuntimeError(f"experiment aborted in {where}; replay with derived seed "
                           f"{config.seed} (trial {trial}): {exc}") from exc
    return errors


def _worker_count() -> int:
    env = os.environ.get("LISOPT_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"LISOPT_WORKERS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigError(f"LISOPT_WORKERS must be >= 1, got {env!r}")
        return workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# mallopt parameters of glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _glibc_mallopt():
    """glibc's ``mallopt``, or None under another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _keep_heap_resident() -> None:
    """Pool worker initializer: glibc keeps freed heap up to 1 GiB instead of
    trimming it, and serves arrays below 32 MiB from the heap instead of
    fresh mmaps, so each task's arrays (a 1e5x4 sample is 3.2 MB) reuse the
    pages of the task before rather than faulting new ones in.  A no-op
    without glibc.
    """
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every trial, as the tasks of the module docstring, and aggregate the traces.

    The first failing task aborts the experiment with its own error (see
    :func:`_run_trial`); tasks not yet started are cancelled.
    """
    shared = tuple(m for m in spec.methods if m in SHARED_DRAW)  # SHARED_DRAW leads METHODS
    groups = ([shared] if shared else []) + [(m,) for m in METHODS if m in spec.methods and m not in SHARED_DRAW]
    tasks = [(t, group) for group in groups for t in range(spec.trials)]
    workers = min(_worker_count(), len(tasks))
    if workers == 1:
        results = [_run_trial(spec, t, group) for t, group in tasks]
    else:
        # Here, not at the top: a one-worker run never loads multiprocessing (~19 ms).
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_heap_resident) as pool:
            results = list(pool.map(_run_trial, [spec] * len(tasks), *zip(*tasks)))
    runs = {(m, t): e for (t, _), errors in zip(tasks, results) for m, e in errors.items()}

    methods: Dict[str, MethodStats] = {}
    for method in spec.methods:
        # Deterministic reduction: fold in trial-index order.
        errors = np.stack([runs[method, t] for t in range(spec.trials)])
        mean = errors.mean(axis=0)
        if spec.trials > 1:
            std = errors.std(axis=0, ddof=1)
        else:  # undefined at one trial, reported as 0
            std = np.zeros_like(mean)
        ci = 1.96 * std / math.sqrt(spec.trials)
        methods[method] = MethodStats(
            checkpoints=spec.config.grid,
            mean_mse=mean,
            std=std,
            ci_half_width=ci,
            trials=spec.trials,
        )
    return ExperimentReport(methods=methods)


# ----------------------------------------------------------------------
# Slope fitting
# ----------------------------------------------------------------------

def fit_loglog_slope(
    report: ExperimentReport,
    method: str,
    n_range: Optional[Tuple[float, float]] = None,
) -> Tuple[float, float, float]:
    """OLS fit of log(mean MSE) against log(n) over a checkpoint range.

    Returns (slope, intercept, r_squared).  Requires at least 5 checkpoints
    with positive and finite mean MSE inside the range.
    """
    try:
        stats = report.methods[method]
    except KeyError:
        raise ValueError(f"method {method!r} not in report") from None
    n = _real_array("checkpoints", stats.checkpoints)
    mse = stats.mean_mse
    mask = np.ones(n.size, dtype=bool)
    if n_range is not None:  # each end a real, +-inf for an open one
        lo, hi = (_real("n_range", end, "not be NaN", lambda f: not math.isnan(f)) for end in n_range)
        mask &= (n >= lo) & (n <= hi)
    if not ((mse[mask] > 0) & (mse[mask] < np.inf)).all():  # false at NaN too
        raise ValueError("mean MSE must be positive and finite throughout the fit range")
    if np.count_nonzero(mask) < 5:
        raise ValueError("need at least 5 checkpoints in the fit range")
    x = np.log(n[mask])
    y = np.log(mse[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

def csv_string(report: ExperimentReport) -> str:
    """Bit-exact CSV serialization; floats in shortest round-trip decimal."""
    lines = [CSV_HEADER]
    for method in sorted(report.methods):
        stats = report.methods[method]
        for i, n in enumerate(stats.checkpoints):
            lines.append(
                ",".join(
                    [
                        method,
                        str(int(n)),
                        format_float(stats.mean_mse[i]),
                        format_float(stats.std[i]),
                        format_float(stats.ci_half_width[i]),
                        str(stats.trials),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def emit_csv(report: ExperimentReport, path: str) -> None:
    _write(path, csv_string(report), "CSV")


def parse_csv(path: str) -> ExperimentReport:
    """Inverse of emit_csv: ``parse_csv(path) == report``."""
    lines = _read(path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or malformed header")
    rows: Dict[str, Dict[int, Tuple[int, float, float, float, int]]] = {}
    for line in lines[1:]:
        if not line:
            continue
        try:  # six fields, each of its type, and counts (``_count``) from 1 to 2**63 - 1
            method, n, mean, std, ci, trials = line.split(",")
            row = (_count("n_evals", int(n)), float(mean), float(std), float(ci), _count("trials", int(trials)))
        except ValueError:
            raise ValueError(f"{path}: malformed row {line!r}") from None
        entries = rows.setdefault(method, {})  # by n_evals
        first = next(iter(entries.values()), row)
        if row[4] != first[4]:
            raise ValueError(f"{path}: malformed row {line!r}: "
                             f"the first row of {method} has {first[4]} trials")
        if row[0] in entries:
            raise ValueError(f"{path}: malformed row {line!r}: {method} has a row at n_evals {row[0]} already")
        entries[row[0]] = row
    methods = {}
    for method, entries in rows.items():
        ns = sorted(entries)
        mean, std, ci = np.array([entries[n][1:4] for n in ns]).T  # the floats parsed above
        methods[method] = MethodStats(
            checkpoints=np.array(ns),
            mean_mse=mean,
            std=std,
            ci_half_width=ci,
            trials=entries[ns[0]][4],
        )
    return ExperimentReport(methods=methods)


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f",
)

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_FLOAT_MAX, _FLOAT_TINY = sys.float_info.max, math.ulp(0.0)


def _xml_text(text: str) -> str:
    """``text`` as XML character data: &, < and > escaped (by hand:
    xml.sax.saxutils would pull urllib into every import), and each character
    that XML 1.0 cannot hold, not even as a reference, replaced by U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", text)


def _svg_coords(xs: Array, ys: Array, xlim, ylim) -> str:
    lx0, lx1 = math.log10(xlim[0]), math.log10(xlim[1])
    ly0, ly1 = math.log10(ylim[0]), math.log10(ylim[1])
    px = _ML + (np.log10(xs) - lx0) / (lx1 - lx0) * (_W - _ML - _MR)
    py = _H - _MB - (np.log10(ys) - ly0) / (ly1 - ly0) * (_H - _MT - _MB)
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))


def svg_string(report: ExperimentReport, title: str = "") -> str:
    """Self-contained log-log SVG plot: mean polyline + CI band per method.

    Deterministic: identical reports yield byte-identical output.
    Checkpoints with a nonpositive or non-finite mean MSE are dropped with a
    warning annotation; where the CI half-width is not finite, or the band's
    upper edge would overflow, no band is drawn.
    """
    if not report.methods:
        raise ValueError("report has no methods to plot")
    title = _xml_text(title or "mean squared error vs evaluations")

    series = {}
    dropped = []
    for method in sorted(report.methods):
        s = report.methods[method]
        nonpositive = s.mean_mse <= 0
        non_finite = ~nonpositive & ~np.isfinite(s.mean_mse)
        for what, bad in (("nonpositive", nonpositive), ("non-finite", non_finite)):
            if np.any(bad):
                dropped.append((method, f"{np.count_nonzero(bad)} {what}"))
        keep = ~nonpositive & ~non_finite
        if np.count_nonzero(keep) == 0:
            continue
        series[method] = (
            _real_array("checkpoints", s.checkpoints[keep]),
            s.mean_mse[keep],
            # Width 0, no band, where the half-width is not finite or mean + half-width overflows.
            np.where(np.isfinite(s.ci_half_width) & (s.ci_half_width <= _FLOAT_MAX - s.mean_mse),
                     s.ci_half_width, 0.0)[keep],
        )
    if not series:
        raise ValueError("no positive finite mean MSE values to plot")

    # Python floats over- and underflow silently; a limit is clamped only where it
    # would leave the finite positive range, so an ordinary report plots as before.
    floor = max(float(min(v[1].min() for v in series.values())) * 0.5, _FLOAT_TINY)
    all_x = np.concatenate([v[0] for v in series.values()])
    uppers = np.concatenate([v[1] + v[2] for v in series.values()])
    lowers = np.concatenate([np.maximum(v[1] - v[2], floor) for v in series.values()])
    xlim = (all_x.min(), max(all_x.max(), all_x.min() * 1.0001))
    y_lo = max(float(lowers.min()) * 0.8, _FLOAT_TINY)
    y_hi = min(float(uppers.max()) * 1.25, _FLOAT_MAX)
    ylim = (y_lo, max(y_hi, math.nextafter(y_lo, math.inf)))  # distinct among subnormals too

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for method, annotation in dropped:
        name = re.sub("-(?=-)", "- ", _xml_text(method))  # a comment cannot hold "--"
        out.append(f"<!-- warning: dropped {annotation} points for {name} -->")

    # Axes frame and decade ticks.
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    # Scalar log10, not _svg_coords's numpy one, which may round differently.
    for axis, lim in (("x", xlim), ("y", ylim)):
        lo, hi = math.log10(lim[0]), math.log10(lim[1])
        for decade in range(math.ceil(lo), math.floor(hi) + 1):
            frac = (math.log10(10.0**decade) - lo) / (hi - lo)
            if axis == "x":
                p = f"{_ML + frac * (_W - _ML - _MR):.2f}"
                line = (p, _H - _MB, p, _H - _MB + 5)
                label = f'x="{p}" y="{_H - _MB + 20}" text-anchor="middle"'
            else:
                p = _H - _MB - frac * (_H - _MT - _MB)
                line = (_ML - 5, f"{p:.2f}", _ML, f"{p:.2f}")
                label = f'x="{_ML - 10}" y="{p + 4:.2f}" text-anchor="end"'
            out.append('<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black"/>'.format(*line))
            out.append(f'<text {label} font-family="sans-serif" font-size="12">1e{decade}</text>')
    out.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">evaluations n</text>'
    )

    # CI bands first (under the lines), then means, then legend.
    for idx, (method, (xs, mean, ci)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        upper = mean + ci
        lower = np.maximum(mean - ci, floor)
        band = _svg_coords(
            np.concatenate([xs, xs[::-1]]),
            np.concatenate([upper, lower[::-1]]),
            xlim, ylim,
        )
        out.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
    for idx, (method, (xs, mean, _)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        out.append(
            f'<polyline points="{_svg_coords(xs, mean, xlim, ylim)}" '
            f'fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
    for idx, method in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = _MT + 16 + 18 * idx
        out.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 120}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 114}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_xml_text(method)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_svg_plot(report: ExperimentReport, path: str, title: str = "") -> None:
    _write(path, svg_string(report, title=title), "SVG")
