"""The four benchmark workloads and the output check of each op.

Each workload drives lisopt only through its public entry points:
``lisopt.cli.main`` for ``bench`` / ``optimize`` and ``lisopt.oracle.laplace_gap``
for the oracle.  One op is one such call.  A run cycles over a short list of
inputs: input 0 is a fixed reference (the shipped config's seed, the verified
external seed, the unshifted oracle objective) whose output digest is recorded
in ``digests.json`` and whose accuracy is reported as ``final_mse``; the others
are derived from the run's ``--seed``.

Why these four (see NOTES.md for the predicted layer shares):

* ``adaptive-recovery``: every batch re-weights the whole cached prefix,
  O(n^2/B), so estimators and the driver's checkpoint loop dominate.
* ``static-rate``: many short trials; one large Gaussian draw per trial and a
  few full-prefix scans; stresses distributions and harness trial fan-out.
* ``external-child``: one pipe round trip per point; estimators are near zero.
* ``oracle-2d``: the only workload that runs the quadrature oracle, which
  makes one objective call per node.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-op sizes.  "full" is what the benchmark measures; "smoke" is the tiny
# size the self-test uses to check that every metric is emitted.
SIZES = {
    "full": {"adaptive_trials": 10, "static_trials": 100, "external_n": 5000,
             "oracle_grid": 101, "inputs": 3},
    "smoke": {"adaptive_trials": 3, "static_trials": 50, "external_n": 3000,
              "oracle_grid": 31, "inputs": 2},
}

EXTERNAL_REFERENCE_SEED = 3
ORACLE_ALPHAS = (4.0, 8.0, 16.0, 32.0)


@dataclass
class OpResult:
    wall_s: float
    evals: int
    digest: str
    final_mse: float
    error: Optional[str] = None  # None when the op passed every check


def derived_seed(workload: str, seed: int, index: int) -> int:
    """A 62-bit seed for input ``index`` of a run, fixed by (workload, seed)."""
    h = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).hexdigest()
    return int(h[:15], 16) >> 2


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _call_cli(argv):
    from lisopt import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return time.perf_counter() - t0, rc, out.getvalue()


# ----------------------------------------------------------------------
# lisopt bench
# ----------------------------------------------------------------------

def _check_adaptive(report) -> Optional[str]:
    a = report.methods["adaptive_liso"].mean_mse
    b = report.methods["adaptive_random_search"].mean_mse
    if not a[-1] < b[-1]:
        return f"adaptive_liso final MSE {a[-1]!r} not below adaptive_random_search {b[-1]!r}"
    if not a[-1] < 0.01 * a[0]:
        return f"adaptive_liso final MSE {a[-1]!r} not below 1% of its first checkpoint"
    return None


def _check_static(report) -> Optional[str]:
    from lisopt import fit_loglog_slope

    liso = fit_loglog_slope(report, "liso", (1e3, 1e5))[0]
    rs = fit_loglog_slope(report, "random_search", (1e3, 1e5))[0]
    if not -0.87 <= liso <= -0.47:
        return f"liso slope {liso!r} outside [-0.87, -0.47]"
    if not -0.70 <= rs <= -0.30:
        return f"random_search slope {rs!r} outside [-0.70, -0.30]"
    if not report.methods["liso"].mean_mse[-1] < report.methods["random_search"].mean_mse[-1]:
        return "liso final MSE not below random_search"
    return None


class BenchWorkload:
    uses_harness = True
    single_cpu = False

    def __init__(self, name, config, headline, trials_key, check):
        self.name = name
        self.config = ROOT / "configs" / config
        self.headline = headline
        self.trials_key = trials_key
        self.check = check

    def setup(self):
        from lisopt import ExperimentSpec

        return ExperimentSpec.from_yaml(str(self.config))

    def inputs(self, seed, size, workdir: Path):
        """Spec files rewritten via ExperimentSpec.to_yaml; input 0 keeps the config's seed."""
        from lisopt import ExperimentSpec

        trials = SIZES[size][self.trials_key]
        paths = []
        for k in range(SIZES[size]["inputs"]):
            spec = ExperimentSpec.from_yaml(str(self.config))
            if k > 0:
                spec.seed = derived_seed(self.name, seed, k)
            spec.trials = trials
            spec.csv_out = str(workdir / f"{self.name}-{k}.csv")
            spec.svg_out = str(workdir / f"{self.name}-{k}.svg")
            path = workdir / f"{self.name}-{k}.yaml"
            spec.to_yaml(str(path))
            paths.append((path, spec))
        return paths

    def run(self, inp, workers: int) -> OpResult:
        from lisopt import parse_csv

        path, spec = inp
        os.environ["LISOPT_WORKERS"] = str(workers)
        wall, rc, _ = _call_cli(["bench", "--config", str(path), "--trials", str(spec.trials)])
        evals = len(spec.methods) * spec.trials * spec.budget  # the harness enforces it
        if rc != 0:
            return OpResult(wall, 0, "", math.nan, f"lisopt bench exited {rc}")
        csv = Path(spec.csv_out).read_bytes()
        svg = Path(spec.svg_out).read_bytes()
        report = parse_csv(spec.csv_out)
        final = float(report.methods[self.headline].mean_mse[-1])
        return OpResult(wall, evals, _sha(csv, svg), final, self.check(report))


# ----------------------------------------------------------------------
# lisopt optimize --external
# ----------------------------------------------------------------------

class ExternalWorkload:
    name = "external-child"
    uses_harness = False
    # Parent and child share one CPU: cross-CPU pipe wake-ups on a small VM
    # made run medians vary 2x, one CPU keeps them within about 20%.
    single_cpu = True
    d = 4
    center = "2,2,2,2"
    q0_var = 0.25

    def setup(self):
        from lisopt import external_objective

        with external_objective([sys.executable, str(HERE / "sphere_child.py")], self.d) as obj:
            obj.evaluate_batch(np.zeros((1, self.d)))

    def inputs(self, seed, size, workdir: Path):
        """(seed, n, in-process reference estimate, child count file) per input."""
        from lisopt import AdaptiveConfig, IsotropicGaussian, benchmark, run_adaptive_liso

        n = SIZES[size]["external_n"]
        out = []
        for k in range(SIZES[size]["inputs"]):
            s = EXTERNAL_REFERENCE_SEED if k == 0 else derived_seed(self.name, seed, k)
            config = AdaptiveConfig(
                budget=n, alpha0=1.0, seed=s, sigma2=1.0 / self.d, batch_size=300,
                q0=IsotropicGaussian(mean=np.full(self.d, 2.0), variance=self.q0_var),
            )
            reference, _ = run_adaptive_liso(benchmark("sphere", self.d), config)
            out.append((s, n, reference, workdir / f"{self.name}-{k}.count"))
        return out

    def run(self, inp, workers: int) -> OpResult:
        from lisopt.objectives import format_float

        s, n, reference, count_file = inp
        count_file.unlink(missing_ok=True)
        child = " ".join(shlex.quote(a) for a in (
            sys.executable, str(HERE / "sphere_child.py"), "--count-file", str(count_file)))
        wall, rc, stdout = _call_cli([
            "optimize", "--external", child, "--d", str(self.d), "--method", "adaptive_liso",
            "--q0-center", self.center, "--q0-var", str(self.q0_var),
            "--n", str(n), "--seed", str(s),
        ])
        if rc != 0:
            return OpResult(wall, 0, "", math.nan, f"lisopt optimize exited {rc}")
        evals = int(count_file.read_text()) if count_file.exists() else 0
        fields = stdout.split("\n")[0].split()
        estimate = np.array([float(v) for v in fields[1:]])
        expected = "estimate: " + " ".join(format_float(v) for v in reference)
        error = None
        if stdout.split("\n")[0] != expected:
            error = "external estimate differs from the in-process run on benchmark('sphere', 4)"
        elif evals != n:
            error = f"child answered {evals} evaluations instead of {n}"
        return OpResult(wall, evals, _sha(stdout.encode()), float(estimate @ estimate), error)


# ----------------------------------------------------------------------
# laplace_gap on an asymmetric 2-D objective
# ----------------------------------------------------------------------

class OracleWorkload:
    name = "oracle-2d"
    uses_harness = False
    single_cpu = False

    @staticmethod
    def objective(center):
        """sum_i (y_i^2 + 0.2 y_i^3), y = x - center, as a counted Objective."""
        from lisopt import Objective

        def batch(points):
            y = points - center
            return np.sum(y * y + 0.2 * y**3, axis=1)

        return Objective(2, batch, known_minimizer=center, name="quad-cubic-2d")

    def setup(self):
        self.objective(np.zeros(2))

    def inputs(self, seed, size, workdir: Path):
        """(center, grid) per input; input 0 is the objective at the origin over [-3, 3]^2."""
        grid = SIZES[size]["oracle_grid"]
        out = []
        for k in range(SIZES[size]["inputs"]):
            if k == 0:
                center = np.zeros(2)
            else:
                rng = np.random.Generator(np.random.PCG64(derived_seed(self.name, seed, k)))
                center = rng.uniform(-1.0, 1.0, size=2)
            out.append((center, grid))
        return out

    def run(self, inp, workers: int) -> OpResult:
        from lisopt import oracle

        center, grid = inp
        objective = self.objective(center)
        domain = tuple((c - 3.0, c + 3.0) for c in center)
        t0 = time.perf_counter()
        gaps = oracle.laplace_gap(objective, center, domain, ORACLE_ALPHAS, grid_points=grid)
        wall = time.perf_counter() - t0
        error = None
        slope = np.polyfit(np.log(ORACLE_ALPHAS), np.log(gaps), 1)[0]
        if not np.all(np.diff(gaps) < 0):
            error = f"gaps do not strictly decrease: {gaps.tolist()}"
        elif not slope <= -0.8:
            error = f"gap log-log slope {slope!r} above -0.8"
        elif objective.eval_count != len(ORACLE_ALPHAS) * grid * grid:
            error = f"{objective.eval_count} objective calls for {len(ORACLE_ALPHAS)} grids"
        return OpResult(wall, objective.eval_count, _sha(gaps.tobytes()),
                        float(gaps[-1] ** 2), error)


WORKLOADS = {
    "adaptive-recovery": BenchWorkload(
        "adaptive-recovery", "sphere_adaptive_d4.yaml", "adaptive_liso",
        "adaptive_trials", _check_adaptive),
    "static-rate": BenchWorkload(
        "static-rate", "sphere_static_d4.yaml", "liso", "static_trials", _check_static),
    "external-child": ExternalWorkload(),
    "oracle-2d": OracleWorkload(),
}
