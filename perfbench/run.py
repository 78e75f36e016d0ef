"""lisopt benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: adaptive-recovery, static-rate, external-child, oracle-2d (see
workloads.py and NOTES.md).  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced
single-worker run.  The line before it records the machine and thread
settings.  Exits non-zero, without a result, when the lisopt sources are not
next to this directory.

Every process started here runs with BLAS pinned to one thread and
LISOPT_WORKERS set to the CPUs this process may use, so busy threads never
exceed the usable cores.  This file uses only the standard library; numpy and
lisopt are imported in the worker and probe processes it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adaptive-recovery", "static-rate", "external-child", "oracle-2d")
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = {"full": 7, "smoke": 2}

END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "final_mse": "sq_dist",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}
PER_LAYER = {
    "estimators.laplace_log_weights.self_s": "s",
    "estimators.laplace_log_weights.points_scanned": "count",
    "estimators.normalized_weights.self_s": "s",
    "estimators.normalized_weights.calls": "count",
    "estimators.normalized_weights.points_scanned": "count",
    "estimators.self_normalized_average.self_s": "s",
    "estimators.effective_sample_size.self_s": "s",
    "estimators.live_weight_frac": "frac",
    "estimators.blas_thread_invariant": "bool",
    "optimizers.driver.self_s": "s",
    "optimizers.log_weights_per_batch": "1/batch",
    "optimizers.trial_p50_s": "s",
    "optimizers.trial_tail_s": "s",
    "distributions.sample.self_s": "s",
    "distributions.sample.calls": "count",
    "distributions.log_density_batch.self_s": "s",
    "objectives.evaluate_batch.calls": "count",
    "objectives.evaluate_batch.points": "count",
    "objectives.evaluate_batch.self_s": "s",
    "objectives.us_per_eval": "us",
    "objectives.external.batch_p50_s": "s",
    "objectives.external.batch_tail_s": "s",
    "oracle.gibbs_mean.self_s": "s",
    "oracle.nodes_evaluated": "count",
    "oracle.objective_calls_per_node": "1/node",
    "harness.run_experiment.self_s": "s",
    "harness.fanout_efficiency": "frac",
    "harness.emit_csv_s": "s",
    "harness.emit_svg_s": "s",
    "harness.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "cli.spec_load_s": "s",
    "trace.overhead_frac": "frac",
}


def pinned_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        LISOPT_WORKERS=str(nproc),
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def _finite(value):
    """A failed reference op leaves NaN, which JSON cannot carry; the run is
    already marked incorrect then."""
    return value if value == value and abs(value) != float("inf") else 0.0


def machine_record(nproc: int) -> dict:
    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "threads": {k: pinned_env(nproc)[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "LISOPT_WORKERS")},
        "git_sha": sha,
    }


def run_group(argv, env, timeout, **kwargs):
    """Run a command in its own process group; kill the group when it ends."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        _kill_group(proc)
    return proc.returncode, out


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure_setup(workload, env, repeats):
    """Median wall time of fresh interpreters doing the workload's set-up.

    Each probe prints the system-wide monotonic clock when its set-up is done,
    so the time excludes interpreter teardown and this process's polling.
    """
    times, failures = [], 0
    for _ in range(repeats):
        t0 = time.monotonic()
        rc, out = run_group([sys.executable, str(HERE / "probe.py"), "setup", workload], env,
                            timeout=60.0, stdout=subprocess.PIPE, text=True)
        try:
            times.append(float(out.split()[-1]) - t0)
        except (AttributeError, IndexError, ValueError):
            rc = rc or 1
        if rc != 0:
            failures += 1
    return (statistics.median(times) if times else 0.0), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "lisopt" / "__init__.py", ROOT / "configs" / "sphere_adaptive_d4.yaml",
              ROOT / "configs" / "sphere_static_d4.yaml"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: lisopt sources not found next to the benchmark: {missing}", file=sys.stderr)
        return 2

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = pinned_env(nproc)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_failed = 0.0, 0
        setup_attempted = 0
        if not args.trace:
            setup_attempted = SETUP_REPEATS[args.size]
            setup_s, setup_failed = measure_setup(args.workload, env, setup_attempted)
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        rc, out = run_group(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir)],
            env, timeout=remaining, stdout=subprocess.PIPE, text=True,
        )
        if rc != 0 or not out or not out.strip():
            print(f"error: worker exited with {rc}", file=sys.stderr)
            return 1
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = result["attempted"] + setup_attempted
    failed = result["failed"] + setup_failed
    for error in result["errors"]:
        print(f"failed op: {error}", file=sys.stderr)
    if args.trace:
        names = PER_LAYER
        values = result["metrics"]
    else:
        names = END_TO_END
        values = dict(result["metrics"], setup_s=setup_s,
                      success_frac=1.0 - failed / attempted)
    record = dict(machine_record(nproc), **result["env"],
                  reference_digest=result["reference_digest"],
                  reference_digest_checked=result["digest_checked"])
    print("env " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(values[name]), "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
