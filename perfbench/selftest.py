"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced on smoke-size inputs and
checks that
  * both runs exit 0 and report no failed op (a traced output that differs
    from the untraced 1-worker or N-worker output is a failed op);
  * the metric names and units are exactly those in BENCHMARK.json;
  * every per-layer metric of a layer on the workload's path is non-zero;
  * the reference input's digest is the same in the untraced and traced run.
Finally it checks that run.py fails without a result in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layers on each workload's path: their per-layer metrics must be non-zero.
ON_PATH = {
    "adaptive-recovery": ("estimators.", "optimizers.", "distributions.", "harness.",
                          "cli.", "objectives.evaluate_batch", "objectives.us_per_eval"),
    "static-rate": ("estimators.", "optimizers.", "distributions.", "harness.",
                    "cli.", "objectives.evaluate_batch", "objectives.us_per_eval"),
    "external-child": ("estimators.", "optimizers.", "distributions.", "objectives.",
                       "cli.main"),
    "oracle-2d": ("oracle.", "objectives.evaluate_batch", "objectives.us_per_eval"),
}
# Measured values that may legitimately be zero or negative.
MAY_BE_ZERO = {"estimators.blas_thread_invariant", "trace.overhead_frac"}


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in [w["name"] for w in bench["workloads"]]:
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(w, trace)
            if proc.returncode != 0:
                problems.append(f"{w} trace={trace}: exit {proc.returncode}: {proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = json.loads(lines[-2].split(" ", 1)[1])
            digests[trace] = env["reference_digest"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace={trace}: failed ops: {proc.stderr}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
            if trace:
                for name, m in result["metrics"].items():
                    if (name.startswith(ON_PATH[w]) and name not in MAY_BE_ZERO
                            and not m["value"] > 0):
                        problems.append(f"{w}: {name} is {m['value']} on a layer it runs")
            print(f"{w} trace={trace}: ok={result['correct']} attempted={result['attempted']}")
        if len(set(digests.values())) != 1 or None in digests.values():
            problems.append(f"{w}: untraced and traced reference digests differ: {digests}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("static-rate", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"without sources: exit {proc.returncode}, no result")

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
