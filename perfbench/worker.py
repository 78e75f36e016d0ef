"""One measured run of one workload, in a fresh process with BLAS pinned.

Started by run.py, which sets the environment (BLAS threads, PYTHONPATH,
LISOPT_WORKERS).  Prints one JSON object as its last stdout line.

Untraced (--trace 0): ops on the workload's inputs, cycling, until --seconds
have passed and every input ran once.  Reports evals_per_s (median over ops),
final_mse (reference input), peak_rss_mb and the op counts.

Traced (--trace 1): rounds of an untraced N-worker op (bench workloads only),
an untraced 1-worker op and a traced 1-worker op on the same input; their
output digests must agree.  Reports per-layer metrics per traced op, the
tracing overhead, trial fan-out efficiency and the BLAS determinism probe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, OpResult  # noqa: E402

OP_DEADLINE_S = 60.0
PROBE_DEADLINE_S = 60.0
# run_liso's p @ points is split across BLAS threads above ~1.2e5 points.
BLAS_PROBE_BUDGET = 150_000


class OpDeadline(BaseException):
    """An op ran past its deadline.  A BaseException, so the CLI's
    ``except Exception`` cannot turn it into an ordinary exit code."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def kill_children():
    """Kill and reap the direct children a failed op left behind."""
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def numpy_env():
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "fingerprint": f"{platform.machine()} python{sys.version_info[0]}."
                       f"{sys.version_info[1]} numpy{np.__version__} simd:{','.join(simd)}",
    }


class Runner:
    """Runs ops with a deadline and checks each output digest for repeatability."""

    def __init__(self, workload, inputs, recorded_digest):
        self.workload = workload
        self.inputs = inputs
        self.recorded = recorded_digest
        self.first_digest = {}
        self.attempted = 0
        self.errors = []
        self.stop = False

    def op(self, index, workers, tracer=None) -> OpResult:
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            if tracer is None:
                res = self.workload.run(self.inputs[index], workers)
            else:
                with tracer:
                    res = self.workload.run(self.inputs[index], workers)
        except OpDeadline:
            res = OpResult(OP_DEADLINE_S, 0, "", math.nan, f"missed its {OP_DEADLINE_S} s deadline")
            kill_children()
            self.stop = True
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            res = OpResult(math.nan, 0, "", math.nan, f"raised {exc!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if res.error is None:
            first = self.first_digest.setdefault(index, res.digest)
            if res.digest != first:
                res.error = "output differs from an earlier op on the same input"
            elif index == 0 and self.recorded is not None and res.digest != self.recorded:
                res.error = "reference output differs from the digest in digests.json"
        self.attempted += 1
        if res.error is not None:
            self.errors.append(f"input {index}, {workers} worker(s): {res.error}")
        return res


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def untraced(runner, seconds, workers):
    start = time.perf_counter()
    count = len(runner.inputs)
    results = []
    i = 0
    while not runner.stop and (i < count or time.perf_counter() - start < seconds):
        results.append((i % count, runner.op(i % count, workers)))
        i += 1
    rates = [r.evals / r.wall_s for _, r in results if r.error is None]
    reference = next((r for k, r in results if k == 0 and r.error is None), None)
    return {
        "evals_per_s": statistics.median(rates) if rates else 0.0,
        "final_mse": reference.final_mse if reference else math.nan,
        "peak_rss_mb": peak_rss_mb(),
    }


def blas_probe(runner):
    """1 when run_liso's estimates are bit-identical under 1 and N BLAS threads."""
    digests = []
    threads = max(2, len(os.sched_getaffinity(0)))
    for n in (1, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n),
                   MKL_NUM_THREADS=str(n))
        runner.attempted += 1
        try:
            out = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), "blas", str(BLAS_PROBE_BUDGET)],
                env=env, capture_output=True, text=True, timeout=PROBE_DEADLINE_S, check=True,
            )
            digests.append(out.stdout.strip())
        except (subprocess.SubprocessError, OSError) as exc:
            runner.errors.append(f"BLAS probe with {n} thread(s): {exc!r}")
    if len(digests) != 2:
        return 0.0
    return 1.0 if digests[0] == digests[1] else 0.0


def traced(runner, seconds, workers, blas_invariant, spans_path):
    start = time.perf_counter()
    tracer = Tracer()
    walls_n, walls_1, overheads = [], [], []
    rounds = 0
    count = len(runner.inputs)
    while not runner.stop and (rounds == 0 or time.perf_counter() - start < seconds):
        k = rounds % count
        if runner.workload.uses_harness:
            r = runner.op(k, workers)
            if r.error is None:
                walls_n.append(r.wall_s)
        u = runner.op(k, 1)
        tracer.op_id = rounds
        tracer.keep_spans = rounds == 0  # span records of the first round only
        t = runner.op(k, 1, tracer)
        if u.error is None and t.error is None:
            walls_1.append(u.wall_s)
            overheads.append(t.wall_s / u.wall_s - 1.0)
        rounds += 1
    layers = tracer.layer_metrics(rounds)
    fanout = 0.0
    if walls_n and walls_1:
        fanout = statistics.median(walls_1) / (workers * statistics.median(walls_n))
    layers["harness.fanout_efficiency"] = fanout
    layers["trace.overhead_frac"] = statistics.median(overheads) if overheads else 0.0
    layers["estimators.blas_thread_invariant"] = blas_invariant
    tracer.dump(spans_path)
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload]
    env = numpy_env()
    recorded = None
    digests = json.loads((HERE / "digests.json").read_text())
    if digests.get("fingerprint") == env["fingerprint"]:
        recorded = digests.get(args.size, {}).get(args.workload)
    inputs = workload.inputs(args.seed, args.size, workdir)
    runner = Runner(workload, inputs, recorded)
    workers = len(os.sched_getaffinity(0))
    # Probe before any pinning: OpenBLAS uses no more threads than CPUs it may run on.
    blas_invariant = blas_probe(runner) if args.trace else None
    if workload.single_cpu:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        spans = workdir.parent / f"trace-{args.workload}.jsonl"
        metrics = traced(runner, args.seconds, workers, blas_invariant, spans)
    else:
        metrics = untraced(runner, args.seconds, workers)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "errors": runner.errors,
        "metrics": metrics,
        "env": env,
        "reference_digest": runner.first_digest.get(0),
        "digest_checked": recorded is not None,
    }))


if __name__ == "__main__":
    main()
