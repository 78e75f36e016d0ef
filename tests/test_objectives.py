import math
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from lisopt import (
    EvaluationError,
    Objective,
    ackley,
    benchmark,
    benchmark_names,
    external_objective,
    rastrigin,
    sphere,
)

ACKLEY_HALF = 20.0 + math.e - 20.0 * math.exp(-0.1) - math.exp(-1.0)


def test_sphere_spot_values():
    assert sphere(np.zeros(4)) == 0.0
    assert sphere(np.array([3.0, 4.0])) == 25.0
    assert sphere(np.ones(4)) == 4.0


def test_rastrigin_spot_values():
    assert rastrigin(np.zeros(4)) == 0.0
    # 20 + (4 - 10 cos pi) + (0 - 10 cos 0) = 20 + 14 - 10
    assert rastrigin(np.array([1.0, 0.0])) == pytest.approx(24.0, abs=1e-12)
    # 10 + 4 * 0.25 - 10 cos(pi/2)
    assert rastrigin(np.array([0.5])) == pytest.approx(11.0, abs=1e-12)


def test_ackley_spot_values():
    assert ackley(np.zeros(4)) == pytest.approx(0.0, abs=1e-12)
    assert ackley(np.zeros(1)) == pytest.approx(0.0, abs=1e-12)
    assert ackley(np.array([0.5])) == pytest.approx(ACKLEY_HALF, abs=1e-12)


def test_benchmarks_positive_away_from_origin():
    rng = np.random.default_rng(0)
    for name in ("sphere", "ackley"):
        obj = benchmark(name, 3)
        pts = rng.standard_normal((1000, 3)) * 10
        pts = pts[np.any(pts != 0, axis=1)]
        assert np.all(obj.evaluate_batch(pts) > 0)
    # The rescaled rastrigin is checked on its usual sampling box only.
    obj = benchmark("rastrigin", 3)
    pts = rng.uniform(-5, 5, size=(1000, 3))
    pts = pts[np.any(pts != 0, axis=1)]
    assert np.all(obj.evaluate_batch(pts) > 0)


def test_benchmarks_deterministic_and_minimized_at_known_minimizer():
    for name in benchmark_names():
        obj = benchmark(name, 5)
        x = np.linspace(-2, 2, 5)
        assert obj(x) == obj(x)
        assert obj(obj.known_minimizer) == pytest.approx(0.0, abs=1e-12)


def test_unknown_benchmark_names_the_choices():
    message = "unknown benchmark 'nope'; choose from ['ackley', 'rastrigin', 'sphere']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        benchmark("nope", 2)


@pytest.mark.parametrize("evaluate", [sphere, rastrigin, ackley, benchmark("sphere", 2)],
                         ids=["sphere", "rastrigin", "ackley", "objective"])
@pytest.mark.parametrize("x,shape", [([], "(0,)"), (2.0, "()"), ([[1.0, 2.0]], "(1, 2)")],
                         ids=["empty", "scalar", "matrix"])
def test_one_point_must_be_a_nonempty_vector(evaluate, x, shape):
    message = rf"^expected a vector of length \d+, got shape {re.escape(shape)}$"
    with pytest.raises(EvaluationError, match=message):
        evaluate(x)


def test_eval_counter_counts_every_evaluation():
    obj = benchmark("sphere", 2)
    for k in range(1, 6):
        obj(np.zeros(2))
        assert obj.eval_count == k
    obj.evaluate_batch(np.zeros((7, 2)))
    assert obj.eval_count == 12


def test_nonfinite_input_rejected():
    obj = benchmark("sphere", 2)
    with pytest.raises(EvaluationError):
        obj(np.array([np.nan, 0.0]))
    with pytest.raises(EvaluationError):
        obj(np.array([np.inf, 0.0]))
    with pytest.raises(EvaluationError, match=r"^expected a vector of length 2, got shape \(3,\)$"):
        obj(np.zeros(3))


def test_nan_output_rejected_plus_inf_allowed():
    bad = Objective(1, lambda P: np.full(P.shape[0], np.nan))
    with pytest.raises(EvaluationError):
        bad(np.zeros(1))
    neg = Objective(1, lambda P: np.full(P.shape[0], -np.inf))
    with pytest.raises(EvaluationError):
        neg(np.zeros(1))
    extra = Objective(2, lambda P: np.zeros(P.shape[0] + 1))
    with pytest.raises(EvaluationError, match="wrongly shaped result"):
        extra.evaluate_batch(np.zeros((3, 2)))
    penalty = Objective(1, lambda P: np.where(np.abs(P[:, 0]) > 1, np.inf, 0.0))
    assert penalty(np.array([2.0])) == np.inf
    assert penalty(np.array([0.5])) == 0.0


# ----------------------------------------------------------------------
# External line-protocol objectives
# ----------------------------------------------------------------------

CONSTANT_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('0.0'); sys.stdout.flush()\n"
)]

SPHERE_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    xs = [float(v) for v in line.split()]\n"
    "    print(repr(sum(v * v for v in xs))); sys.stdout.flush()\n"
)]

NAN_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('nan'); sys.stdout.flush()\n"
)]

GARBAGE_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('not-a-number'); sys.stdout.flush()\n"
)]


# Sums left to right like numpy's row sum of four, so its values are bit-equal
# to benchmark("sphere", 4) (the builtin sum changed its algorithm in 3.12).
LOOP_SPHERE_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    s = 0.0\n"
    "    for v in line.split():\n"
    "        s += float(v) * float(v)\n"
    "    print(repr(s)); sys.stdout.flush()\n"
)]

EXIT_AFTER_10_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for i in range(10):\n"
    "    sys.stdin.readline(); print('1.0'); sys.stdout.flush()\n"
)]

ANSWER_WITHOUT_READING_STUB = [sys.executable, "-u", "-c", (
    "while True:\n"
    "    print('0.0', flush=True)\n"
)]

GARBAGE_AT_5_STUB = [sys.executable, "-u", "-c", (
    "import sys\n"
    "for i, line in enumerate(sys.stdin):\n"
    "    print('oops' if i == 4 else '1.0'); sys.stdout.flush()\n"
)]


def test_external_constant_stub():
    with external_objective(CONSTANT_STUB, 3) as obj:
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert obj(rng.standard_normal(3)) == 0.0
        assert obj.eval_count == 5


def test_external_sphere_stub_matches_in_process_oracle():
    rng = np.random.default_rng(2)
    with external_objective(SPHERE_STUB, 4) as obj:
        for _ in range(100):
            x = rng.standard_normal(4)
            assert obj(x) == pytest.approx(sphere(x), abs=1e-12)


def test_external_nan_response_is_an_error():
    with external_objective(NAN_STUB, 2) as obj:
        with pytest.raises(EvaluationError):
            obj(np.zeros(2))


def test_external_malformed_response_is_an_error():
    with external_objective(GARBAGE_STUB, 2) as obj:
        with pytest.raises(EvaluationError, match="not-a-number"):
            obj(np.zeros(2))


def test_external_child_exit_is_an_error():
    with external_objective([sys.executable, "-c", "pass"], 2) as obj:
        with pytest.raises(EvaluationError):
            obj(np.zeros(2))


def test_external_spawn_failure():
    with pytest.raises(EvaluationError):
        external_objective(["/nonexistent/binary"], 2)


def test_external_bad_dimension_spawns_no_child(monkeypatch, tmp_path):
    spawned, popen = [], subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    marker = tmp_path / "spawned"
    try:
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            external_objective([sys.executable, "-c", f"open({str(marker)!r}, 'w')"], 0)
    finally:
        for proc in spawned:  # reap a child spawned anyway, so the marker check is not a race
            proc.communicate()
    assert not spawned and not marker.exists()


def finish_within(seconds, fn):
    """Run ``fn`` in a daemon thread; fail instead of hanging if it blocks."""
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(fn()), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"still blocked after {seconds} s"
    assert outcome, "the call raised in its thread"
    return outcome[0]


def test_external_batch_larger_than_pipe_buffer_is_pipelined():
    points = np.random.default_rng(3).standard_normal((20_000, 4))  # ~1.5 MB of requests

    def evaluate():
        with external_objective(LOOP_SPHERE_STUB, 4) as obj:
            return obj.evaluate_batch(points), obj.eval_count

    values, count = finish_within(60, evaluate)
    assert count == 20_000
    assert np.array_equal(values, benchmark("sphere", 4).evaluate_batch(points))


def test_external_child_exit_mid_batch_does_not_hang():
    def evaluate():
        with external_objective(EXIT_AFTER_10_STUB, 4) as obj:
            with pytest.raises(EvaluationError, match="closed its output stream"):
                obj.evaluate_batch(np.ones((1000, 4)))  # ~80 kB, past the pipe buffer
        return True

    assert finish_within(10, evaluate)


def test_external_error_mid_batch_closes_the_objective():
    with external_objective(GARBAGE_AT_5_STUB, 2) as obj:
        with pytest.raises(EvaluationError, match="malformed response line"):
            obj.evaluate_batch(np.zeros((10, 2)))
        # Unread answers would pair later requests with stale responses.
        with pytest.raises(EvaluationError, match="child process has exited"):
            obj(np.zeros(2))
        assert obj.eval_count == 0


def test_external_child_that_never_reads_is_killed():
    # The answers arrive at once, but ~1.5 MB of requests never leave the
    # writer: the child must be killed after the grace period instead of the
    # writer being joined forever.
    def evaluate():
        with external_objective(ANSWER_WITHOUT_READING_STUB, 4) as obj:
            with pytest.raises(EvaluationError, match="without reading"):
                obj.evaluate_batch(np.ones((20_000, 4)))
            assert obj._proc.poll() is not None
            with pytest.raises(EvaluationError, match="child process has exited"):
                obj(np.zeros(4))
            assert obj.eval_count == 0
        return True

    assert finish_within(30, evaluate)


@pytest.mark.parametrize("pidfd", [True, False], ids=["pidfd", "no_pidfd"])
def test_external_close_reaps_the_child(monkeypatch, pidfd):
    if not pidfd:  # the portable path: Popen.wait with a timeout
        monkeypatch.delattr("os.pidfd_open", raising=False)
    obj = external_objective(SPHERE_STUB, 2)
    assert obj(np.ones(2)) == 2.0
    obj.close()
    assert obj._proc.returncode == 0


# Ignores the end of its input and never exits on its own.
IGNORE_EOF_STUB = [sys.executable, "-u", "-c", (
    "import sys, time\n"
    "sys.stdin.read()\n"
    "time.sleep(60)\n"
)]


@pytest.mark.parametrize("pidfd", [True, False], ids=["pidfd", "no_pidfd"])
def test_external_close_kills_a_child_that_does_not_exit(monkeypatch, pidfd):
    from lisopt import objectives
    monkeypatch.setattr(objectives, "_CHILD_GRACE_S", 0.2)
    if not pidfd:
        monkeypatch.delattr("os.pidfd_open", raising=False)
    obj = external_objective(IGNORE_EOF_STUB, 2)
    finish_within(10, lambda: obj.close())
    assert obj._proc.returncode is not None and obj._proc.returncode < 0  # killed
