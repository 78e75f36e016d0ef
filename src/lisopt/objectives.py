"""Objective functions: counted evaluation, benchmark suite, external processes.

Every optimizer in this package talks to an :class:`Objective`, which owns
the evaluation counter so that all methods are compared on identical budgets.
``Objective.__call__`` is the one evaluation of a single point, a vector of
its dimension; ``sphere``, ``rastrigin`` and ``ackley`` call it on the suite
objective of the input's length (dimension 1 for an input of no length).
"""

from __future__ import annotations

import math
import os
import threading
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .estimators import _row_sum, _sq_dev_sum

if TYPE_CHECKING:  # the annotation of _exits_within
    import subprocess

Array = np.ndarray


# Seconds a child may take to finish up before it is killed: to exit once its
# input is closed, or to read the rest of a batch it has answered in full.
_CHILD_GRACE_S = 5


class EvaluationError(RuntimeError):
    """An objective evaluation failed (bad input, broken child process, ...)."""


class Objective:
    """A scalar function of a d-vector with a per-call evaluation counter.

    Values must be finite, with one exception: +inf is accepted as a
    zero-weight sentinel so that constrained domains can be expressed via an
    infinite penalty.  NaN and -inf are always rejected.

    Parameters
    ----------
    dimension:
        Length of the input vectors.
    batch_evaluator:
        Maps an (m, d) array to an (m,) array of values.
    known_minimizer:
        Location of the global minimum when known; enables error reporting.
    """

    def __init__(
        self,
        dimension: int,
        batch_evaluator: Callable[[Array], Array],
        known_minimizer: Optional[Array] = None,
        name: str = "objective",
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        self._batch = batch_evaluator
        self.known_minimizer = (
            None if known_minimizer is None
            else np.asarray(known_minimizer, dtype=float)
        )
        self.name = name
        self.eval_count = 0

    def __call__(self, x) -> float:
        """The value at the one point x, a d-vector; the counter advances by 1."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise EvaluationError(f"expected a vector of length {self.dimension}, got shape {x.shape}")
        return float(self.evaluate_batch(x[None, :])[0])

    def evaluate_batch(self, points: Array) -> Array:
        """Evaluate m points at once; the counter advances by m."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise EvaluationError(
                f"expected an (m, {self.dimension}) array, got shape {points.shape}"
            )
        if not np.isfinite(points).all():
            raise EvaluationError("input points contain non-finite components")
        values = np.asarray(self._batch(points), dtype=float)
        if values.shape != (points.shape[0],):
            raise EvaluationError("evaluator returned a wrongly shaped result")
        # NaN and -inf can never be absorbed by the log-weight core; +inf maps
        # to a zero weight downstream and is allowed through.  One comparison
        # rejects both: NaN > -inf is false.
        if not (values > -np.inf).all():
            raise EvaluationError("evaluator returned NaN or -inf")
        self.eval_count += points.shape[0]
        return values


# ----------------------------------------------------------------------
# Benchmark suite
# ----------------------------------------------------------------------

def sphere(x) -> float:
    """Sum of squares; global minimum 0 at the origin."""
    return benchmark("sphere", np.size(x) or 1)(x)


def rastrigin(x) -> float:
    """Multimodal benchmark, 10 d + sum(4 x_i^2 - 10 cos(pi x_i)).

    Note the coefficients 4 and 10 and the cos(pi x) argument: this is a
    deliberately rescaled variant of the textbook function (which uses
    x^2 - 10 cos(2 pi x)).  The experiments in this package depend on this
    curvature, so do not "fix" it to the textbook form.
    """
    return benchmark("rastrigin", np.size(x) or 1)(x)


def ackley(x) -> float:
    """Ackley benchmark with a narrow valley around the origin."""
    return benchmark("ackley", np.size(x) or 1)(x)


def _sphere_batch(points: Array) -> Array:
    return _sq_dev_sum(points)


def _rastrigin_batch(points: Array) -> Array:
    d = points.shape[1]
    return 10.0 * d + _row_sum(4.0 * points**2 - 10.0 * np.cos(np.pi * points))


def _ackley_batch(points: Array) -> Array:
    d = points.shape[1]
    rms = np.sqrt(_sq_dev_sum(points) / d)
    cos_mean = _row_sum(np.cos(2.0 * np.pi * points)) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + math.e


_BENCHMARKS = {
    "sphere": _sphere_batch,
    "rastrigin": _rastrigin_batch,
    "ackley": _ackley_batch,
}


def benchmark(name: str, dimension: int) -> Objective:
    """Construct a counted benchmark objective by name.

    All benchmarks have their unique global minimum (value 0) at the origin.
    """
    try:
        fn = _BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(_BENCHMARKS)}"
        ) from None
    return Objective(
        dimension,
        fn,
        known_minimizer=np.zeros(dimension),
        name=name,
    )


def benchmark_names() -> Sequence[str]:
    return tuple(sorted(_BENCHMARKS))


# ----------------------------------------------------------------------
# External-process objectives
# ----------------------------------------------------------------------

def format_float(v: float) -> str:
    """Round-trip-exact decimal formatting (shortest repr)."""
    return repr(float(v))


class ExternalObjective(Objective):
    """Objective evaluated by a child process speaking a line protocol.

    Request: the d coordinates as round-trip-exact decimals separated by
    single spaces, one line per evaluation, on the child's stdin.
    Response: one decimal number on one line from the child's stdout.
    One request is always followed by exactly one response.

    Requests are pipelined one batch at a time: all m lines of a batch are
    written by a background thread while the m answers are read, so a batch
    larger than the pipe buffer cannot deadlock.  The child must therefore
    answer lines in order and flush each answer without waiting for more
    input, and read every line of a batch: once all answers are in, a child
    still not reading after 5 s is killed.  Any error in the middle of a batch
    kills the child, because its unread answers would pair later requests
    with stale responses; every later call then fails with "child process has
    exited".

    The child is single-threaded: concurrent use requires one child per
    worker.  Call :meth:`close` (or use as a context manager) to terminate
    the child.
    """

    def __init__(self, command: Union[str, Sequence[str]], dimension: int):
        # Here, not at the top: only the owner of a child pays their ~5 ms import.
        import shlex
        import subprocess

        # The base class checks the dimension, so a bad one raises before any child exists.
        super().__init__(dimension, self._batch_roundtrip, name="external")
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise EvaluationError(f"failed to spawn {argv!r}: {exc}") from exc

    def _write(self, payload: str, failures: list) -> None:
        try:
            self._proc.stdin.write(payload)
            self._proc.stdin.flush()
        except OSError as exc:  # BrokenPipeError when the child is gone
            failures.append(exc)

    def _read_value(self) -> float:
        try:
            response = self._proc.stdout.readline()
        except OSError as exc:
            raise EvaluationError(f"child pipe failure: {exc}") from exc
        if response == "":
            raise EvaluationError("child closed its output stream")
        try:
            value = float(response.strip())
        except ValueError:
            raise EvaluationError(
                f"malformed response line: {response!r}"
            ) from None
        if math.isnan(value) or value == -math.inf:
            raise EvaluationError(f"child returned a non-finite value: {response!r}")
        return value

    def _batch_roundtrip(self, points: Array) -> Array:
        if self._proc.poll() is not None:
            raise EvaluationError("child process has exited")
        # repr of a Python float is exactly format_float.
        payload = "".join(" ".join(map(repr, row)) + "\n" for row in points.tolist())
        failures: list = []
        writer = threading.Thread(target=self._write, args=(payload, failures), daemon=True)
        writer.start()
        try:
            values = np.array([self._read_value() for _ in range(len(points))])
            # A child that has answered every line has read every line, so the
            # writer is done; one still writing means the child ignores its input.
            writer.join(timeout=_CHILD_GRACE_S)
            if writer.is_alive():
                raise EvaluationError(
                    f"child answered all {len(points)} lines without reading them "
                    f"within {_CHILD_GRACE_S} s"
                )
            if failures:
                raise EvaluationError(f"child pipe failure: {failures[0]}") from failures[0]
        except BaseException:
            # Killing the child first unblocks a writer stuck on a full pipe.
            self._proc.kill()
            writer.join()
            self.close()
            raise
        return values

    def close(self) -> None:
        """End the child's input, wait up to 5 s for it to exit, then kill it.

        The child is always reaped: ``returncode`` is set afterwards.
        """
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:  # unsent input to a dead child is dropped
            pass
        if proc.poll() is None and not _exits_within(proc, _CHILD_GRACE_S):
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ExternalObjective":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _exits_within(proc: subprocess.Popen, seconds: float) -> bool:
    """Wait up to ``seconds`` for an unreaped child to exit, and reap it if it
    does; returns whether it did.

    The wait blocks on a pidfd, which wakes as soon as the child exits, where
    ``Popen.wait(timeout)`` polls with sleeps; without pidfds it is that.
    """
    import select  # here, not at the top, as in ExternalObjective.__init__
    import subprocess

    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        try:
            proc.wait(timeout=seconds)
        except subprocess.TimeoutExpired:
            return False
        return True
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        exited = bool(poller.poll(seconds * 1000))
    finally:
        os.close(fd)
    if exited:
        proc.wait()
    return exited


def external_objective(command: Union[str, Sequence[str]], dimension: int) -> ExternalObjective:
    """Spawn a child process and wrap it as a counted objective."""
    return ExternalObjective(command, dimension)
