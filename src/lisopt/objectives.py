"""Objective functions: counted evaluation, benchmark suite, external processes.

Every optimizer in this package, and the quadrature oracle, talks to an
:class:`Objective`, which owns the evaluation counter so that all methods are
compared on identical budgets; every objective the package defines is one.
``Objective.__call__`` is the one evaluation of a single point, a vector of
its dimension; ``sphere``, ``rastrigin`` and ``ackley`` call it on the suite
objective of the input's length (dimension 1 for an input of no length).
"""

from __future__ import annotations

import math
import os
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .estimators import _count, _row_sum, _sq_dev_sum

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
        Length of the input vectors: an int or a numpy integer, not a bool.
    batch_evaluator:
        Maps an (m, d) array to an (m,) array of values.
    known_minimizer:
        Location of the global minimum when known, a finite d-vector; enables
        error reporting.  The objective keeps its own read-only copy.
    """

    def __init__(
        self,
        dimension: int,
        batch_evaluator: Callable[[Array], Array],
        known_minimizer: Optional[Array] = None,
        name: str = "objective",
    ):
        self.dimension = _count("dimension", dimension)
        self._batch = batch_evaluator
        if known_minimizer is not None:
            known_minimizer = np.array(known_minimizer, dtype=float)  # a copy the caller cannot change
            if known_minimizer.shape != (self.dimension,) or not np.isfinite(known_minimizer).all():
                raise ValueError(f"known_minimizer must be a finite vector of length {self.dimension}, "
                                 f"got {np.array2string(known_minimizer, threshold=6)}")
            known_minimizer.flags.writeable = False
        self.known_minimizer = known_minimizer
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
    One request is always followed by exactly one response: a line past them
    is an error, seen in the batch if it came with the batch's answers and at
    the latest by :meth:`close`, once the child has exited.

    Requests are pipelined one batch at a time: one poll loop writes the m
    lines of a batch while it reads the m answers, so a batch larger than the
    pipe buffer cannot deadlock.  The child must therefore answer lines in
    order and flush each answer without waiting for more input, and read
    every line of a batch: once all answers are in, a child still not reading
    after 5 s is killed.  Any error in the middle of a batch kills the child,
    because its unread answers would pair later requests with stale
    responses; every later call then fails with "child process has exited".

    The child is single-threaded: concurrent use requires one child per
    worker.  Call :meth:`close` (or use as a context manager) to terminate
    the child.
    """

    def __init__(self, command: Union[str, Sequence[str]], dimension: int):
        # Here, not at the top: only the owner of a child pays their ~5 ms import.
        import shlex
        import subprocess

        # The base class checks the dimension, and the command is checked
        # here, so a bad one raises before any child exists.
        super().__init__(dimension, self._batch_roundtrip, name="external")
        try:
            argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:  # an unclosed quote or a trailing escape
            raise ValueError(f"cannot split the command {command!r}: {exc}") from None
        if not argv:
            raise ValueError(f"the command {command!r} names no program")
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise EvaluationError(f"failed to spawn {argv!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)  # _exchange writes what the pipe takes

    def _exchange(self, payload: bytes, m: int) -> Array:
        """Send ``payload`` while reading the child's next m answers, each
        checked as soon as its line is in, through the pipes' descriptors, so
        nothing the child sent is left unseen in a buffer.
        """
        import select  # here, not at the top, as in __init__

        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        poller = select.poll()
        poller.register(stdin, select.POLLOUT)
        poller.register(stdout, select.POLLIN)
        view, sent, failure = memoryview(payload), 0, None
        values, tail, deadline = [], b"", None
        while len(values) < m or (sent < len(view) and failure is None):
            if len(values) == m and deadline is None:  # stop reading; the write has its grace
                poller.unregister(stdout)
                deadline = time.monotonic() + _CHILD_GRACE_S
            wait = None if deadline is None else max(deadline - time.monotonic(), 0.0) * 1000
            events = poller.poll(wait)
            if not events:
                raise EvaluationError(f"child answered all {m} lines without reading them "
                                      f"within {_CHILD_GRACE_S} s")
            for fd, _ in events:
                if fd == stdin:
                    try:
                        sent += os.write(stdin, view[sent:])
                    except BlockingIOError:  # the pipe took nothing yet
                        pass
                    except OSError as exc:  # BrokenPipeError when the child is gone
                        failure = exc
                    if sent == len(view) or failure is not None:
                        poller.unregister(stdin)
                    continue
                try:
                    chunk = os.read(stdout, 1 << 16)
                except OSError as exc:
                    raise EvaluationError(f"child pipe failure: {exc}") from exc
                if not chunk:  # the output ended; an unterminated last line is an answer too
                    values += map(_answer, [tail] if tail else [])
                    if len(values) < m:
                        raise EvaluationError("child closed its output stream")
                    tail = b""
                else:
                    *lines, tail = (tail + chunk).split(b"\n", m - len(values))
                    values += map(_answer, lines)
        if failure is not None:  # only now, so that a closed output stream wins
            raise EvaluationError(f"child pipe failure: {failure}") from failure
        _refuse_surplus(tail)
        return np.array(values)

    def _batch_roundtrip(self, points: Array) -> Array:
        if self._proc.poll() is not None:
            raise EvaluationError("child process has exited")
        # repr of a Python float is exactly format_float.
        payload = "".join(" ".join(map(repr, row)) + "\n" for row in points.tolist())
        try:
            return self._exchange(payload.encode(), len(points))
        except BaseException:
            self._proc.kill()
            self._stop()
            raise

    def close(self) -> None:
        """End the child's input, wait up to 5 s for it to exit, then kill it;
        an EvaluationError if it had written a line past its last answer.

        The child is always reaped: ``returncode`` is set afterwards.
        """
        _refuse_surplus(self._stop())

    def _stop(self) -> bytes:
        """``close`` without its check: returns what the child left unread
        (one non-blocking read, which a grandchild holding the pipe cannot
        stall); nothing when the child was stopped before."""
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:  # unsent input to a dead child is dropped
            pass
        if proc.poll() is None and not _exits_within(proc, _CHILD_GRACE_S):
            proc.kill()
            proc.wait()
        if proc.stdout.closed:
            return b""
        os.set_blocking(proc.stdout.fileno(), False)
        try:
            left = os.read(proc.stdout.fileno(), 1 << 16)
        except BlockingIOError:  # nothing was written, and the pipe is still open
            left = b""
        proc.stdout.close()
        return left

    def __enter__(self) -> "ExternalObjective":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:  # an error already propagating is not replaced by close's own
            self._stop()


def _answer(line: bytes) -> float:
    """One response line of an external child as its value."""
    try:
        value = float(line)
    except ValueError:
        raise EvaluationError(f"malformed response line: {line.decode(errors='replace')!r}") from None
    if math.isnan(value) or value == -math.inf:
        raise EvaluationError(f"child returned a non-finite value: {line.decode(errors='replace')!r}")
    return value


def _refuse_surplus(data: bytes) -> None:
    """An EvaluationError quoting the first line of ``data``, answers the child sent past its requests."""
    if data:
        line = data.split(b"\n", 1)[0].decode(errors="replace")
        raise EvaluationError(f"child answered more lines than it was sent: {line!r}")


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
