"""Seeded sampling policies: isotropic Gaussians and Gaussian/envelope mixtures.

Randomness contract
-------------------
All sampling goes through ``numpy.random.Generator`` seeded with PCG64.
Gaussian variates come from numpy's ziggurat implementation of
``standard_normal``; together with PCG64 this fixes bit-exact sample streams
for a given seed, across runs and platforms.  A trial's generator is
``make_rng(derive_seed(seed, index))``: the base seed XOR a splitmix64 hash
of the trial index, so trials are reproducible independently and in
parallel.

Sampling is affine: a policy scales a block of standard normals by its
standard deviations and adds its means, in place in the block it drew.  That
is the same two roundings per element as ``mean + std * z``, so the samples
are bit-identical to the out-of-place formula.  ``sample(rng, count, out=buf)``
draws into a caller's C-contiguous (count, d) float buffer instead of a new
array: ``standard_normal(out=buf)`` gives the bits of
``standard_normal((count, d))`` and advances the generator alike, so a sample
and the stream after it do not depend on whether ``out`` is given.
Log-densities square and sum one column at a time (``_sq_dev_sum`` of
:mod:`lisopt.estimators`, the bits of numpy's row sum), with no (m, d)
temporary below eight dimensions; ``log_density_batch(points, out=buf)``
writes them into a caller's (m,) float buffer and returns it, with the bits of
the call without ``out``.  Densities are batch-only: the log-density at one
point x is ``log_density_batch(x[None])[0]``.  That arithmetic is written
once, in ``_draw`` and ``_log_density``, for a mixture of two (mean, variance,
log-normaliser) triples, a Gaussian being the mixture of weight 0.  The
policies call them, and so does the adaptive driver loop with its run's
triples, so no batch builds a policy.

Policies are values: immutable after construction (a Gaussian keeps its own
read-only copy of its mean and the float of its variance, a mixture the
float of its weight) and safe to share between workers; generators are
never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .estimators import _count, _positive_finite, _real_array, _sq_dev_sum, _unit_interval

Array = np.ndarray

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    """A PCG64 generator for a seed, any integer, taken modulo 2**64."""
    return np.random.Generator(np.random.PCG64(_count("seed", seed, None) & _MASK64))


def derive_seed(seed: int, index: int) -> int:
    """Seed for sub-stream ``index`` of a base seed: seed XOR splitmix64(index)."""
    return (_count("seed", seed, None) & _MASK64) ^ _splitmix64(_count("index", index, None))


def _equal_by_value(self, other) -> bool:
    """``__eq__`` of a dataclass with array fields: the same type, and each
    compared field equal element by element (the generated one asks an array
    for a bool)."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


def _rebuilt_by_value(self):
    """``__reduce__`` of a checked dataclass: unpickling calls the class on
    the init fields, so a copy in another process is checked and read-only
    as the original is."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class IsotropicGaussian:
    """N(mean, variance * I_d) with scalar variance.

    Only isotropic Gaussians are supported: every experiment in this package
    uses a scalar variance, and covariance adaptation is explicitly out of
    scope.
    """

    mean: Array
    variance: float

    def __post_init__(self):
        mean = _real_array("mean", self.mean, frozen=True)  # a copy the caller cannot change
        object.__setattr__(self, "mean", mean)
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValueError("mean must be a finite 1-d vector")
        object.__setattr__(self, "variance", _positive_finite("variance", self.variance))
        # (mean, variance, log-normaliser): the form _draw and _log_density take.
        object.__setattr__(self, "_component", (mean, self.variance, _log_normalizer(mean.size, self.variance)))

    __eq__ = _equal_by_value
    __reduce__ = _rebuilt_by_value

    @property
    def dimension(self) -> int:
        return self.mean.size

    def log_density_batch(self, points: Array, out=None) -> Array:
        return _log_density(points, 0.0, self._component, None, out)

    def sample(self, rng: np.random.Generator, count: int, out=None) -> Array:
        _count("count", count)
        return _draw(rng, count, 0.0, self._component, None, out)


@dataclass(frozen=True)
class MixturePolicy:
    """(1 - weight) * adapted + weight * envelope.

    The envelope component is the fixed base policy; keeping its mass at
    ``weight`` > 0 preserves a global lower envelope on the mixture density,
    which keeps importance weights bounded when the adapted mean drifts.
    """

    weight: float
    adapted: IsotropicGaussian
    envelope: IsotropicGaussian

    def __post_init__(self):
        object.__setattr__(self, "weight", _unit_interval("mixture weight", self.weight))
        if self.adapted.dimension != self.envelope.dimension:
            raise ValueError("component dimensions differ")

    @property
    def dimension(self) -> int:
        return self.adapted.dimension

    def log_density_batch(self, points: Array, out=None) -> Array:
        return _log_density(points, self.weight, self.adapted._component, self.envelope._component, out)

    def sample(self, rng: np.random.Generator, count: int, out=None) -> Array:
        _count("count", count)
        return _draw(rng, count, self.weight, self.adapted._component, self.envelope._component, out)


def _log_normalizer(d: int, variance: float) -> float:
    """log of N(mean, variance I_d)'s density at its mean."""
    return -0.5 * d * np.log(2.0 * np.pi * variance)


def _draw(rng: np.random.Generator, count: int, weight: float, adapted, envelope, out=None) -> Array:
    """``count`` draws from (1 - weight) N(adapted) + weight N(envelope), into ``out``
    when given, each component an ``IsotropicGaussian._component`` triple.  A degenerate
    weight draws no component-selection uniforms: its stream is its component's own."""
    if weight == 0.0 or weight == 1.0:
        mean, variance, _ = envelope if weight else adapted
        z = rng.standard_normal((count, mean.size), out=out)
        z *= math.sqrt(variance)
        z += mean
        return z
    pick_envelope = rng.random(count) < weight
    z = rng.standard_normal((count, adapted[0].size), out=out)
    means = np.where(pick_envelope[:, None], envelope[0], adapted[0])
    stds = np.where(pick_envelope, math.sqrt(envelope[1]), math.sqrt(adapted[1]))
    z *= stds[:, None]
    z += means
    return z


def _log_density(points, weight: float, adapted, envelope, out=None) -> Array:
    """The log-density of ``_draw``'s mixture at each of the (m, d) ``points``,
    into ``out`` when given; a degenerate weight gives its component's bits."""
    d = adapted[0].size
    points = _real_array("points", points)
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"expected an (m, {d}) array of points, got shape {points.shape}")
    if weight == 0.0 or weight == 1.0:
        mean, variance, log_normalizer = envelope if weight else adapted
        sq = _sq_dev_sum(points, mean, out)
        sq /= 2.0 * variance
        return np.subtract(log_normalizer, sq, out=sq)
    a = _log_density(points, 0.0, adapted, None) + math.log1p(-weight)
    b = _log_density(points, 0.0, envelope, None) + math.log(weight)
    m = np.maximum(a, b)
    return np.add(m, np.log(np.exp(a - m) + np.exp(b - m)), out=out)
