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
point x is ``log_density_batch(x[None])[0]``.

Policies are values: immutable after construction (a Gaussian keeps its own
read-only copy of its mean and the float of its variance, a mixture the
float of its weight) and safe to share between workers; generators are
never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .estimators import _count, _positive_finite, _sq_dev_sum, _unit_interval

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
        mean = np.array(self.mean, dtype=float)  # a copy the caller cannot change
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValueError("mean must be a finite 1-d vector")
        object.__setattr__(self, "variance", _positive_finite("variance", self.variance))

    __eq__ = _equal_by_value
    __reduce__ = _rebuilt_by_value

    @property
    def dimension(self) -> int:
        return self.mean.size

    def log_density_batch(self, points: Array, out=None) -> Array:
        d = self.dimension
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != d:
            raise ValueError(f"expected an (m, {d}) array of points, got shape {points.shape}")
        sq = _sq_dev_sum(points, self.mean, out)
        sq /= 2.0 * self.variance
        return np.subtract(-0.5 * d * np.log(2.0 * np.pi * self.variance), sq, out=sq)

    def sample(self, rng: np.random.Generator, count: int, out=None) -> Array:
        _count("count", count)
        z = rng.standard_normal((count, self.dimension), out=out)
        z *= math.sqrt(self.variance)
        z += self.mean
        return z


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
        # Degenerate weights return the component bit-exactly.
        if self.weight == 0.0:
            return self.adapted.log_density_batch(points, out)
        if self.weight == 1.0:
            return self.envelope.log_density_batch(points, out)
        a = self.adapted.log_density_batch(points) + math.log1p(-self.weight)
        b = self.envelope.log_density_batch(points) + math.log(self.weight)
        m = np.maximum(a, b)
        return np.add(m, np.log(np.exp(a - m) + np.exp(b - m)), out=out)

    def sample(self, rng: np.random.Generator, count: int, out=None) -> Array:
        _count("count", count)
        # Degenerate mixtures skip the component-selection uniforms so that
        # their sample stream coincides with sampling the component directly.
        if self.weight == 0.0:
            return self.adapted.sample(rng, count, out)
        if self.weight == 1.0:
            return self.envelope.sample(rng, count, out)
        pick_envelope = rng.random(count) < self.weight
        z = rng.standard_normal((count, self.dimension), out=out)
        means = np.where(pick_envelope[:, None], self.envelope.mean, self.adapted.mean)
        stds = np.where(
            pick_envelope,
            math.sqrt(self.envelope.variance),
            math.sqrt(self.adapted.variance),
        )
        z *= stds[:, None]
        z += means
        return z
