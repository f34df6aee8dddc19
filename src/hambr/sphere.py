"""Primitive geometry on the unit hypersphere.

Positions live on S^{d-1}, momenta in the tangent space at their base point.
Everything downstream (energy queries, the sampler, the training loop) relies
on those two invariants, so the wrapper types enforce them at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9          # unit-norm / tangency tolerance for the wrapper types
DEGENERATE_NORM = 1e-12  # below this a vector has no usable direction
ANTIPODAL_TOL = 1e-8     # transport is ill-conditioned past dot < -1 + this


class DegenerateVector(ValueError):
    """Vector too close to zero to normalize."""


class AntipodalTransport(ValueError):
    """Transport between (near-)antipodal points is undefined."""


def _norm(v: np.ndarray) -> float:
    """|v| of a 1-d float vector by np.linalg.norm's own formula, so bitwise
    the same, without its dispatch.  The primitives below run a few times per
    sampler step on short vectors, so they also take dots as `a.dot(b)` and
    cos/sin of floats through `math`."""
    return math.sqrt(v.dot(v))


def _as_float_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A point on S^{d-1}; norm checked to NORM_TOL, d >= 2."""

    coords: np.ndarray

    def __post_init__(self):
        v = _as_float_vector(self.coords).copy()
        if v.size < 2:
            raise ValueError("dimension must be >= 2")
        n = _norm(v)
        if not abs(n - 1.0) <= NORM_TOL:  # also rejects NaN and inf coordinates
            raise ValueError(f"not unit norm: |v| = {n!r}")
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A vector in the tangent space at `base`; orthogonality checked to NORM_TOL."""

    coords: np.ndarray
    base: UnitVector

    def __post_init__(self):
        v = _as_float_vector(self.coords).copy()
        if v.size != self.base.dim:
            raise ValueError("tangent and base dimensions differ")
        d = float(v.dot(self.base.coords))
        if not abs(d) <= NORM_TOL:  # a NaN or inf coordinate makes d NaN or inf
            raise ValueError(f"not tangent at base: <v, z> = {d!r}")
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)

    @property
    def norm(self) -> float:
        return _norm(self.coords)


def check_unit_rows(x: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row of the (n, d) array `x` whose norm
    is not 1 to NORM_TOL; rows with NaN or inf coordinates fail."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        raise ValueError(f"{what} {bad[0]} is not unit norm: |v| = {float(norms[bad[0]])}")


def normalize(x) -> UnitVector:
    """Scale x to unit norm. Raises DegenerateVector if |x| <= 1e-12."""
    v = _as_float_vector(x)
    n = _norm(v)
    if n <= DEGENERATE_NORM:
        raise DegenerateVector(f"norm {n!r} too small to normalize")
    return UnitVector(v / n)


def project_tangent(v, z: UnitVector) -> TangentVector:
    """Orthogonal projection of v onto the tangent space at z: v - <v,z> z."""
    v = _as_float_vector(v)
    out = v - v.dot(z.coords) * z.coords
    return TangentVector(out, z)


def geodesic_step(z: UnitVector, v: TangentVector, eps: float) -> UnitVector:
    """Move along the great circle through z in direction v for arc length |v|*eps.

    A zero-magnitude momentum (|v| < 1e-12) leaves z unchanged.  The result is
    renormalized so rounding never drifts off the sphere.
    """
    speed = v.norm
    if speed < DEGENERATE_NORM:
        return z
    angle = speed * eps
    out = math.cos(angle) * z.coords + math.sin(angle) * (v.coords / speed)
    return normalize(out)


def transport(v: TangentVector, z_from: UnitVector, z_to: UnitVector) -> TangentVector:
    """Parallel-transport v from z_from to z_to along the connecting geodesic.

    Rotation in span{z_from, z_to}; the component of v orthogonal to that plane
    is unchanged.  Raises AntipodalTransport when the geodesic is ambiguous.
    """
    c = float(z_from.coords.dot(z_to.coords))
    if c < -1.0 + ANTIPODAL_TOL:
        raise AntipodalTransport(f"base points nearly antipodal: <from, to> = {c!r}")
    w = z_to.coords - c * z_from.coords
    wn = _norm(w)
    if wn < DEGENERATE_NORM:
        # same base point: transport is the identity
        return TangentVector(v.coords, z_to)
    e = w / wn
    a = float(v.coords.dot(e))
    # np.arctan2, not math.atan2: the two round differently on some inputs
    theta = np.arctan2(wn, c)  # wn = sin(theta) for unit inputs
    out = (v.coords - a * e) + a * (math.cos(theta) * e - math.sin(theta) * z_from.coords)
    out = out - out.dot(z_to.coords) * z_to.coords  # scrub rounding residual
    return TangentVector(out, z_to)


def sample_tangent_gaussian(z: UnitVector, rng: np.random.Generator) -> TangentVector:
    """Standard normal in the ambient space, projected onto the tangent at z."""
    return project_tangent(rng.standard_normal(z.dim), z)
