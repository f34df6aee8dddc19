"""Primitive geometry on the unit hypersphere.

Positions are `UnitVector`s on S^{d-1}, checked at construction.  The
primitives pass tangent vectors as plain 1-d float arrays; `TangentVector`
checks one where it is kept, as a chain state's momentum.
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
    """|v| of a 1-d float vector as np.linalg.norm computes it, the norm of every
    unit-norm check.  The primitives below run a few times per sampler step on
    short vectors, so they also take dots as `a.dot(b)` and cos/sin via `math`."""
    return math.sqrt(v.dot(v))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """`_norm` of each row of the (n, d) array `x`, bitwise, in one batched
    product: the (1, d) @ (d, 1) product of each row with itself rounds as
    `row.dot(row)` does once the rows are contiguous float64."""
    x = np.ascontiguousarray(x, dtype=np.float64)  # strided rows round otherwise
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


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


def check_unit_rows(x: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row of the (n, d) array `x` whose norm
    is not 1 to NORM_TOL (NaN or inf fail), as `UnitVector` would reject it."""
    norms = _row_norms(x)
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


def project_tangent(v, z: UnitVector) -> np.ndarray:
    """Orthogonal projection of v onto the tangent space at z: v - <v,z> z."""
    v = _as_float_vector(v)
    return v - v.dot(z.coords) * z.coords


def geodesic_flow(z: UnitVector, v: np.ndarray, eps: float) -> tuple[UnitVector, np.ndarray]:
    """Spherical HMC's flow: turn z and v together along z's great circle in
    direction v for arc length |v|*eps.  The position is renormalized and the
    velocity projected onto the new tangent space; |v| < 1e-12 keeps z itself."""
    speed = _norm(v)
    angle = speed * eps
    cos, sin = math.cos(angle), math.sin(angle)
    z_new = z if speed < DEGENERATE_NORM else normalize(cos * z.coords + sin * (v / speed))
    v_new = cos * v - (speed * sin) * z.coords
    return z_new, v_new - v_new.dot(z_new.coords) * z_new.coords  # scrub rounding residual


def geodesic_step(z: UnitVector, v: np.ndarray, eps: float) -> UnitVector:
    """The position `geodesic_flow` reaches: z itself when |v| < 1e-12."""
    return geodesic_flow(z, v, eps)[0]


def transport(v: np.ndarray, z_from: UnitVector, z_to: UnitVector) -> np.ndarray:
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
        return v.copy()  # same base point: the identity, on a new array
    e = w / wn
    a = float(v.dot(e))
    # np.arctan2, not math.atan2: the two round differently on some inputs
    theta = np.arctan2(wn, c)  # wn = sin(theta) for unit inputs
    out = (v - a * e) + a * (math.cos(theta) * e - math.sin(theta) * z_from.coords)
    return out - out.dot(z_to.coords) * z_to.coords  # scrub rounding residual


def sample_tangent_gaussian(z: UnitVector, rng: np.random.Generator) -> np.ndarray:
    """Standard normal in the ambient space, projected onto the tangent at z."""
    return project_tangent(rng.standard_normal(z.dim), z)
