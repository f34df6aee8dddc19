"""Synthetic datasets: vMF class clusters on the sphere plus label noise.

Generation is a pure function of the spec (seed included), with per-class
derived seeds so class order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonl import list_texts
from .sphere import UnitVector, normalize

MAX_PLACEMENT_ATTEMPTS = 10_000
OOD_CLUSTERS = 3
OOD_PER_CLUSTER = 100
OOD_THETA_MIN = math.pi / 3.0  # least angle from an OOD mean to every class mean

NOISE_MODES = ("symmetric", "asymmetric")


class PlacementFailure(RuntimeError):
    """Could not place an out-of-distribution mean far enough from the classes."""


@dataclass(frozen=True)
class NoiseSpec:
    mode: str = "symmetric"
    rate: float = 0.0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")


@dataclass(frozen=True)
class DatasetSpec:
    dim: int = 8
    n_classes: int = 3
    n_per_class: int = 200
    kappa: tuple = (20.0,)          # scalar broadcasts to every class
    means: tuple[tuple[float, ...], ...] | None = None  # one direction per class; None -> basis
    noise: NoiseSpec | None = field(default_factory=lambda: NoiseSpec("symmetric", 0.4))
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")
        kappa = tuple(map(float, np.atleast_1d(self.kappa)))
        if len(kappa) == 1:
            kappa = kappa * self.n_classes
        if len(kappa) != self.n_classes:
            raise ValueError("kappa must be scalar or one value per class")
        if not all(0 <= k < np.inf for k in kappa):  # NaN fails every comparison
            raise ValueError("kappa must be non-negative and finite")
        for k in kappa:
            _vmf_envelope(k, self.dim)  # raises for a kappa sample_vmf cannot draw at
        object.__setattr__(self, "kappa", kappa)
        if self.noise is not None and self.noise.rate > 0 and self.n_classes < 2:
            raise ValueError(f"noise flips labels, so needs n_classes >= 2, got {self.n_classes}")
        if self.means is not None:
            means = [normalize(m).coords for m in self.means]
            if len(means) != self.n_classes:
                raise ValueError("need one mean per class")
            if any(m.size != self.dim for m in means):
                raise ValueError("mean dimension mismatch")
            for i in range(len(means)):
                for j in range(i + 1, len(means)):
                    if np.allclose(means[i], means[j]):
                        raise ValueError("class means must be pairwise distinct")
            object.__setattr__(self, "means", tuple(tuple(m.tolist()) for m in means))
        elif self.n_classes > self.dim:
            raise ValueError("orthogonal default means need n_classes <= dim")

    def class_means(self) -> np.ndarray:
        """Row c of the (n_classes, dim) array is class c's unit mean direction."""
        if self.means is not None:
            return np.array(self.means)
        return np.eye(self.n_classes, self.dim)


@dataclass(frozen=True)
class LabeledPoint:
    feature: UnitVector
    true_label: int
    observed_label: int


def _uniform_sphere(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((n, dim))
    filled = 0
    while filled < n:
        raw = rng.standard_normal((n - filled, dim))
        norms = np.linalg.norm(raw, axis=1)
        ok = norms > 1e-12
        rows = raw[ok] / norms[ok, None]
        out[filled:filled + rows.shape[0]] = rows
        filled += rows.shape[0]
    return out


def _vmf_envelope(kappa: float, d: int) -> tuple[float, float, float]:
    """b, x0 and c of the beta-envelope rejection scheme that draws a vMF's
    radial component on S^(d-1).  ValueError when they are not finite: above
    a kappa of a few 1e16 at d=8, x0 rounds to 1 and no draw is accepted."""
    m = d - 1.0
    with np.errstate(over="ignore", divide="ignore"):  # kappa ** 2 = inf, log(0)
        b = m / (np.sqrt(4.0 * np.float64(kappa) ** 2 + m ** 2) + 2.0 * kappa)
        x0 = (1.0 - b) / (1.0 + b)
        c = kappa * x0 + m * np.log(1.0 - x0 ** 2)
    if not np.isfinite(c):
        raise ValueError(f"kappa {kappa!r} is too large to sample in dimension {d}")
    return b, x0, c


def sample_vmf(mu, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the von Mises-Fisher distribution around the unit vector mu
    (kappa=0: uniform).

    Radial component by the usual beta-envelope rejection scheme; tangential
    component uniform on the subsphere orthogonal to mu.
    """
    mu = np.asarray(mu, dtype=np.float64)
    d = mu.size
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if n < 1:
        return np.empty((0, d))
    if kappa == 0.0:
        return _uniform_sphere(d, n, rng)

    m = d - 1.0
    b, x0, c = _vmf_envelope(kappa, d)

    w = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(m / 2.0, m / 2.0, size=todo)
        u = rng.random(todo)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        accept = kappa * cand + m * np.log(1.0 - x0 * cand) - c >= np.log(u)
        got = cand[accept]
        w[filled:filled + got.size] = got
        filled += got.size

    # uniform directions orthogonal to mu
    raw = _uniform_sphere(d, n, rng)
    tang = raw - (raw @ mu)[:, None] * mu
    norms = np.linalg.norm(tang, axis=1)
    while np.any(norms <= 1e-12):  # vanishing tangent component: redraw those rows
        bad = norms <= 1e-12
        raw[bad] = _uniform_sphere(d, int(bad.sum()), rng)
        tang = raw - (raw @ mu)[:, None] * mu
        norms = np.linalg.norm(tang, axis=1)
    tang /= norms[:, None]

    out = w[:, None] * mu + np.sqrt(np.clip(1.0 - w ** 2, 0.0, None))[:, None] * tang
    return out / np.linalg.norm(out, axis=1)[:, None]


def inject_noise(labels, noise: NoiseSpec | None, n_classes: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Flip each label with probability noise.rate; never to itself.

    Symmetric mode draws uniformly over the other classes, asymmetric maps
    c -> (c+1) mod n_classes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = labels.copy()
    if noise is None or noise.rate == 0.0:
        return out
    if n_classes < 2:
        raise ValueError("label noise needs at least 2 classes")
    flip = rng.random(labels.size) < noise.rate
    if noise.mode == "symmetric":
        offsets = rng.integers(1, n_classes, size=labels.size)
        out[flip] = (labels[flip] + offsets[flip]) % n_classes
    else:
        out[flip] = (labels[flip] + 1) % n_classes
    return out


def make_dataset(spec: DatasetSpec) -> list[LabeledPoint]:
    """Full labeled dataset for the spec; deterministic in spec.seed."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_classes + 1)
    means = spec.class_means()
    feats = [sample_vmf(means[c], spec.kappa[c], spec.n_per_class,
                        np.random.default_rng(children[c]))
             for c in range(spec.n_classes)]
    true = np.repeat(np.arange(spec.n_classes), spec.n_per_class)
    observed = inject_noise(true, spec.noise, spec.n_classes,
                            np.random.default_rng(children[spec.n_classes]))
    points = []
    for f, t, o in zip(np.concatenate(feats), true, observed):
        points.append(LabeledPoint(normalize(f), int(t), int(o)))
    return points


def make_ood_set(spec: DatasetSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """OOD_CLUSTERS vMF clusters of OOD_PER_CLUSTER draws at class 0's kappa,
    whose means keep an angle >= OOD_THETA_MIN to every class mean.

    Returns (features, means).  Raises PlacementFailure when no admissible mean
    direction shows up within the attempt budget.
    """
    id_means = spec.class_means()
    min_dot = math.cos(OOD_THETA_MIN)
    means = []
    attempts = 0
    while len(means) < OOD_CLUSTERS:
        if attempts >= MAX_PLACEMENT_ATTEMPTS:
            raise PlacementFailure(
                f"no mean at an angle >= {OOD_THETA_MIN!r} from every class mean "
                f"after {MAX_PLACEMENT_ATTEMPTS} attempts")
        cand = _uniform_sphere(spec.dim, 1, rng)[0]
        attempts += 1
        if np.all(id_means @ cand <= min_dot):
            means.append(cand)
    feats = [sample_vmf(mu, spec.kappa[0], OOD_PER_CLUSTER, rng) for mu in means]
    return np.concatenate(feats), np.array(means)


def dump_dataset(points, fh) -> None:
    """One row per sample, json.dumps's text of {"feature": [...], "true": t, "observed": o}."""
    fh.write("".join(
        f'{{"feature": {f}, "true": {int(p.true_label)}, '
        f'"observed": {int(p.observed_label)}}}\n'
        for f, p in zip(list_texts([point.feature.coords for point in points]), points)))
