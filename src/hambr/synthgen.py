"""Synthetic datasets: vMF class clusters on the sphere plus label noise.

Generation is a pure function of the spec (seed included), with per-class
derived seeds so class order never matters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonl import list_texts
from .sphere import UnitVector, normalize

MAX_PLACEMENT_ATTEMPTS = 10_000
DEFAULT_THETA_MIN = math.pi / 3.0

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
    means: tuple | None = None      # None -> mutually orthogonal basis directions
    noise: NoiseSpec | None = field(default_factory=lambda: NoiseSpec("symmetric", 0.4))
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")
        kappa = self.kappa
        if np.isscalar(kappa):
            kappa = (float(kappa),)
        kappa = tuple(float(k) for k in kappa)
        if len(kappa) == 1:
            kappa = kappa * self.n_classes
        if len(kappa) != self.n_classes:
            raise ValueError("kappa must be scalar or one value per class")
        if not all(0 <= k < np.inf for k in kappa):  # NaN fails every comparison
            raise ValueError("kappa must be non-negative and finite")
        object.__setattr__(self, "kappa", kappa)
        if self.means is not None:
            means = tuple(normalize(m.coords if isinstance(m, UnitVector) else m)
                          for m in self.means)
            if len(means) != self.n_classes:
                raise ValueError("need one mean per class")
            if any(m.dim != self.dim for m in means):
                raise ValueError("mean dimension mismatch")
            for i in range(len(means)):
                for j in range(i + 1, len(means)):
                    if np.allclose(means[i].coords, means[j].coords):
                        raise ValueError("class means must be pairwise distinct")
            object.__setattr__(self, "means", means)
        elif self.n_classes > self.dim:
            raise ValueError("orthogonal default means need n_classes <= dim")

    def class_means(self) -> list[UnitVector]:
        if self.means is not None:
            return list(self.means)
        eye = np.eye(self.dim)
        return [UnitVector(eye[c]) for c in range(self.n_classes)]


@dataclass(frozen=True)
class LabeledPoint:
    feature: UnitVector
    true_label: int
    observed_label: int

    @property
    def is_noisy(self) -> bool:
        return self.true_label != self.observed_label


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


def sample_vmf(mu, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the von Mises-Fisher distribution around mu (kappa=0: uniform).

    Radial component by the usual beta-envelope rejection scheme; tangential
    component uniform on the subsphere orthogonal to mu.
    """
    mu = mu.coords if isinstance(mu, UnitVector) else np.asarray(mu, dtype=np.float64)
    d = mu.size
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if n < 1:
        return np.empty((0, d))
    if kappa == 0.0:
        return _uniform_sphere(d, n, rng)

    m = d - 1.0
    b = m / (np.sqrt(4.0 * kappa ** 2 + m ** 2) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * np.log(1.0 - x0 ** 2)

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


def make_ood_set(spec: DatasetSpec, rng: np.random.Generator, *,
                 n_clusters: int = 3, n_per_cluster: int = 100,
                 kappa: float | None = None,
                 theta_min: float = DEFAULT_THETA_MIN) -> tuple[np.ndarray, np.ndarray]:
    """vMF clusters whose means keep an angle >= theta_min to every class mean.

    Returns (features, means).  Raises PlacementFailure when no admissible mean
    direction shows up within the attempt budget.
    """
    id_means = np.array([m.coords for m in spec.class_means()])
    min_dot = math.cos(theta_min)
    if kappa is None:
        kappa = spec.kappa[0]
    means = []
    attempts = 0
    while len(means) < n_clusters:
        if attempts >= MAX_PLACEMENT_ATTEMPTS:
            raise PlacementFailure(
                f"no admissible mean after {MAX_PLACEMENT_ATTEMPTS} attempts "
                f"(theta_min={theta_min!r})")
        cand = _uniform_sphere(spec.dim, 1, rng)[0]
        attempts += 1
        if np.all(id_means @ cand <= min_dot):
            means.append(cand)
    feats = [sample_vmf(mu, kappa, n_per_cluster, rng) for mu in means]
    return np.concatenate(feats), np.array(means)


def dump_dataset(points, fh) -> None:
    """One row per sample, json.dumps's text of {"feature": [...], "true": t, "observed": o}."""
    fh.write("".join(
        f'{{"feature": {f}, "true": {int(p.true_label)}, '
        f'"observed": {int(p.observed_label)}}}\n'
        for f, p in zip(list_texts([point.feature.coords for point in points]), points)))


def load_dataset(fh) -> list[LabeledPoint]:
    points = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        points.append(LabeledPoint(normalize(np.asarray(row["feature"])),
                                   int(row["true"]), int(row["observed"])))
    return points
