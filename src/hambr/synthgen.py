"""Synthetic datasets: vMF class clusters on the sphere plus label noise.

Generation is a pure function of the spec (seed included), with per-class
derived seeds so class order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonl import write_rows
from ._rules import _TESTS, check_rules, rule
from .sphere import UnitVector, _row_norms, normalize

MAX_PLACEMENT_ATTEMPTS = 10_000
OOD_CLUSTERS = 3
OOD_PER_CLUSTER = 100
OOD_THETA_MIN = math.pi / 3.0  # least angle from an OOD mean to every class mean

NOISE_MODES = ("symmetric", "asymmetric")
_KAPPA_RULE = "non-negative and finite"


class PlacementFailure(RuntimeError):
    """Could not place an out-of-distribution mean far enough from the classes."""


@dataclass(frozen=True)
class NoiseSpec:
    mode: str = rule(NOISE_MODES, "symmetric")
    rate: float = rule("in [0, 1]", 0.0)

    __post_init__ = check_rules


@dataclass(frozen=True)
class DatasetSpec:
    dim: int = rule(">= 2", 8)
    n_classes: int = rule(">= 1", 3)
    n_per_class: int = rule(">= 1", 200)
    kappa: tuple = (20.0,)          # scalar broadcasts to every class
    means: tuple[tuple[float, ...], ...] | None = None  # one direction per class; None -> basis
    noise: NoiseSpec | None = field(default_factory=lambda: NoiseSpec("symmetric", 0.4))
    seed: int = 0

    def __post_init__(self):
        check_rules(self)
        kappa = tuple(map(float, np.atleast_1d(self.kappa)))
        if len(kappa) == 1:
            kappa = kappa * self.n_classes
        if len(kappa) != self.n_classes:
            raise ValueError("kappa must be scalar or one value per class")
        for k in kappa:
            _vmf_envelope(k, self.dim)  # raises for a kappa sample_vmf cannot draw at
        object.__setattr__(self, "kappa", kappa)
        _check_flippable(self.noise, self.n_classes)
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
    radial component on S^(d-1).  ValueError for a negative, NaN or infinite
    kappa, and when they are not finite: above a kappa of a few 1e16 at d=8,
    x0 rounds to 1 and no draw is accepted.  `DatasetSpec` and `sample_vmf`
    check kappa here and nowhere else."""
    if not _TESTS[_KAPPA_RULE](kappa):
        raise ValueError(f"kappa must be {_KAPPA_RULE}")
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
    component uniform on the subsphere orthogonal to mu.  ValueError unless
    mu passes `UnitVector`'s checks, kappa `_vmf_envelope`'s and n >= 0.
    """
    mu = UnitVector(mu).coords
    d = mu.size
    b, x0, c = _vmf_envelope(kappa, d)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if n == 0:
        return np.empty((0, d))
    if kappa == 0.0:
        return _uniform_sphere(d, n, rng)

    m = d - 1.0
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


def _check_flippable(noise: NoiseSpec | None, n_classes: int) -> None:
    """ValueError when `noise` would flip labels among fewer than 2 classes."""
    if noise is not None and noise.rate > 0 and n_classes < 2:
        raise ValueError(f"noise flips labels, so needs n_classes >= 2, got {n_classes}")


def inject_noise(labels, noise: NoiseSpec | None, n_classes: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Flip each label with probability noise.rate; never to itself.

    Symmetric mode draws uniformly over the other classes, asymmetric maps
    c -> (c+1) mod n_classes.  ValueError for labels that are not 1-d, for a
    label outside [0, n_classes), or for noise that flips labels among fewer
    than 2 classes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a 1-d array, got shape {labels.shape}")
    _check_flippable(noise, n_classes)
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        raise ValueError(f"labels must be in [0, {n_classes}), "
                         f"got {labels[bad[0]]} at index {bad[0]}")
    out = labels.copy()
    if noise is None or noise.rate == 0.0:
        return out
    flip = rng.random(labels.size) < noise.rate
    if noise.mode == "symmetric":
        offsets = rng.integers(1, n_classes, size=labels.size)
        out[flip] = (labels[flip] + offsets[flip]) % n_classes
    else:
        out[flip] = (labels[flip] + 1) % n_classes
    return out


def dataset_arrays(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features (n, d), true labels (n,), observed labels (n,)) for the spec,
    class by class; deterministic in spec.seed.

    Each feature row is divided by its norm taken as `sphere.normalize` takes
    it (`sphere._row_norms`, all rows at once), so the rows are bitwise those
    of normalize(row).coords.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_classes + 1)
    means = spec.class_means()
    feats = np.concatenate([sample_vmf(means[c], spec.kappa[c], spec.n_per_class,
                                       np.random.default_rng(children[c]))
                            for c in range(spec.n_classes)])
    feats /= _row_norms(feats)[:, None]
    true = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.n_per_class)
    observed = inject_noise(true, spec.noise, spec.n_classes,
                            np.random.default_rng(children[spec.n_classes]))
    return feats, true, observed


def make_dataset(spec: DatasetSpec) -> list[LabeledPoint]:
    """`dataset_arrays`' rows as one LabeledPoint per sample."""
    feats, true, observed = dataset_arrays(spec)
    return [LabeledPoint(UnitVector(f), t, o)
            for f, t, o in zip(feats, true.tolist(), observed.tolist())]


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


def dump_dataset(features, true_labels, observed_labels, fh) -> None:
    """One row per sample, json.dumps's text of {"feature": [...], "true": t, "observed": o}."""
    write_rows(fh, '{"feature": {}, "true": {}, "observed": {}}\n',
               np.asarray(features, dtype=np.float64),
               np.asarray(true_labels, dtype=np.int64),
               np.asarray(observed_labels, dtype=np.int64))
