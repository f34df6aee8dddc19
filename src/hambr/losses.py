"""Loss terms for the semi-supervised objective, with analytic gradients.

There is no autodiff anywhere in the package: the only gradients the training
loop needs (prototype-softmax cross entropy, the hambr attract/repel term, the
contrastive term) are short closed forms, stated here next to their losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import UnitVector

PROB_CLAMP = 1e-9  # predicted probabilities are clamped to [1e-9, 1 - 1e-9] before logs


class DomainError(ValueError):
    """Input outside the mathematical domain of a loss."""


class InsufficientBatch(ValueError):
    """Contrastive loss needs at least two view pairs."""


@dataclass(frozen=True)
class LossWeights:
    lambda_u: float = 1.0
    lambda_reg: float = 1.0
    lambda_c: float = 0.1
    lambda_hambr: float = 0.5
    tau_loss: float = 0.1    # hambr softmax temperature
    tau_con: float = 0.5     # contrastive temperature
    sharpen_T: float = 0.5
    gce_q: float = 0.7

    def __post_init__(self):
        for name in ("lambda_u", "lambda_reg", "lambda_c", "lambda_hambr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("tau_loss", "tau_con", "sharpen_T"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.gce_q <= 1.0:
            raise ValueError("gce_q must be in (0, 1]")


@dataclass(frozen=True)
class LossTerms:
    x: float = 0.0
    u: float = 0.0
    reg: float = 0.0
    con: float = 0.0
    hambr: float = 0.0


def total_loss(terms: LossTerms, weights: LossWeights) -> float:
    return (terms.x + weights.lambda_u * terms.u + weights.lambda_reg * terms.reg
            + weights.lambda_c * terms.con + weights.lambda_hambr * terms.hambr)


def gce_loss(p: float, q: float) -> float:
    """Generalized cross entropy (1 - p^q) / q for the observed-label probability."""
    if p <= 0.0:
        raise DomainError(f"probability must be positive, got {p!r}")
    if not 0.0 < q <= 1.0:
        raise DomainError("q must be in (0, 1]")
    return (1.0 - p ** q) / q


def ce_loss(pred, target) -> float:
    """Cross entropy -sum_c target_c log pred_c; target may be a soft label."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    support = target > 0
    if np.any(pred[support] <= 0):
        raise DomainError("zero predicted probability on a supported label")
    return float(-np.sum(target[support] * np.log(pred[support])))


def consistency_mse(guess, pred) -> float:
    """Squared L2 distance between a pseudo-label and a predicted distribution."""
    guess = np.asarray(guess, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float(np.sum((guess - pred) ** 2))


def sharpen(q, temperature: float):
    """Temperature sharpening: q_c^(1/T), renormalized."""
    q = np.asarray(q, dtype=np.float64)
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    powered = q ** (1.0 / temperature)
    total = powered.sum()
    if total <= 0:
        raise DomainError("cannot sharpen an all-zero distribution")
    return powered / total


def reg_loss(preds) -> float:
    """KL(uniform || mean batch prediction); discourages prediction collapse."""
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 2 or preds.shape[0] < 1:
        raise DomainError("preds must be a non-empty (n, C) array")
    mean = np.clip(preds.mean(axis=0), PROB_CLAMP, None)
    c = preds.shape[1]
    prior = 1.0 / c
    return float(np.sum(prior * (np.log(prior) - np.log(mean))))


def _coords(x) -> np.ndarray:
    return x.coords if isinstance(x, UnitVector) else np.asarray(x, dtype=np.float64)


def _hambr_softmax(x, prototype, outliers, tau):
    """Softmax over {prototype} + outliers similarities; p[0] is the prototype's."""
    x, proto = _coords(x), _coords(prototype)
    out = np.asarray(outliers, dtype=np.float64)
    logits = np.concatenate(([float(x @ proto)], out @ x)) / tau
    m = logits.max()
    e = np.exp(logits - m)
    return e / e.sum(), logits


def hambr_loss(x, prototype, outliers, tau: float) -> float:
    """-log of the prototype's share of similarity mass against the outliers.

    Zero outliers means nothing to contrast against: the loss is 0.
    """
    out = np.asarray(outliers, dtype=np.float64)
    if out.size == 0:
        return 0.0
    if tau <= 0:
        raise DomainError("tau must be positive")
    p, _ = _hambr_softmax(x, prototype, out, tau)
    return float(-np.log(p[0]))


def hambr_grad(x, prototype, outliers, tau: float) -> np.ndarray:
    """Euclidean gradient of hambr_loss in x: (1/tau)(-(1-p_c) mu + sum_j p_j v_j)."""
    x = _coords(x)
    out = np.asarray(outliers, dtype=np.float64)
    if out.size == 0:
        return np.zeros_like(x)
    if tau <= 0:
        raise DomainError("tau must be positive")
    p, _ = _hambr_softmax(x, prototype, out, tau)
    return (-(1.0 - p[0]) * _coords(prototype) + p[1:] @ out) / tau


def contrastive_loss(view1, view2, tau: float, negatives: str = "first") -> float:
    """Mean InfoNCE term over anchors; negatives are the other anchors' views.

    `negatives="first"` uses only the other first views in the denominator;
    `"both"` adds the other second views as well.
    """
    loss, _, _ = contrastive_grads(view1, view2, tau, negatives)
    return loss


def contrastive_grads(view1, view2, tau: float,
                      negatives: str = "first") -> tuple[float, np.ndarray, np.ndarray]:
    """Contrastive loss plus gradients of the summed anchor terms.

    Returns (mean loss, d(sum)/d(view1), d(sum)/d(view2)); callers that want
    gradients of the mean divide by the anchor count.

    Every logit lives in one (n, 1 + n) buffer, or (n, 1 + 2n) with
    `negatives="both"`: column 0 holds the positive logits, columns 1..n the
    first-view negatives and columns n+1..2n the second-view negatives.  The
    buffer becomes the softmax in place, and both gradient matmuls read views
    of it, so the n^2 memory is that one buffer (8 n (1 + n) bytes for
    "first"), not a copy per stage.
    """
    if negatives not in ("first", "both"):
        raise ValueError("negatives must be 'first' or 'both'")
    v1 = np.asarray(view1, dtype=np.float64)
    v2 = np.asarray(view2, dtype=np.float64)
    if v1.ndim != 2 or v1.shape != v2.shape:
        raise ValueError("views must be two equal-shape (n, d) arrays")
    n = v1.shape[0]
    if n < 2:
        raise InsufficientBatch(f"need >= 2 view pairs, got {n}")
    if tau <= 0:
        raise DomainError("tau must be positive")

    both = negatives == "both"
    p = np.empty((n, 1 + (2 if both else 1) * n))
    p[:, 0] = np.einsum("ij,ij->i", v1, v2)            # positive logits
    np.matmul(v1, v1.T, out=p[:, 1:n + 1])              # first-view negatives
    if both:
        np.matmul(v1, v2.T, out=p[:, n + 1:])           # second-view negatives
    p /= tau
    pos = p[:, 0].copy()
    rows = np.arange(n)
    p[rows, rows + 1] = -np.inf                         # k != i
    if both:
        p[rows, rows + n + 1] = -np.inf                 # the positive is already counted

    m = p.max(axis=1)
    p -= m[:, None]
    np.exp(p, out=p)
    denom = p.sum(axis=1)
    p /= denom[:, None]
    terms = np.log(denom) + m - pos
    loss = float(terms.mean())

    p_pos = p[:, 0]
    p_a = p[:, 1:n + 1]                                 # weights on first-view negatives
    g1 = ((p_pos - 1.0)[:, None] * v2 + p_a @ v1 + p_a.T @ v1) / tau
    g2 = (p_pos - 1.0)[:, None] * v1 / tau
    if both:
        p_b = p[:, n + 1:]
        g1 += p_b @ v2 / tau
        g2 += p_b.T @ v1 / tau
    return loss, g1, g2


@dataclass(frozen=True)
class PrototypeSet:
    """Per-class unit prototypes with the number of contributing entries."""

    directions: dict[int, UnitVector]
    support: dict[int, int]

    def classes(self) -> list[int]:
        return sorted(self.directions)

    def matrix(self, classes=None) -> np.ndarray:
        ids = self.classes() if classes is None else list(classes)
        return np.array([self.directions[c].coords for c in ids])

    def __len__(self) -> int:
        return len(self.directions)


def compute_prototypes(bank) -> PrototypeSet:
    """Weighted mean direction per non-empty class, renormalized.

    Zero-weight entries contribute nothing; a class whose weighted sum has no
    usable direction carries no prototype.
    """
    from .energy import _snap  # local import keeps module deps one-directional

    snap = _snap(bank)
    directions: dict[int, UnitVector] = {}
    support: dict[int, int] = {}
    for c in snap.classes:
        w = snap.weights(c)
        s = w @ snap.features(c)
        norm = np.linalg.norm(s)
        if norm <= 1e-12:
            continue
        directions[c] = UnitVector(s / norm)
        support[c] = int(np.count_nonzero(w > 0))
    return PrototypeSet(directions, support)
