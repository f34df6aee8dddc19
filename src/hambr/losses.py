"""The semi-supervised objective: batched loss terms with analytic gradients.

There is no autodiff anywhere in the package: every gradient the training
loop needs is a short closed form, stated here next to its loss.  `objective`
composes the terms with the `LossWeights`; the training loop calls it once
per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _row_blocks

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
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be non-negative and finite")
        for name in ("tau_loss", "tau_con", "sharpen_T"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.gce_q <= 1.0:
            raise ValueError("gce_q must be in (0, 1]")


@dataclass(frozen=True)
class LossTerms:
    x: float = 0.0
    u: float = 0.0
    reg: float = 0.0
    con: float = 0.0
    hambr: float = 0.0


def sample_losses(preds, labels, warmup: bool, q: float) -> np.ndarray:
    """Per-sample losses the partition fits: GCE (1 - p^q) / q during warmup,
    cross entropy -log p after, of the observed-label probability p."""
    p = preds[np.arange(len(labels)), labels]
    return (1.0 - p ** q) / q if warmup else -np.log(p)


# Every term below returns (mean loss over its rows, gradient).  Per-row terms
# give the gradient of the *summed* row losses in each row's embedding; the
# regularizer, a batch quantity, gives the exact gradient of its batch-mean KL.
# The classifier terms see the embeddings x through
# preds = softmax(x @ p_cls.T / temp), whose row derivative is
# d preds_c / d x = preds_c (p_cls[c] - mean_dir) / temp with
# mean_dir = preds @ p_cls.  `weight` scales a gradient (not the loss).


def gce_term(preds, mean_dir, p_cls, labels, q: float, temp: float):
    """Generalized cross entropy (1 - p^q) / q of the observed labels."""
    pq = preds[np.arange(len(labels)), labels] ** q
    return (float(np.mean((1.0 - pq) / q)),
            (pq / temp)[:, None] * (mean_dir - p_cls[labels]))


def ce_term(preds, p_cls, targets, temp: float):
    """Cross entropy -sum_c t_c log preds_c against soft targets summing to 1."""
    return (float(np.mean(-np.sum(targets * np.log(preds), axis=1))),
            ((preds - targets) @ p_cls) / temp)


def consistency_term(preds, mean_dir, p_cls, targets, temp: float,
                     weight: float = 1.0):
    """Squared L2 distance |targets - preds|^2 to fixed pseudo-labels."""
    a = (preds - targets) * preds
    return (float(np.mean(np.sum((targets - preds) ** 2, axis=1))),
            weight * (2.0 / temp) * (a @ p_cls - a.sum(axis=1, keepdims=True) * mean_dir))


def reg_term(preds, mean_dir, p_cls, temp: float, weight: float = 1.0):
    """KL(uniform || mean prediction), which discourages prediction collapse.

    The mean prediction is clamped below at PROB_CLAMP before the logs.
    """
    n, c = preds.shape
    pbar = np.clip(preds.mean(axis=0), PROB_CLAMP, None)
    b = preds * ((1.0 / c) / pbar)[None, :]
    return (float(np.sum((1.0 / c) * (np.log(1.0 / c) - np.log(pbar)))),
            weight * (-1.0 / (n * temp))
            * (b @ p_cls - b.sum(axis=1, keepdims=True) * mean_dir))


def contrastive_term(x, noise1, noise2, tau: float, weight: float = 1.0):
    """InfoNCE (`contrastive_grads`) between the views normalize(x + noise_k).

    The noise is held fixed: each view's derivative in x is
    (I - v v^T) / |x + noise|.
    """
    v1, norm1 = _view(x, noise1)
    v2, norm2 = _view(x, noise2)
    loss, g1, g2 = contrastive_grads(v1, v2, tau)
    gx = (g1 - np.einsum("ij,ij->i", g1, v1)[:, None] * v1) / norm1[:, None]
    gx += (g2 - np.einsum("ij,ij->i", g2, v2)[:, None] * v2) / norm2[:, None]
    return loss, weight * gx


def _view(x, noise):
    moved = x + noise
    norms = np.linalg.norm(moved, axis=1)
    return moved / norms[:, None], norms


def _tangent_noise(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """sigma times a standard Gaussian draw projected onto each row's tangent space."""
    raw = rng.standard_normal(x.shape)
    return sigma * (raw - np.einsum("ij,ij->i", raw, x)[:, None] * x)


def hambr_term(x, mu, outliers, tau: float, weight: float = 1.0):
    """-log of each row's prototype share of similarity mass against the outliers.

    Row i contrasts x_i . mu_i with x_i . v_j over the outliers v_j, at
    temperature tau; the gradient is (1/tau)(-(1 - p_mu) mu + sum_j p_j v_j).
    With no outliers the loss and the gradient are zero.
    """
    logits = np.concatenate([np.einsum("ij,ij->i", x, mu)[:, None],
                             x @ outliers.T], axis=1) / tau
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    share = e / e.sum(axis=1, keepdims=True)
    return (float(np.mean(np.log(e.sum(axis=1)) + m[:, 0] - logits[:, 0])),
            weight * (-(1.0 - share[:, 0])[:, None] * mu + share[:, 1:] @ outliers) / tau)


def objective(x, preds, p_cls, labels, weights: LossWeights, temp: float, *,
              warmup: bool, posteriors, labeled, prototypes, outliers,
              aug_sigma: float, rng: np.random.Generator) -> tuple[LossTerms, np.ndarray]:
    """The training objective's terms and its gradient in the embeddings x.

    `preds` are the clamped classifier probabilities of x against `p_cls`.
    Warmup trains on GCE of the observed `labels` alone.  After warmup the
    `labeled` rows get cross entropy against co-corrected targets
    (posterior * one-hot + (1 - posterior) * preds) and the attract/repel term
    toward `prototypes[labels]` against `outliers`; the unlabeled rows get
    sharpened-pseudo-label consistency and, given two or more of them, a
    contrastive term over two views jittered by `aug_sigma` times tangent
    Gaussian noise drawn from `rng`; the regularizer covers every row.
    Targets, pseudo-labels and noise are constants of the gradient.
    """
    w = weights
    mean_dir = preds @ p_cls
    grads = np.zeros_like(x)
    if warmup:
        loss_x, g = gce_term(preds, mean_dir, p_cls, labels, w.gce_q, temp)
        grads += g
        return LossTerms(x=loss_x), grads

    lab = labeled
    unl = ~labeled
    loss_x = loss_u = loss_reg = loss_con = loss_hambr = 0.0
    if lab.any():
        eye = np.eye(preds.shape[1])
        y_corr = (posteriors[lab, None] * eye[labels[lab]]
                  + (1.0 - posteriors[lab, None]) * preds[lab])
        loss_x, g = ce_term(preds[lab], p_cls, y_corr, temp)
        grads[lab] += g
    if unl.any() and w.lambda_u > 0:
        powered = preds[unl] ** (1.0 / w.sharpen_T)
        pseudo = powered / powered.sum(axis=1, keepdims=True)
        loss_u, g = consistency_term(preds[unl], mean_dir[unl], p_cls, pseudo,
                                     temp, w.lambda_u)
        grads[unl] += g
    if w.lambda_reg > 0:
        loss_reg, g = reg_term(preds, mean_dir, p_cls, temp, w.lambda_reg)
        grads += g
    if w.lambda_c > 0 and int(unl.sum()) >= 2:
        noise1 = _tangent_noise(x[unl], aug_sigma, rng)
        noise2 = _tangent_noise(x[unl], aug_sigma, rng)
        loss_con, g = contrastive_term(x[unl], noise1, noise2, w.tau_con, w.lambda_c)
        grads[unl] += g
    if w.lambda_hambr > 0 and lab.any() and len(outliers):
        loss_hambr, g = hambr_term(x[lab], prototypes[labels[lab]], outliers,
                                   w.tau_loss, w.lambda_hambr)
        grads[lab] += g
    return LossTerms(x=loss_x, u=loss_u, reg=loss_reg, con=loss_con,
                     hambr=loss_hambr), grads


def contrastive_grads(view1, view2, tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Contrastive loss plus gradients of the summed anchor terms.

    Returns (mean loss, d(sum)/d(view1), d(sum)/d(view2)); callers that want
    gradients of the mean divide by the anchor count.  Each anchor view1[i]
    is contrasted with its positive view2[i] and with the other first views.

    Anchors are taken in the row blocks of `_row_blocks(n, 1 + n)`, so the
    logits never fill an (n, 1 + n) array: one block buffer, about
    _BLOCK_SIMS elements, holds a block's logits (column 0 the positive
    logits, column k + 1 the logit of view1[i] against view1[k]) and then
    their softmax p.  A block adds its own rows' p @ view1 to the gradient
    and its p.T @ view1[block] to the column term that every anchor's
    negatives share.  The loss and the view2 gradient are row-local; the
    view1 gradient sums the column term block by block.
    """
    v1 = np.asarray(view1, dtype=np.float64)
    v2 = np.asarray(view2, dtype=np.float64)
    if v1.ndim != 2 or v1.shape != v2.shape:
        raise ValueError("views must be two equal-shape (n, d) arrays")
    n = v1.shape[0]
    if n < 2:
        raise InsufficientBatch(f"need >= 2 view pairs, got {n}")
    if not 0 < tau < np.inf:  # NaN fails every comparison
        raise DomainError("tau must be positive and finite")

    blocks = _row_blocks(n, 1 + n)
    buf = np.empty((max(stop - r for r, stop in blocks), 1 + n))
    terms = np.empty(n)
    p_pos = np.empty(n)
    g1 = np.empty_like(v1)                              # p @ v1, a block's rows at a time
    col = np.zeros_like(v1)                             # p.T @ v1, summed over the blocks
    for r, stop in blocks:
        p = buf[:stop - r]
        p[:, 0] = np.einsum("ij,ij->i", v1[r:stop], v2[r:stop])  # positive logits
        np.matmul(v1[r:stop], v1.T, out=p[:, 1:])       # anchor against first views
        p /= tau
        pos = p[:, 0].copy()
        rows = np.arange(stop - r)
        p[rows, r + rows + 1] = -np.inf                 # k != i

        m = p.max(axis=1)
        p -= m[:, None]
        np.exp(p, out=p)
        denom = p.sum(axis=1)
        p /= denom[:, None]
        terms[r:stop] = np.log(denom) + m - pos
        p_pos[r:stop] = p[:, 0]
        np.matmul(p[:, 1:], v1, out=g1[r:stop])         # p[:, 1:]: weights on the first views
        col += p[:, 1:].T @ v1[r:stop]

    loss = float(terms.mean())
    g1 = ((p_pos - 1.0)[:, None] * v2 + g1 + col) / tau
    g2 = (p_pos - 1.0)[:, None] * v1 / tau
    return loss, g1, g2


@dataclass(frozen=True)
class PrototypeSet:
    """Unit prototypes of the bank's usable classes, as arrays.

    Row i of `directions` (k, d) is the prototype of class `classes[i]`
    (classes ascending) and `support[i]` counts its positive-weight entries.
    """

    classes: np.ndarray
    directions: np.ndarray
    support: np.ndarray

    def __len__(self) -> int:
        return len(self.classes)


def compute_prototypes(bank) -> PrototypeSet:
    """Weighted mean direction per non-empty class, renormalized.

    Zero-weight entries contribute nothing; a class whose weighted sum has no
    usable direction carries no prototype.
    """
    snap = bank.snapshot()
    classes, directions, support = [], [], []
    for c in snap.classes:
        w = snap.weights(c)
        s = w @ snap.features(c)
        norm = np.linalg.norm(s)
        if norm <= 1e-12:
            continue
        classes.append(c)
        directions.append(s / norm)
        support.append(int(np.count_nonzero(w > 0)))
    return PrototypeSet(np.array(classes, dtype=np.int64),
                        np.array(directions).reshape(len(classes), snap.dim),
                        np.array(support, dtype=np.int64))
