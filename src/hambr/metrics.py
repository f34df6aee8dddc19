"""Evaluation metrics: OOD separation, selection quality, feature geometry.

The potential score convention is "higher = more out-of-distribution"
throughout; auroc is the rank statistic P(ood > id) + 0.5 P(tie).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

CSV_COLUMNS = ("epoch", "loss_x", "loss_u", "loss_reg", "loss_con", "loss_hambr",
               "sel_precision", "sel_recall", "sel_f1", "intra", "inter",
               "auroc", "fpr95")

MIN_ID_SCORES = 20  # fpr95 threshold needs a meaningful ID quantile


class EmptyInput(ValueError):
    """A score set is empty."""


class InsufficientId(ValueError):
    """Too few ID scores for a stable 95th percentile."""


class NonFiniteScore(ValueError):
    """A score is NaN or infinite, so no rank or threshold is meaningful."""


def _check_finite(scores: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NonFiniteScore(f"{name} have {bad.size} non-finite value(s), "
                             f"the first {float(scores[bad[0]])} at index {int(bad[0])}")


def _ranks_with_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size]  # one past the last position of each tie group
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def auroc(id_scores, ood_scores) -> float:
    """P(ood > id) + 0.5 P(tie) over all ID/OOD pairs."""
    s_id = np.asarray(id_scores, dtype=np.float64).ravel()
    s_ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if s_id.size == 0 or s_ood.size == 0:
        raise EmptyInput("auroc needs non-empty ID and OOD scores")
    _check_finite(s_id, "ID scores")
    _check_finite(s_ood, "OOD scores")
    ranks = _ranks_with_ties(np.concatenate([s_id, s_ood]))
    u = ranks[s_id.size:].sum() - s_ood.size * (s_ood.size + 1) / 2.0
    return float(u / (s_id.size * s_ood.size))


def fpr_at_95_tpr(id_scores, ood_scores) -> float:
    """Fraction of OOD scores at or below the 95th percentile of ID scores."""
    s_id = np.asarray(id_scores, dtype=np.float64).ravel()
    s_ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if s_id.size < MIN_ID_SCORES:
        raise InsufficientId(f"need >= {MIN_ID_SCORES} ID scores, got {s_id.size}")
    if s_ood.size == 0:
        raise EmptyInput("fpr_at_95_tpr needs OOD scores")
    _check_finite(s_id, "ID scores")
    _check_finite(s_ood, "OOD scores")
    threshold = np.percentile(s_id, 95.0)  # linear interpolation
    return float(np.mean(s_ood <= threshold))


def selection_f1(selected_ids, noise_mask) -> tuple[float, float, float]:
    """Precision/recall/F1 of a selected-clean set against the true noise mask."""
    noise_mask = np.asarray(noise_mask, dtype=bool)
    selected = np.asarray(selected_ids, dtype=np.int64).ravel()
    clean_total = int(np.count_nonzero(~noise_mask))
    if selected.size == 0:
        return 0.0, 0.0, 0.0
    tp = int(np.count_nonzero(~noise_mask[selected]))
    precision = tp / selected.size
    recall = tp / clean_total if clean_total > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return float(precision), float(recall), float(f1)


def singular_spectrum(features) -> np.ndarray:
    """Descending log singular values of the column-centred feature matrix.

    Computed from the d x d Gram matrix eigendecomposition.  Values below the
    numerical-rank cutoff are reported as exactly -inf.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be an (n, d) array")
    if x.shape[0] < 1:
        raise EmptyInput("need at least one feature row")
    x = x - x.mean(axis=0)
    gram = x.T @ x
    eigvals = np.linalg.eigvalsh(gram)
    sv = np.sqrt(np.clip(eigvals, 0.0, None))[::-1]
    if sv.size == 0 or sv[0] == 0.0:
        return np.full(sv.shape, -np.inf)
    cutoff = sv[0] * max(x.shape) * np.finfo(np.float64).eps
    return np.where(sv > cutoff, np.log(np.where(sv > cutoff, sv, 1.0)), -np.inf)


def geometry_metrics(features, labels, prototypes) -> tuple[float, float]:
    """(intra-class compactness, inter-class margin).

    Row c of `prototypes` (C, d) is class c's prototype.  intra: mean cosine
    of each feature to its label's prototype.  inter: minimum pairwise angle
    between prototypes (nan with fewer than two).
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    protos = np.asarray(prototypes, dtype=np.float64)
    if protos.ndim != 2 or protos.shape[1] != x.shape[1]:
        raise ValueError(f"prototypes must be (C, {x.shape[1]}), got {protos.shape}")
    missing = np.unique(labels[(labels < 0) | (labels >= len(protos))])
    if missing.size:
        raise ValueError(f"no prototype for labels {missing.tolist()}")
    # one dot per row, batched: the same sums as x[i] @ p row by row
    cos = x[:, None, :] @ protos[labels][:, :, None]
    intra = float(np.mean(cos[:, 0, 0]))
    if len(protos) < 2:
        return intra, float("nan")
    inter = min(
        math.acos(min(1.0, max(-1.0, float(protos[a] @ protos[b]))))
        for a in range(len(protos)) for b in range(a + 1, len(protos))
    )
    return intra, float(inter)


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    loss_x: float
    loss_u: float
    loss_reg: float
    loss_con: float
    loss_hambr: float
    sel_precision: float
    sel_recall: float
    sel_f1: float
    intra: float
    inter: float
    auroc: float
    fpr95: float
    log_singular_values: tuple = ()

    def __post_init__(self):
        p, r, f = self.sel_precision, self.sel_recall, self.sel_f1
        expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
        if abs(f - expected) > 1e-9:
            raise ValueError("sel_f1 inconsistent with precision/recall")
        if not 0.0 <= self.auroc <= 1.0:
            raise ValueError("auroc must lie in [0, 1]")
        object.__setattr__(self, "log_singular_values",
                           tuple(float(v) for v in self.log_singular_values))

    def csv_row(self) -> str:
        vals = [getattr(self, c) for c in CSV_COLUMNS]
        return ",".join(str(int(v)) if c == "epoch" else repr(float(v))
                        for c, v in zip(CSV_COLUMNS, vals))

    def json_line(self) -> str:
        doc = {c: float(getattr(self, c)) for c in CSV_COLUMNS}
        doc["epoch"] = int(self.epoch)
        doc["log_singular_values"] = [
            v if math.isfinite(v) else None for v in self.log_singular_values
        ]
        return json.dumps(doc)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)
