"""Small-loss partitioning: 1-d two-component GMM plus a consensus window.

Per-sample losses are fit with EM each epoch; the component with the smaller
mean is "clean".  A sample enters the consensus set only when it was flagged
clean in each of the last t_filter epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._jsonl import write_rows
from ._rules import check_rules, rule

VARIANCE_FLOOR = 1e-6
DEFAULT_CLEAN_THRESHOLD = 0.5
DEFAULT_T_FILTER = 3
EM_MAX_ITERS = 100
EM_TOL = 1e-6  # EM stops once the log-likelihood gains less than this


class NonFiniteLoss(ValueError):
    """A per-sample loss is NaN or infinite; no mixture can be fit to it."""


@dataclass(frozen=True)
class GmmModel:
    means: np.ndarray       # shape (2,)
    variances: np.ndarray   # shape (2,), floored at VARIANCE_FLOOR
    weights: np.ndarray     # shape (2,), sums to 1
    clean_component: int    # index of the smaller-mean component

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if means.shape != (2,) or variances.shape != (2,) or weights.shape != (2,):
            raise ValueError("GmmModel is strictly two-component")
        if not np.isfinite(np.concatenate([means, variances, weights])).all():
            raise ValueError("GmmModel parameters must be finite")
        if np.any(variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise ValueError("variances below floor")
        if np.any(weights < 0) or np.any(weights > 1) or abs(weights.sum() - 1) > 1e-8:
            raise ValueError("mixing weights must lie in [0,1] and sum to 1")
        if self.clean_component not in (0, 1):
            raise ValueError("clean_component must be 0 or 1")
        if means[self.clean_component] > means[1 - self.clean_component]:
            raise ValueError("clean_component must have the smaller mean")
        for name, arr in (("means", means), ("variances", variances), ("weights", weights)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _log_pdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def _log_resp(model_means, model_vars, model_weights, x):
    """Log responsibilities (n, 2) and per-sample log likelihood (n,)."""
    parts = np.stack([
        (np.log(model_weights[k]) if model_weights[k] > 0 else -np.inf)
        + _log_pdf(x, model_means[k], model_vars[k])
        for k in (0, 1)
    ], axis=1)
    ll = np.logaddexp(parts[:, 0], parts[:, 1])
    return parts - ll[:, None], ll


def fit_gmm_1d(losses, trace: list | None = None) -> GmmModel:
    """EM fit of a two-component 1-d GMM to per-sample losses.

    Means start at the 10th/90th percentiles, both variances at the overall
    variance, weights equal.  Stops after EM_MAX_ITERS iterations or when the
    log-likelihood improves by less than EM_TOL; `trace`, when given, gets
    each iteration's log-likelihood.  All-identical losses short-circuit to a
    single-component model whose clean posterior is 1 everywhere.
    """
    x = np.asarray(losses, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError(f"need at least 2 losses, got {x.size}")
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise NonFiniteLoss(f"{bad} of {x.size} losses are NaN or infinite")
    if np.all(x == x[0]):
        return GmmModel(np.array([x[0], x[0]]),
                        np.array([VARIANCE_FLOOR, VARIANCE_FLOOR]),
                        np.array([1.0, 0.0]), 0)

    means = np.percentile(x, [10.0, 90.0]).astype(np.float64)
    var0 = max(float(np.var(x)), VARIANCE_FLOOR)
    variances = np.array([var0, var0])
    weights = np.array([0.5, 0.5])

    prev_ll = -np.inf
    for _ in range(EM_MAX_ITERS):
        log_r, ll_per = _log_resp(means, variances, weights, x)
        ll = float(np.sum(ll_per))
        if trace is not None:
            trace.append(ll)
        if ll - prev_ll < EM_TOL:
            break
        prev_ll = ll
        resp = np.exp(log_r)
        for k in (0, 1):
            nk = float(resp[:, k].sum())
            if nk < 1e-12:
                weights[k] = 0.0
                variances[k] = VARIANCE_FLOOR
                continue
            weights[k] = nk / x.size
            means[k] = float(resp[:, k] @ x) / nk
            variances[k] = max(float(resp[:, k] @ (x - means[k]) ** 2) / nk,
                               VARIANCE_FLOOR)
        weights = weights / weights.sum()

    return GmmModel(means, variances, weights, int(np.argmin(means)))


def clean_posterior(model: GmmModel, losses) -> np.ndarray:
    """Responsibility of the clean component at each value of the 1-d `losses`."""
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"losses must be a 1-d array, got shape {x.shape}")
    c = model.clean_component
    if model.weights[1 - c] == 0.0:
        return np.ones_like(x)
    log_r, _ = _log_resp(model.means, model.variances, model.weights, x)
    return np.exp(log_r[:, c])


@dataclass
class ConsensusWindow:
    """Per-sample run length: how many of the latest epochs in a row flagged it clean."""

    t_filter: int = rule(">= 1")
    n_samples: int = rule(">= 1")
    run_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_rules(self)
        self.run_lengths = np.zeros(self.n_samples, dtype=np.int64)


def consensus_update(window: ConsensusWindow, flags) -> None:
    """Record one epoch's clean flags (length must match n_samples)."""
    f = np.asarray(flags, dtype=bool)
    if f.shape != (window.n_samples,):
        raise ValueError(f"expected {window.n_samples} flags, got shape {f.shape}")
    window.run_lengths = np.where(f, window.run_lengths + 1, 0)


def consensus_set(window: ConsensusWindow) -> np.ndarray:
    """Ids flagged clean in every one of the last t_filter epochs.

    Empty until t_filter epochs have been recorded, since no run is longer.
    """
    return np.flatnonzero(window.run_lengths >= window.t_filter)


def dump_partition(fh, losses, posteriors, flags, consensus_ids) -> None:
    """One JSON object per sample: loss, posterior, flag, consensus membership.

    Each row is the text json.dumps gives the sample's dict.
    """
    n = len(losses)
    in_consensus = np.zeros(n, dtype=bool)
    in_consensus[np.asarray(consensus_ids, dtype=np.int64)] = True
    write_rows(fh, '{"sample": {}, "loss": {}, "posterior": {}, "flag": {}, '
                   '"in_consensus": {}}\n',
               range(n), np.asarray(losses, dtype=np.float64),
               np.asarray(posteriors, dtype=np.float64), np.asarray(flags, dtype=bool),
               in_consensus)
