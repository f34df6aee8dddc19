"""Deterministic desk-scale training loop.

The trainable parameters are the per-sample unit embeddings themselves,
initialized at the synthetic features; prototypes, the feature bank, the
GMM partition and the outlier sampler are rebuilt from them every epoch.
All randomness flows from ExperimentConfig.seed through spawned seed
sequences, so a config fixes the run byte for byte.
"""

from __future__ import annotations

import functools
import json
import numbers
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from ._rules import check_rules, rule
from .energy import (
    DEFAULT_CAPACITY,
    BankSnapshot,
    EnergyParams,
    dump_bank,
    potential_batch,
)
from .losses import (
    LossWeights,
    PrototypeSet,
    compute_prototypes,
    objective,
    sample_losses,
    PROB_CLAMP,
)
from .metrics import (
    MIN_ID_SCORES,
    MetricsRecord,
    auroc,
    csv_header,
    fpr_at_95_tpr,
    geometry_metrics,
    selection_f1,
    singular_spectrum,
)
from .partition import (
    ConsensusWindow,
    DEFAULT_CLEAN_THRESHOLD,
    DEFAULT_T_FILTER,
    clean_posterior,
    consensus_set,
    consensus_update,
    dump_partition,
    fit_gmm_1d,
)
from .sampler import SamplerConfig, VirtualOutlierSet, dump_outliers, synthesize_outliers
from .synthgen import DatasetSpec, dataset_arrays, dump_dataset, make_ood_set


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    weights: LossWeights = field(default_factory=LossWeights)
    clean_threshold: float = rule("in (0, 1)", DEFAULT_CLEAN_THRESHOLD)
    t_filter: int = rule(">= 1", DEFAULT_T_FILTER)
    epochs: int = rule(">= 1", 30)
    warmup_epochs: int = 5
    learn_rate: float = rule("positive and finite", 0.05)
    classifier_temperature: float = rule("positive and finite", 0.1)
    aug_sigma: float = rule("non-negative and finite", 0.05)
    output_dir: str = "runs/default"
    seed: int = 0

    def __post_init__(self):
        check_rules(self, ConfigError)
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError("need 0 <= warmup_epochs < epochs")


@dataclass
class TrainState:
    """Mutable carrier for everything the epoch loop updates."""

    embeddings: np.ndarray
    bank: BankSnapshot
    window: ConsensusWindow
    prototypes: PrototypeSet | None


def _to_json(value):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config as a JSON document: every dataclass an object of its fields,
    every tuple a list."""
    return _to_json(cfg)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per section class

# what a value of each field type must be in JSON: (test, description)
_JSON_TYPES = {
    int: (lambda v: _is_number(v) and isinstance(v, numbers.Integral), "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: _is_number(v) or _list_of(_is_number)(v), "a number or a list of numbers"),
    tuple[tuple[float, ...], ...]: (_list_of(_list_of(_is_number)), "a list of lists of numbers"),
}


def _fits_float(value) -> bool:
    """False for a JSON integer, alone or in (nested) lists, too large for a float."""
    if isinstance(value, list):
        return all(map(_fits_float, value))
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _parse(path: str, hint, value, seed: int, seed_wins: bool):
    """`value` checked against the field type `hint`, or ConfigError naming `path`.

    A section (a dataclass) comes from an object keyed by its field names.
    Omitted fields keep their defaults, but a section with a seed takes the
    experiment `seed` when it omits its own, or always when `seed_wins`.
    """
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return None
    kind = options[0]
    if not is_dataclass(kind):
        check, what = _JSON_TYPES[kind]
        if not check(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        if kind not in (int, str) and not _fits_float(value):
            raise ConfigError(f"{path} must fit in a float, got an integer too large for one")
        if path.endswith("seed"):  # seeds are entropy, of any size
            if value < 0:
                raise ConfigError(f"{path} must be >= 0, got {value!r}")
        elif kind is int and not -2 ** 63 <= value < 2 ** 63:
            raise ConfigError(f"{path} must fit in a 64-bit integer, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object, got {value!r}")
    hints, names = _type_hints(kind), [f.name for f in fields(kind)]
    unknown = set(value) - set(names)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    if "seed" in names and (seed_wins or "seed" not in value):
        value = {**value, "seed": seed}
    kwargs = {}
    for name in names:
        if name in value or "seed" in getattr(hints[name], "__dataclass_fields__", ()):
            kwargs[name] = _parse(f"{path}.{name}" if path else name, hints[name],
                                  value.get(name, {}), seed, seed_wins)
    try:
        return kind(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def config_from_dict(doc: dict, seed_override: int | None = None,
                     out_override: str | None = None) -> ExperimentConfig:
    """Build a config from a JSON document.

    dataset.seed / sampler.seed default to the experiment seed when the
    document omits them; --seed overrides all three.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    overrides = {"seed": seed_override, "output_dir": out_override}
    doc = {**doc, **{key: value for key, value in overrides.items() if value is not None}}
    seed = _parse("seed", int, doc.setdefault("seed", 0), 0, False)
    return _parse("", ExperimentConfig, doc, seed, seed_override is not None)


def read_config_json(path):
    """The JSON document in the file at `path`; ConfigError if it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    return config_from_dict(read_config_json(path), seed_override, out_override)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _class_mean_prototypes(x: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Normalized per-class mean of x; basis-vector fallback for dead classes."""
    d = x.shape[1]
    out = np.empty((n_classes, d))
    for c in range(n_classes):
        rows = x[labels == c]
        m = rows.mean(axis=0) if rows.size else np.zeros(d)
        norm = np.linalg.norm(m)
        if norm <= 1e-12:
            m = np.zeros(d)
            m[c % d] = 1.0
            norm = 1.0
        out[c] = m / norm
    return out


def _fill_prototypes(proto_set: PrototypeSet | None, fallback: np.ndarray) -> np.ndarray:
    """Bank prototypes where available, fallback rows elsewhere."""
    out = fallback.copy()
    if proto_set is not None:
        out[proto_set.classes] = proto_set.directions
    return out


def _fallback_bank(x: np.ndarray, labels: np.ndarray, posteriors: np.ndarray) -> BankSnapshot:
    """Scoring stopgap while the live bank is empty: every sample, floored weights."""
    return BankSnapshot(x, np.maximum(posteriors, 1e-6), labels)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the full pipeline; writes artifacts into cfg.output_dir as it goes.

    config.json (resolved) and dataset.jsonl first; each epoch's partition.jsonl,
    metrics.csv and metrics.jsonl rows when it ends, line-buffered, so a failed
    run keeps them; bank.jsonl and outliers.jsonl (final epoch; empty when
    weights.lambda_hambr is 0, since no term then uses outliers) last. Returns
    the train state, metric records and output path.  A dataset of fewer than
    MIN_ID_SCORES samples raises ConfigError before anything is written.
    """
    n_samples = cfg.dataset.n_per_class * cfg.dataset.n_classes
    if n_samples < MIN_ID_SCORES:  # fpr95 takes one ID score per sample
        raise ConfigError(f"dataset.n_per_class * dataset.n_classes must be >= "
                          f"{MIN_ID_SCORES}, the ID scores fpr95 needs, got {n_samples}")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("bank.jsonl", "outliers.jsonl"):  # an earlier run's final epoch
        (out_dir / name).unlink(missing_ok=True)

    x, y_true, y_obs = dataset_arrays(cfg.dataset)
    (out_dir / "config.json").write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    with open(out_dir / "dataset.jsonl", "w") as fh:
        dump_dataset(x, y_true, y_obs, fh)
    noise_mask = y_obs != y_true
    n, _ = x.shape
    n_classes = cfg.dataset.n_classes
    w = cfg.weights
    temp = cfg.classifier_temperature

    root = np.random.SeedSequence(cfg.seed)
    ood_child, epochs_parent = root.spawn(2)
    ood_feats, _ = make_ood_set(cfg.dataset, np.random.default_rng(ood_child))

    state = TrainState(embeddings=x, bank=BankSnapshot(x[:0], [], []),
                       window=ConsensusWindow(cfg.t_filter, n),
                       prototypes=None)

    records: list[MetricsRecord] = []
    with (open(out_dir / "partition.jsonl", "w", buffering=1) as partition_fh,
          open(out_dir / "metrics.csv", "w", buffering=1) as csv_fh,
          open(out_dir / "metrics.jsonl", "w", buffering=1) as jsonl_fh):
        csv_fh.write(csv_header() + "\n")
        for epoch in range(cfg.epochs):
            warmup = epoch < cfg.warmup_epochs
            # one child as each epoch starts; children are numbered in spawn
            # order, so the keys are those of spawn(cfg.epochs) up front
            aug_ss, samp_ss = epochs_parent.spawn(1)[0].spawn(2)
            aug_rng = np.random.default_rng(aug_ss)
            sampler_seed = int(np.random.default_rng(samp_ss).integers(0, 2 ** 63 - 1))

            # (1) classify against the carried prototypes (observed means early on)
            obs_means = _class_mean_prototypes(x, y_obs, n_classes)
            if warmup or state.prototypes is None:
                p_cls = obs_means
            else:
                p_cls = _fill_prototypes(state.prototypes, obs_means)
            preds = _softmax_rows(x @ p_cls.T / temp)
            preds = np.clip(preds, PROB_CLAMP, 1.0 - PROB_CLAMP)

            # (2) per-sample losses for the partition
            losses = sample_losses(preds, y_obs, warmup, w.gce_q)

            # (3) mixture fit, flags, consensus
            model = fit_gmm_1d(losses)
            posteriors = clean_posterior(model, losses)
            flags = posteriors > cfg.clean_threshold
            consensus_update(state.window, flags)
            consensus = consensus_set(state.window)
            window_ready = epoch + 1 >= cfg.t_filter  # t_filter epochs recorded
            # the consensus set once the window is full, this epoch's flags before
            labeled_mask = np.isin(np.arange(n), consensus) if window_ready else flags

            # (4) bank rebuilt from the consensus set only: the last
            # DEFAULT_CAPACITY consensus ids of each class, in id order
            # (no rows, so the empty bank, until the window is full)
            bank = BankSnapshot(x[consensus], posteriors[consensus], y_obs[consensus],
                                DEFAULT_CAPACITY)
            state.bank = bank

            # (5) fresh prototypes from the bank
            proto_set = compute_prototypes(bank) if len(bank) else None
            state.prototypes = proto_set
            p_fresh = _fill_prototypes(proto_set, obs_means)

            # (6) virtual outliers between prototype pairs, for the one term that uses them
            if w.lambda_hambr > 0 and proto_set is not None and len(proto_set) >= 2:
                samp_cfg = replace(cfg.sampler, seed=sampler_seed)
                oset = synthesize_outliers(bank, proto_set.directions, cfg.energy, samp_cfg)
            else:
                oset = VirtualOutlierSet(np.empty((0, x.shape[1])), np.empty(0))

            # (7)+(8) analytic gradient step
            terms, grads = objective(x, preds, p_cls, y_obs, w, temp, warmup=warmup,
                                     posteriors=posteriors, labeled=labeled_mask,
                                     prototypes=p_fresh, outliers=oset.outliers,
                                     aug_sigma=cfg.aug_sigma, rng=aug_rng)
            tangential = grads - np.einsum("ij,ij->i", grads, x)[:, None] * x
            moved = x - cfg.learn_rate * tangential
            state.embeddings = moved / np.linalg.norm(moved, axis=1)[:, None]
            x = state.embeddings

            # (9) metrics on the post-step state
            sel_p, sel_r, sel_f = selection_f1(np.flatnonzero(labeled_mask), noise_mask)
            intra, inter = geometry_metrics(x, y_true, p_fresh)
            score_bank = bank if len(bank) else _fallback_bank(x, y_obs, posteriors)
            u_id, u_ood = np.split(potential_batch(np.concatenate([x, ood_feats]),
                                                   score_bank, cfg.energy), [n])
            rec = MetricsRecord(
                epoch=epoch, loss_x=terms.x, loss_u=terms.u, loss_reg=terms.reg,
                loss_con=terms.con, loss_hambr=terms.hambr,
                sel_precision=sel_p, sel_recall=sel_r, sel_f1=sel_f,
                intra=intra, inter=inter,
                auroc=auroc(u_id, u_ood), fpr95=fpr_at_95_tpr(u_id, u_ood),
                log_singular_values=tuple(singular_spectrum(x)))
            records.append(rec)

            # (10) the epoch's rows, written before the next epoch starts
            dump_partition(partition_fh, losses, posteriors, flags, consensus)
            csv_fh.write(rec.csv_row() + "\n")
            jsonl_fh.write(rec.json_line() + "\n")

    with open(out_dir / "bank.jsonl", "w") as fh:
        dump_bank(state.bank, fh)
    with open(out_dir / "outliers.jsonl", "w") as fh:
        dump_outliers(oset, fh)  # the final epoch's

    return {"output_dir": str(out_dir), "records": records, "state": state}
