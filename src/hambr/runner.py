"""Deterministic desk-scale training loop.

The trainable parameters are the per-sample unit embeddings themselves,
initialized at the synthetic features; prototypes, the feature bank, the
GMM partition and the outlier sampler are rebuilt from them every epoch.
All randomness flows from ExperimentConfig.seed through spawned seed
sequences, so a config fixes the run byte for byte.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

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
from .synthgen import DatasetSpec, NoiseSpec, dump_dataset, make_dataset, make_ood_set


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    weights: LossWeights = field(default_factory=LossWeights)
    clean_threshold: float = DEFAULT_CLEAN_THRESHOLD
    t_filter: int = DEFAULT_T_FILTER
    epochs: int = 30
    warmup_epochs: int = 5
    learn_rate: float = 0.05
    classifier_temperature: float = 0.1
    aug_sigma: float = 0.05
    output_dir: str = "runs/default"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.clean_threshold < 1.0:
            raise ConfigError("clean_threshold must be in (0, 1)")
        if self.t_filter < 1:
            raise ConfigError("t_filter must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError("need 0 <= warmup_epochs < epochs")
        if not 0 < self.learn_rate < np.inf:  # NaN fails every comparison
            raise ConfigError("learn_rate must be positive and finite")
        if not 0 < self.classifier_temperature < np.inf:
            raise ConfigError("classifier_temperature must be positive and finite")
        if not 0 <= self.aug_sigma < np.inf:
            raise ConfigError("aug_sigma must be non-negative and finite")


@dataclass
class TrainState:
    """Mutable carrier for everything the epoch loop updates."""

    embeddings: np.ndarray
    bank: BankSnapshot
    window: ConsensusWindow
    prototypes: PrototypeSet | None
    epoch: int


def config_to_dict(cfg: ExperimentConfig) -> dict:
    ds = cfg.dataset
    return {
        "dataset": {
            "dim": ds.dim, "n_classes": ds.n_classes, "n_per_class": ds.n_per_class,
            "kappa": list(ds.kappa),
            "means": None if ds.means is None
            else [[float(x) for x in m.coords] for m in ds.means],
            "noise": None if ds.noise is None
            else {"mode": ds.noise.mode, "rate": ds.noise.rate},
            "seed": ds.seed,
        },
        "sampler": {
            "step_size": cfg.sampler.step_size, "friction": cfg.sampler.friction,
            "n_rounds": cfg.sampler.n_rounds,
            "steps_per_round": cfg.sampler.steps_per_round,
            "n_chains": cfg.sampler.n_chains,
            "dyn_temperature": cfg.sampler.dyn_temperature,
            "integrator_variant": cfg.sampler.integrator_variant,
            "noise_per_step": cfg.sampler.noise_per_step,
            "seed": cfg.sampler.seed,
        },
        "energy": {"tau_energy": cfg.energy.tau_energy,
                   "k_neighbors": cfg.energy.k_neighbors},
        "weights": {
            "lambda_u": cfg.weights.lambda_u, "lambda_reg": cfg.weights.lambda_reg,
            "lambda_c": cfg.weights.lambda_c, "lambda_hambr": cfg.weights.lambda_hambr,
            "tau_loss": cfg.weights.tau_loss, "tau_con": cfg.weights.tau_con,
            "sharpen_T": cfg.weights.sharpen_T, "gce_q": cfg.weights.gce_q,
        },
        "clean_threshold": cfg.clean_threshold, "t_filter": cfg.t_filter,
        "epochs": cfg.epochs, "warmup_epochs": cfg.warmup_epochs,
        "learn_rate": cfg.learn_rate,
        "classifier_temperature": cfg.classifier_temperature,
        "aug_sigma": cfg.aug_sigma, "output_dir": cfg.output_dir, "seed": cfg.seed,
    }


def _check_integer(name: str, value) -> None:
    """JSON integers only (no bool, no float), and seeds must be >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if name.rsplit(".", 1)[-1] == "seed" and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")


def _build_section(name: str, cls, doc: dict, defaults: dict | None = None):
    """`cls` from `doc` over `defaults`; every field whose default is an int
    must hold an integer."""
    if not isinstance(doc, dict):
        raise ConfigError(f"section {name!r} must be an object")
    merged = dict(defaults or {})
    merged.update(doc)
    for f in fields(cls):
        if type(f.default) is int and f.name in merged:
            _check_integer(f.name if name == "experiment" else f"{name}.{f.name}",
                           merged[f.name])
    try:
        return cls(**merged)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name!r} section: {exc}") from exc


def config_from_dict(doc: dict, seed_override: int | None = None,
                     out_override: str | None = None) -> ExperimentConfig:
    """Build a config from a JSON document.

    dataset.seed / sampler.seed default to the experiment seed when the
    document omits them; --seed overrides all three.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    known = {"dataset", "sampler", "energy", "weights", "clean_threshold",
             "t_filter", "epochs", "warmup_epochs", "learn_rate",
             "classifier_temperature", "aug_sigma", "output_dir", "seed"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    seed = doc.pop("seed", 0)
    if seed_override is not None:
        seed = seed_override
    _check_integer("seed", seed)

    ds_doc = dict(doc.pop("dataset", {}))
    if seed_override is not None or "seed" not in ds_doc:
        ds_doc["seed"] = seed
    if "noise" in ds_doc and ds_doc["noise"] is not None:
        ds_doc["noise"] = _build_section("dataset.noise", NoiseSpec, ds_doc["noise"])
    dataset = _build_section("dataset", DatasetSpec, ds_doc)

    sp_doc = dict(doc.pop("sampler", {}))
    if seed_override is not None or "seed" not in sp_doc:
        sp_doc["seed"] = seed
    sampler = _build_section("sampler", SamplerConfig, sp_doc)

    energy = _build_section("energy", EnergyParams, dict(doc.pop("energy", {})))
    weights = _build_section("weights", LossWeights, dict(doc.pop("weights", {})))
    if out_override is not None:
        doc["output_dir"] = out_override
    return _build_section("experiment", ExperimentConfig, doc,
                          {"dataset": dataset, "sampler": sampler, "energy": energy,
                           "weights": weights, "seed": seed})


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc, seed_override, out_override)


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
    return BankSnapshot.from_arrays(x, np.maximum(posteriors, 1e-6), labels)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the full pipeline; writes artifacts into cfg.output_dir.

    Files: config.json (resolved), dataset.jsonl, partition.jsonl (one block of
    rows per epoch), metrics.csv + metrics.jsonl, bank.jsonl and outliers.jsonl
    (final epoch).  Returns the train state, metric records and output path.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    points = make_dataset(cfg.dataset)
    x = np.array([p.feature.coords for p in points])
    y_obs = np.array([p.observed_label for p in points], dtype=np.int64)
    y_true = np.array([p.true_label for p in points], dtype=np.int64)
    noise_mask = y_obs != y_true
    n, _ = x.shape
    n_classes = cfg.dataset.n_classes
    w = cfg.weights
    temp = cfg.classifier_temperature

    root = np.random.SeedSequence(cfg.seed)
    ood_child, epochs_parent = root.spawn(2)
    epoch_children = epochs_parent.spawn(cfg.epochs)
    ood_feats, _ = make_ood_set(cfg.dataset, np.random.default_rng(ood_child))

    state = TrainState(embeddings=x, bank=BankSnapshot({}),
                       window=ConsensusWindow(cfg.t_filter, n),
                       prototypes=None, epoch=0)

    records: list[MetricsRecord] = []
    partition_lines: list[str] = []

    for epoch in range(cfg.epochs):
        state.epoch = epoch
        x = state.embeddings
        warmup = epoch < cfg.warmup_epochs
        aug_ss, samp_ss = epoch_children[epoch].spawn(2)
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
        window_ready = state.window.epochs_recorded >= cfg.t_filter
        labeled_mask = np.zeros(n, dtype=bool)
        if window_ready:
            labeled_mask[consensus] = True
        else:
            labeled_mask = flags.copy()

        buf = io.StringIO()
        dump_partition(buf, losses, posteriors, flags, consensus)
        partition_lines.append(buf.getvalue())

        # (4) bank rebuilt from the consensus set only: the last
        # DEFAULT_CAPACITY consensus ids of each class, in id order
        if window_ready:
            bank = BankSnapshot.from_arrays(x[consensus], posteriors[consensus],
                                            y_obs[consensus], DEFAULT_CAPACITY)
        else:
            bank = BankSnapshot({})
        state.bank = bank

        # (5) fresh prototypes from the bank
        proto_set = compute_prototypes(bank) if len(bank) else None
        state.prototypes = proto_set
        p_fresh = _fill_prototypes(proto_set, obs_means)

        # (6) virtual outliers between prototype pairs
        if proto_set is not None and len(proto_set) >= 2:
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
        selected = consensus if window_ready else np.flatnonzero(flags)
        sel_p, sel_r, sel_f = selection_f1(selected, noise_mask)
        intra, inter = geometry_metrics(x, y_true, p_fresh)
        score_bank = bank if len(bank) else _fallback_bank(x, y_obs, posteriors)
        u_id = potential_batch(x, score_bank, cfg.energy)
        u_ood = potential_batch(ood_feats, score_bank, cfg.energy)
        rec = MetricsRecord(
            epoch=epoch, loss_x=terms.x, loss_u=terms.u, loss_reg=terms.reg,
            loss_con=terms.con, loss_hambr=terms.hambr,
            sel_precision=sel_p, sel_recall=sel_r, sel_f1=sel_f,
            intra=intra, inter=inter,
            auroc=auroc(u_id, u_ood), fpr95=fpr_at_95_tpr(u_id, u_ood),
            log_singular_values=tuple(singular_spectrum(x)))
        records.append(rec)

    with open(out_dir / "config.json", "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "dataset.jsonl", "w") as fh:
        dump_dataset(points, fh)
    with open(out_dir / "partition.jsonl", "w") as fh:
        fh.write("".join(partition_lines))
    with open(out_dir / "metrics.csv", "w") as fh:
        fh.write(csv_header() + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
    with open(out_dir / "metrics.jsonl", "w") as fh:
        for rec in records:
            fh.write(rec.json_line() + "\n")
    with open(out_dir / "bank.jsonl", "w") as fh:
        dump_bank(state.bank, fh)
    with open(out_dir / "outliers.jsonl", "w") as fh:
        dump_outliers(oset, fh)  # the final epoch's

    return {"output_dir": str(out_dir), "records": records, "state": state}
