"""The benchmark's workloads: seeded inputs, set-up, one operation, checks.

hambr is driven only through its public functions and its CLI, looked up on
their modules at call time so that a traced run sees every call.  Each
workload's inputs (a config file, and a bank file for `synthesize`) are a pure
function of the seed; the program sees nothing but those files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from hambr import cli, energy, losses, metrics, runner, synthgen

UNIT_TOL = 1e-9

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "default": "The README config users run (3x200 samples, d=8, C=3, 32 chains, "
               "30 epochs); the scalar sampler chain loop dominates its cost.",
    "large-n": "6,000 samples with 4 chains: per-sample layers (contrastive grads, "
               "potential_batch, partition dump, metrics) carry the run and the bank "
               "FIFO cap drops consensus samples.",
    "synthesize": "hambr synthesize on a fixed 10-class x 256-entry d=32 bank with "
                  "128 chains: one bank loaded once, then queried read-only by many "
                  "chains across many classes.",
}
NAMES = tuple(WHY)

# Per-workload config overrides; "tiny" shrinks each one for the self-tests.
_FULL = {
    "default": {},
    "large-n": {"dataset": {"n_per_class": 2000}, "sampler": {"n_chains": 4}},
    "synthesize": {"dataset": {"dim": 32, "n_classes": 10, "n_per_class": 256,
                               "noise": None},
                   "sampler": {"n_chains": 128}},
}
_TINY = {
    "default": {"dataset": {"n_per_class": 20}, "sampler": {"n_chains": 4},
                "epochs": 6, "warmup_epochs": 1},
    "large-n": {"dataset": {"n_per_class": 60}, "sampler": {"n_chains": 2},
                "epochs": 6, "warmup_epochs": 1},
    "synthesize": {"dataset": {"dim": 8, "n_classes": 3, "n_per_class": 24,
                               "noise": None},
                   "sampler": {"n_chains": 6}},
}


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Write the workload's input files into `workdir`; return their paths."""
    doc = json.loads(json.dumps((_TINY if tiny else _FULL)[name]))
    doc["seed"] = seed
    doc["output_dir"] = str(workdir / "unused")
    config = workdir / "config.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    inputs = {"workload": name, "config": str(config)}
    if name == "synthesize":
        inputs["bank"] = str(workdir / "bank.jsonl")
        _write_bank(runner.load_config(config), seed, Path(inputs["bank"]))
    return inputs


def _write_bank(cfg, seed: int, path: Path) -> None:
    """A consensus-like bank: synthgen draws, weights like clean posteriors.

    Every entry cleared a 0.5 clean threshold, so weights lie in (0.5, 1] and
    pile up near 1, as GMM clean posteriors of a consensus set do.
    """
    spec = cfg.dataset
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    bank = energy.FeatureBank(capacity_per_class=spec.n_per_class)
    for point in synthgen.make_dataset(spec):
        weight = 0.5 + 0.5 * float(rng.beta(4.0, 1.0))
        bank.add(energy.BankEntry(point.feature, weight, point.observed_label))
    with open(path, "w") as fh:
        energy.dump_bank(bank, fh)


def setup(inputs: dict) -> dict:
    """Everything a fresh process does before its first unit of work."""
    cfg = runner.load_config(inputs["config"])
    state = {"inputs": inputs, "cfg": cfg}
    if inputs["workload"] == "synthesize":
        with open(inputs["bank"]) as fh:
            state["bank"] = energy.load_bank(fh)
        state["prototypes"] = losses.compute_prototypes(state["bank"])
    else:
        state["points"] = synthgen.make_dataset(cfg.dataset)
        ood_seq = np.random.SeedSequence(cfg.seed).spawn(2)[0]
        state["ood"] = synthgen.make_ood_set(cfg.dataset, np.random.default_rng(ood_seq))
    return state


def run_op(state: dict, out_dir: Path):
    """One unit of work: a run_experiment, or one `hambr synthesize` CLI call."""
    out_dir.mkdir(parents=True)
    inputs = state["inputs"]
    if inputs["workload"] == "synthesize":
        code = cli.cli_main(["synthesize", "--bank", inputs["bank"],
                         "--config", inputs["config"],
                         "--out", str(out_dir / "outliers.jsonl")])
        if code != 0:
            raise RuntimeError(f"hambr synthesize exited with {code}")
        return None
    return runner.run_experiment(replace(state["cfg"], output_dir=str(out_dir)))


class CheckFailed(Exception):
    """An operation's outputs are wrong."""


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_outliers(path: Path, expected: int) -> np.ndarray:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    if len(rows) != expected:
        raise CheckFailed(f"{len(rows)} outliers, expected {expected}")
    arr = np.array([row["outlier"] for row in rows], dtype=np.float64)
    worst = float(np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)))
    if not worst <= UNIT_TOL:
        raise CheckFailed(f"outlier off the unit sphere by {worst!r}")
    return arr


def _read_metrics_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    if not rows:
        raise CheckFailed("metrics.csv has no rows")
    for row in rows:
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            raise CheckFailed(f"non-finite metrics.csv values in {bad}")
        if not 0.0 <= row["auroc"] <= 1.0:
            raise CheckFailed(f"auroc {row['auroc']!r} outside [0, 1]")
    return rows


def check_op(state: dict, out_dir: Path) -> dict:
    """Validate one operation's outputs; digests let runs be compared byte for byte.

    Raises CheckFailed when an output is wrong.
    """
    cfg = state["cfg"]
    _read_outliers(out_dir / "outliers.jsonl", cfg.sampler.n_chains)
    digests = {"outliers.jsonl": _digest(out_dir / "outliers.jsonl")}
    if state["inputs"]["workload"] != "synthesize":
        _read_metrics_csv(out_dir / "metrics.csv")
        digests["metrics.csv"] = _digest(out_dir / "metrics.csv")
    return digests


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _percentile_ranks(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Percent of `reference` below each value, ties counting half."""
    ref = np.sort(reference)
    below = np.searchsorted(ref, values, side="left")
    upto = np.searchsorted(ref, values, side="right")
    return 100.0 * (below + 0.5 * (upto - below)) / ref.size


def quality(state: dict, out_dir: Path, result) -> dict:
    """Output-quality metrics of one (deterministic) operation.

    ridge_pct: median percentile rank of the outliers' potential among the
    bank points' potentials.  Training workloads report the final epoch's
    energy OOD AUROC and clean-selection F1.  `synthesize` has neither, so
    there auroc_final is the energy AUROC of the outliers against the bank
    points, and sel_f1_final the F1 of flagging ridge points by a potential
    above the bank median (outliers positive, bank points negative).
    """
    cfg = state["cfg"]
    outliers = _read_outliers(out_dir / "outliers.jsonl", cfg.sampler.n_chains)
    bank = state["bank"] if result is None else result["state"].bank
    snap = bank.snapshot()
    points = np.concatenate([snap.features(c) for c in snap.classes])
    u_bank = energy.potential_batch(points, bank, cfg.energy)
    u_out = energy.potential_batch(outliers, bank, cfg.energy)
    out = {"ridge_pct": float(np.median(_percentile_ranks(u_out, u_bank)))}
    if result is None:
        median = float(np.median(u_bank))
        tp = int(np.count_nonzero(u_out > median))
        fp = int(np.count_nonzero(u_bank > median))
        out["auroc_final"] = metrics.auroc(u_bank, u_out)
        out["sel_f1_final"] = 2.0 * tp / (2 * tp + fp + (u_out.size - tp))
    else:
        final = _read_metrics_csv(out_dir / "metrics.csv")[-1]
        out["auroc_final"] = final["auroc"]
        out["sel_f1_final"] = final["sel_f1"]
    return out
