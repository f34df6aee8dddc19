"""Command line entry points.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .energy import load_bank
from .losses import compute_prototypes
from .metrics import auroc, fpr_at_95_tpr
from .runner import config_from_dict, load_config, read_config_json, run_experiment
from .sampler import dump_outliers, synthesize_outliers
from .synthgen import DatasetSpec, dataset_arrays, dump_dataset


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambr",
        description="Noisy-label partitioning with energy-guided virtual outliers")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
    p_run.add_argument("--out", default=None, help="override output_dir")

    p_syn = sub.add_parser("synthesize",
                           help="sample virtual outliers from a dumped bank")
    p_syn.add_argument("--bank", required=True, help="bank.jsonl path")
    p_syn.add_argument("--config", required=True, help="experiment config JSON")
    p_syn.add_argument("--out", required=True, help="where to write outliers.jsonl")

    p_gen = sub.add_parser("gen-data", help="generate a labeled dataset")
    p_gen.add_argument("--config", required=True,
                       help="experiment config JSON, or a bare dataset section")
    p_gen.add_argument("--out", required=True, help="where to write dataset.jsonl")

    p_ood = sub.add_parser("eval-ood",
                           help="AUROC / FPR@95TPR from score files (one float per line)")
    p_ood.add_argument("--id-scores", required=True)
    p_ood.add_argument("--ood-scores", required=True)
    return parser


def _read_scores(path: str) -> np.ndarray:
    """The scores in the file at `path`, one number per line, blank lines skipped."""
    values = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError:
                    raise ValueError(f"{path} line {number}: expected one number, "
                                     f"got {line.strip()!r}") from None
    return np.array(values)


def _load_any_config(path: str):
    """Full experiment config, or for gen-data a bare dataset section: a
    document whose keys are all DatasetSpec fields."""
    doc = read_config_json(path)
    if isinstance(doc, dict) and set(doc) <= set(DatasetSpec.__dataclass_fields__):
        doc = {"dataset": doc}
    return config_from_dict(doc)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            cfg = load_config(args.config, seed_override=args.seed,
                              out_override=args.out)
            result = run_experiment(cfg)
            print(result["output_dir"])
        elif args.command == "synthesize":
            cfg = load_config(args.config)
            with open(args.bank) as fh:
                bank = load_bank(fh)
            protos = compute_prototypes(bank)
            oset = synthesize_outliers(bank, protos.directions, cfg.energy, cfg.sampler)
            with open(args.out, "w") as fh:
                dump_outliers(oset, fh)
        elif args.command == "gen-data":
            cfg = _load_any_config(args.config)
            arrays = dataset_arrays(cfg.dataset)
            with open(args.out, "w") as fh:
                dump_dataset(*arrays, fh)
        elif args.command == "eval-ood":
            id_scores = _read_scores(args.id_scores)
            ood_scores = _read_scores(args.ood_scores)
            doc = {"auroc": auroc(id_scores, ood_scores),
                   "fpr95": fpr_at_95_tpr(id_scores, ood_scores)}
            print(json.dumps(doc, separators=(",", ":")))
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
