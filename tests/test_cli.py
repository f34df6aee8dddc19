"""CLI tests, driven through cli_main so exit codes are observable."""

import io
import json

import numpy as np
import pytest

from hambr import __version__
from hambr.cli import cli_main
from hambr.energy import BankEntry, FeatureBank, dump_bank, load_bank
from hambr.runner import ConfigError, config_from_dict, load_config, run_experiment
from hambr.sphere import UnitVector
from reference import (
    BAD_BANK_FILES,
    BAD_BANK_LINES,
    BAD_LINE_PREFIX,
    REJECTED_CONFIGS,
)


def write_scores(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")


class TestUsage:
    def test_version(self, capsys):
        assert cli_main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"hambr {__version__}"

    def test_no_command(self):
        assert cli_main([]) == 2

    def test_unknown_command(self):
        assert cli_main(["frobnicate"]) == 2

    def test_run_requires_config(self):
        assert cli_main(["run"]) == 2

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    # every document config_from_dict rejects, as test_runner.py runs them
    @pytest.mark.parametrize("doc", REJECTED_CONFIGS)
    def test_rejected_config_fails_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                     doc):
        with pytest.raises(ConfigError) as rejected:
            config_from_dict(doc)
        monkeypatch.chdir(tmp_path)  # where the default output_dir would go
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {rejected.value}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestEvalOod:
    def test_perfect_separation(self, tmp_path, capsys):
        id_path, ood_path = tmp_path / "id.txt", tmp_path / "ood.txt"
        write_scores(id_path, np.linspace(0.0, 1.0, 25))
        write_scores(ood_path, np.linspace(2.0, 3.0, 10))
        assert cli_main(["eval-ood", "--id-scores", str(id_path),
                         "--ood-scores", str(ood_path)]) == 0
        assert capsys.readouterr().out.strip() == '{"auroc":1.0,"fpr95":0.0}'

    def test_too_few_id_scores(self, tmp_path, capsys):
        id_path, ood_path = tmp_path / "id.txt", tmp_path / "ood.txt"
        write_scores(id_path, [0.1] * 5)
        write_scores(ood_path, [0.9] * 5)
        assert cli_main(["eval-ood", "--id-scores", str(id_path),
                         "--ood-scores", str(ood_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        id_path, ood_path = tmp_path / "id.txt", tmp_path / "ood.txt"
        id_path.write_text("\n".join(str(v) for v in np.linspace(0.0, 1.0, 25)) + "\n\n")
        ood_path.write_text("\n2.0\n  \n2.5\n")
        assert cli_main(["eval-ood", "--id-scores", str(id_path),
                         "--ood-scores", str(ood_path)]) == 0
        assert capsys.readouterr().out.strip() == '{"auroc":1.0,"fpr95":0.0}'

    @pytest.mark.parametrize("text, number, got", [
        ("2.0\n0.1 0.2\n", 2, "'0.1 0.2'"),
        ("\nabc\n", 2, "'abc'"),
        ("2.0\n\n3.0,\n", 3, "'3.0,'"),
        ("2.0\n1_5\n", 2, "'1_5'"),
        ("\uff11\n", 1, "'\uff11'"),
    ], ids=["two-numbers", "word", "comma", "underscore", "full-width-digit"])
    def test_line_that_is_not_one_number_is_named(self, tmp_path, capsys, text, number, got):
        id_path, ood_path = tmp_path / "id.txt", tmp_path / "ood.txt"
        write_scores(id_path, np.linspace(0.0, 1.0, 25))
        ood_path.write_text(text)
        assert cli_main(["eval-ood", "--id-scores", str(id_path),
                         "--ood-scores", str(ood_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ood_path} line {number}: expected one number, got {got}\n")

    def test_nan_score_is_an_error(self, tmp_path, capsys):
        id_path, ood_path = tmp_path / "id.txt", tmp_path / "ood.txt"
        write_scores(id_path, np.linspace(0.0, 1.0, 25))
        write_scores(ood_path, [2.0, 2.0, 2.0, float("nan")])
        assert cli_main(["eval-ood", "--id-scores", str(id_path),
                         "--ood-scores", str(ood_path)]) == 1
        assert capsys.readouterr().err == (
            "error: OOD scores have 1 non-finite value(s), the first nan at index 3\n")


class TestGenData:
    def test_bare_dataset_config(self, tmp_path):
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"n_per_class": 15, "seed": 2}))
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 45

    def test_full_experiment_config(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"dataset": {"n_per_class": 10}, "seed": 4}))
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg),
                         "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 30
        assert set(rows[0]) == {"feature", "true", "observed"}

    def test_writes_the_dataset_bytes_a_run_writes(self, tmp_path):
        cfg = tmp_path / "exp.json"
        run_dir = tmp_path / "run"
        cfg.write_text(json.dumps({"dataset": {"n_per_class": 12, "noise": {"rate": 0.3}},
                                   "epochs": 2, "warmup_epochs": 1, "seed": 6,
                                   "output_dir": str(run_dir)}))
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["run", "--config", str(cfg)]) == 0
        assert len(out.read_text().splitlines()) == 36
        assert out.read_bytes() == (run_dir / "dataset.jsonl").read_bytes()

    def test_bare_dataset_config_needs_integers(self, tmp_path, capsys):
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"n_per_class": 15.5}))
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: dataset.n_per_class must be")
        assert not out.exists()

    def test_full_config_without_a_dataset_section(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"epochs": 8, "seed": 3}))
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 600

    def test_keys_of_both_kinds_are_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"epochs": 8, "n_per_class": 15}))
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: config: unknown keys ['n_per_class']\n"
        assert not out.exists()

    def test_invalid_json_is_reported_as_run_reports_it(self, tmp_path, capsys):
        cfg = tmp_path / "data.json"
        cfg.write_text('{n_per_class: 15}')
        out = tmp_path / "dataset.jsonl"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        gen_err = capsys.readouterr().err
        assert gen_err.startswith("error: config is not valid JSON: Expecting property name")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == gen_err
        assert not out.exists()


class TestSynthesize:
    def test_outlier_rows_match_chain_count(self, tmp_path):
        bank = FeatureBank()
        rng = np.random.default_rng(3)
        for c, pole in enumerate(([1.0, 0.0], [0.0, 1.0])):
            for _ in range(10):
                v = np.asarray(pole) + 0.05 * rng.standard_normal(2)
                bank.add(BankEntry(UnitVector(v / np.linalg.norm(v)), 1.0, c))
        bank_path = tmp_path / "bank.jsonl"
        with open(bank_path, "w") as fh:
            dump_bank(bank, fh)

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"n_chains": 6, "seed": 1}}))
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(bank_path),
                         "--config", str(cfg), "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 6
        assert set(rows[0]) == {"chain", "outlier", "potential"}
        for row in rows:
            assert np.isclose(np.linalg.norm(row["outlier"]), 1.0, atol=1e-9)

    def test_a_runs_bank_loads_back_and_feeds_synthesize(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"n_per_class": 30},
            "sampler": {"n_chains": 6, "n_rounds": 2, "steps_per_round": 2},
            "epochs": 5, "warmup_epochs": 2, "t_filter": 2, "seed": 3,
            "output_dir": str(run_dir)}))
        bank = run_experiment(load_config(cfg))["state"].bank
        with open(run_dir / "bank.jsonl") as fh:
            loaded = load_bank(fh)
        assert len(loaded) == len(bank) > 0 and loaded.classes == bank.classes
        for c in bank.classes:
            assert loaded.features(c).tobytes() == bank.features(c).tobytes()
            assert loaded.weights(c).tobytes() == bank.weights(c).tobytes()
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(run_dir / "bank.jsonl"),
                         "--config", str(run_dir / "config.json"), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["chain"] for row in rows] == list(range(6))
        assert all(np.isfinite(row["potential"]) for row in rows)

    # every bank file load_bank rejects, as test_energy.py runs them
    @pytest.mark.parametrize("text, line, message", [
        *(row[1:] for row in BAD_BANK_FILES),
        *((BAD_LINE_PREFIX + line + "\n", 3, message) for line, message in BAD_BANK_LINES)])
    def test_bad_bank_line_is_named(self, tmp_path, capsys, text, line, message):
        with pytest.raises(ValueError) as rejected:
            load_bank(io.StringIO(text))
        bank_path = tmp_path / "bank.jsonl"
        bank_path.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"n_chains": 2}}))
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(bank_path),
                         "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {rejected.value}\n"
        assert err.startswith(f"error: bank line {line}: {message}")
        assert not out.exists()

    def test_empty_bank_file_is_an_error(self, tmp_path, capsys):
        bank_path = tmp_path / "bank.jsonl"
        bank_path.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"n_chains": 2}}))
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(bank_path),
                         "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot synthesize against an empty bank")
        assert not out.exists()

    def test_edge_norm_feature_on_line_2_synthesizes(self, tmp_path):
        # |v| is 1 + NORM_TOL to within rounding (see test_energy.EDGE_FEATURE):
        # the line check and the bank's row check take the same norm, so both pass
        bank_path = tmp_path / "bank.jsonl"
        bank_path.write_text(
            "\n"
            '{"class": 0, "weight": 1.0, "feature": '
            "[0.7499048544990807, -0.43527052428377805, 0.498178965722598]}\n"
            '{"class": 1, "weight": 1.0, "feature": [0.0, 1.0, 0.0]}\n')
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"n_chains": 2}}))
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(bank_path),
                         "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestRunCommand:
    @pytest.mark.parametrize("dataset, message", [
        ({"kappa": [1e20]}, "kappa 1e+20 is too large to sample in dimension 8"),
        ({"n_classes": 1}, "noise flips labels, so needs n_classes >= 2, got 1"),
    ], ids=["kappa", "noise"])
    def test_dataset_that_cannot_be_made_fails_before_any_output(
            self, tmp_path, capsys, dataset, message):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": dataset}))
        for command in (["run", "--out", str(out)], ["gen-data", "--out", str(out)]):
            assert cli_main([*command, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: dataset: {message}\n"
            assert not out.exists()

    def test_dataset_too_small_for_fpr95_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": {"n_per_class": 5}}))
        assert cli_main(["run", "--out", str(out), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: dataset.n_per_class * dataset.n_classes must be >= 20")
        assert not out.exists()
        # gen-data writes a dataset of any size
        assert cli_main(["gen-data", "--out", str(out), "--config", str(cfg)]) == 0
        assert len(out.read_text().splitlines()) == 15

    def test_end_to_end_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"n_per_class": 30},
            "sampler": {"n_chains": 6, "n_rounds": 2, "steps_per_round": 2},
            "epochs": 5, "warmup_epochs": 2, "t_filter": 2,
            "output_dir": str(tmp_path / "ignored"),
        }))
        out = tmp_path / "run"
        code = cli_main(["run", "--config", str(cfg),
                         "--seed", "23", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(out)
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["seed"] == 23
        assert resolved["dataset"]["seed"] == 23
        assert (out / "metrics.csv").exists()
