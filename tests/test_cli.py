"""CLI tests, driven through cli_main so exit codes are observable."""

import json

import numpy as np
import pytest

from hambr import __version__
from hambr.cli import cli_main
from hambr.energy import BankEntry, FeatureBank, dump_bank
from hambr.sphere import UnitVector


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

    def test_nan_config_value_fails_before_the_first_epoch(self, tmp_path, capsys):
        # JSON's NaN literal parses; the config must reject it, not train on it
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text('{"epochs": 3, "warmup_epochs": 1, '
                        '"weights": {"lambda_reg": NaN}, "output_dir": "%s"}' % out)
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lambda_reg" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc, name", [
        ({"seed": 1.5}, "seed"),
        ({"t_filter": 2.0}, "t_filter"),
        ({"sampler": {"n_chains": 2.5}}, "sampler.n_chains"),
        ({"sampler": {"seed": -1}}, "sampler.seed"),
    ])
    def test_non_integer_config_value_fails_before_the_first_epoch(self, tmp_path,
                                                                   capsys, doc, name):
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "output_dir": str(out)}))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be")
        assert not out.exists()


    @pytest.mark.parametrize("doc, name", [
        ({"sampler": {"noise_per_step": "false"}}, "sampler.noise_per_step"),
        ({"learn_rate": True}, "learn_rate"),
        ({"dataset": []}, "dataset"),
        ({"sampler": [["n_chains", 4]]}, "sampler"),
        ({"dataset": {"kappa": [1.0, True, 2]}}, "dataset.kappa"),
        ({"output_dir": 5}, "output_dir"),
        ({"dataset": None}, "dataset"),
        ({"energy": "ab"}, "energy"),
        ({"dataset": {"kappa": [[1.0, 2.0]]}}, "dataset.kappa"),
        ({"dataset": {"means": [1.0, 0.0]}}, "dataset.means"),
        ({"dataset": {"means": [[[1.0] + [0.0] * 7], [[0.0, 1.0] + [0.0] * 6],
                                [[0.0, 0.0, 1.0] + [0.0] * 5]]}}, "dataset.means"),
    ])
    def test_wrong_json_type_fails_before_any_output(self, tmp_path, capsys,
                                                     monkeypatch, doc, name):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"output_dir": "run", **doc}))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be")
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
        assert capsys.readouterr().err == "error: unknown config keys: ['n_per_class']\n"
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

    @pytest.mark.parametrize("text, message", [
        ('{"class": 0, "weight": 1.0, "feature": [1.0, 1.0]}\n',
         "error: bank line 1: feature is not unit norm: |v| = 1.4142135623730951\n"),
        ('{"class": 0, "weight": 1.5, "feature": [1.0, 0.0]}\n',
         "error: bank line 1: weight must be in [0, 1], got 1.5\n"),
        ('{"class": 0, "weight": 1.0, "feature": [1.0, 0.0]}\n'
         '{"class": 1, "weight": 1.0, "feature": [0.0, 1.0, 0.0]}\n', "error: "),
        ("", "error: cannot synthesize against an empty bank"),
    ], ids=["non-unit-row", "weight-1.5", "ragged-features", "empty-file"])
    def test_bad_bank_file_is_an_error(self, tmp_path, capsys, text, message):
        bank_path = tmp_path / "bank.jsonl"
        bank_path.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"n_chains": 2}}))
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(bank_path),
                         "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


    @pytest.mark.parametrize("row, message", [
        ('{"class": 1, "weight": 1.0}', "missing key 'feature'"),
        ('{"class": 1, "weight": 1.0, "feature": [0.0, 1.0, 0.0]}',
         "feature has 3 values, the first row's has 2"),
        ('{"class": true, "weight": 1.0, "feature": [0.0, 1.0]}',
         "class labels must be non-negative integers, got True"),
        ('{"class": 1, "weight": true, "feature": [0.0, 1.0]}',
         "weight must be a number, got True"),
        ('{"class": 1, "weight": 1.0, "feature": [0.0, 1.0]', "not valid JSON"),
        ('{"class": 1, "weight": 1.0, "feature": [0.6, 0.6]}',
         "feature is not unit norm: |v| = 0.848528137423857"),
        ('{"class": 1, "weight": 1.0, "feature": [NaN, 1.0]}',
         "feature is not unit norm: |v| = nan"),
        ('{"class": 1, "weight": 1.0, "feature": [-Infinity, 0.0]}',
         "feature is not unit norm: |v| = inf"),
        ('{"class": 1, "weight": -0.5, "feature": [0.0, 1.0]}',
         "weight must be in [0, 1], got -0.5"),
        ('{"class": 1, "weight": 1.0, "feature": [true, 0.0]}',
         "feature must be a list of numbers"),
    ], ids=["missing-feature", "ragged", "bool-class", "bool-weight", "bad-json",
            "non-unit", "nan-feature", "inf-feature", "negative-weight", "bool-in-feature"])
    def test_bad_bank_line_is_named(self, tmp_path, capsys, row, message):
        bank_path = tmp_path / "bank.jsonl"
        bank_path.write_text('{"class": 0, "weight": 1.0, "feature": [1.0, 0.0]}\n'
                             + row + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"n_chains": 2}}))
        out = tmp_path / "outliers.jsonl"
        assert cli_main(["synthesize", "--bank", str(bank_path),
                         "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: bank line 2: {message}")
        assert not out.exists()


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
