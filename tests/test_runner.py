"""End-to-end pipeline tests: config plumbing, determinism, artifacts."""

import json
import re
import shutil
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from hambr.energy import (
    DEFAULT_CAPACITY,
    BankEntry,
    BankSnapshot,
    FeatureBank,
    potential_batch,
)
from hambr.runner import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    run_experiment,
    _fallback_bank,
)
from hambr.sphere import UnitVector
from hambr.sampler import SamplerConfig, VirtualOutlierSet, synthesize_outliers
from hambr.synthgen import DatasetSpec, NoiseSpec
from reference import (
    COUNT_PATHS,
    NON_FINITE_FIELDS,
    NON_FINITE_VALUES,
    NON_INTEGERS,
    SECTION_RANGES,
    TOO_LARGE_FOR_64_BITS,
    TOO_LARGE_FOR_A_FLOAT,
    UNSAMPLABLE_DATASETS,
    WRONG_JSON_TYPES,
    nested,
    unit_rows,
)


def small_config(out_dir, seed=11, **overrides):
    fields = dict(
        dataset=DatasetSpec(n_per_class=40, seed=seed),
        sampler=SamplerConfig(n_chains=8, n_rounds=2, steps_per_round=2,
                              seed=seed),
        epochs=8, warmup_epochs=3, t_filter=2,
        output_dir=str(out_dir), seed=seed)
    fields.update(overrides)
    return ExperimentConfig(**fields)


def leaf_paths(obj, prefix=()):
    """(dotted path, default) of every field under `obj` that is no section."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        path = prefix + (f.name,)
        if is_dataclass(value):
            yield from leaf_paths(value, path)
        else:
            yield ".".join(path), value


# valid non-default JSON values the generic rule in other_value cannot pick
SPECIAL_VALUES = {
    "dataset.kappa": [5.0, 10.0, 15.0],
    "dataset.means": [[0.0, 1.0] + [0.0] * 6, [0.0, 0.0, 1.0] + [0.0] * 5,
                      [1.0] + [0.0] * 7],
    "dataset.noise.mode": "asymmetric",
    "sampler.integrator_variant": "euler",
}


def other_value(path, default):
    if path in SPECIAL_VALUES:
        return SPECIAL_VALUES[path]
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2
    if isinstance(default, str):
        return default + "-other"
    raise AssertionError(f"no non-default value for {path}; add one to SPECIAL_VALUES")


def at(doc, path):
    for name in path.split("."):
        doc = doc[name]
    return doc


NON_DEFAULTS = [(path, other_value(path, default))
                for path, default in leaf_paths(ExperimentConfig())]
NON_DEFAULTS.append(("dataset.noise", None))
INTEGER_PATHS = [path for path, default in leaf_paths(ExperimentConfig())
                 if isinstance(default, int)]
SEED_PATHS = [path for path in INTEGER_PATHS if path.endswith("seed")]


class TestConfigPlumbing:
    def test_dict_round_trip(self, tmp_path):
        cfg = small_config(tmp_path / "a", seed=5)
        doc = config_to_dict(cfg)
        again = config_from_dict(json.loads(json.dumps(doc)))
        assert config_to_dict(again) == doc
        assert again == cfg

    def test_seeds_default_to_experiment_seed(self):
        cfg = config_from_dict({"seed": 7})
        assert cfg.dataset.seed == 7
        assert cfg.sampler.seed == 7

    def test_explicit_section_seed_survives(self):
        cfg = config_from_dict({"seed": 7, "dataset": {"seed": 3}})
        assert cfg.dataset.seed == 3
        assert cfg.sampler.seed == 7

    def test_seed_override_wins_everywhere(self):
        doc = {"seed": 7, "dataset": {"seed": 3}, "sampler": {"seed": 4}}
        cfg = config_from_dict(doc, seed_override=9)
        assert (cfg.seed, cfg.dataset.seed, cfg.sampler.seed) == (9, 9, 9)

    def test_out_override(self):
        cfg = config_from_dict({}, out_override="elsewhere")
        assert cfg.output_dir == "elsewhere"

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_warmup_must_precede_end(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, epochs=3, warmup_epochs=3)

    @pytest.mark.parametrize("value", NON_FINITE_VALUES)
    @pytest.mark.parametrize("section, name", NON_FINITE_FIELDS)
    def test_non_finite_value_rejected(self, section, name, value):
        doc = {name: value} if section is None else {section: {name: value}}
        with pytest.raises(ConfigError, match=name):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, name", NON_INTEGERS)
    def test_integer_field_rejects_non_integers(self, doc, name):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be"):
            config_from_dict(doc)

    @pytest.mark.parametrize("dataset, field", UNSAMPLABLE_DATASETS)
    def test_dataset_that_cannot_be_sampled_rejected(self, dataset, field):
        with pytest.raises(ConfigError, match=f"^dataset: {field} "):
            config_from_dict({"dataset": dataset})

    @pytest.mark.parametrize("doc, message", SECTION_RANGES)
    def test_section_check_starts_with_the_section_path(self, doc, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            config_from_dict(doc)

    def test_negative_seed_override_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0"):
            config_from_dict({}, seed_override=-1)

    def test_integer_fields_accept_json_integers(self):
        cfg = config_from_dict(json.loads(
            '{"seed": 0, "t_filter": 2, "sampler": {"n_chains": 3, "seed": 0},'
            ' "energy": {"k_neighbors": 1}, "dataset": {"n_per_class": 5}}'))
        assert (cfg.t_filter, cfg.sampler.n_chains, cfg.energy.k_neighbors,
                cfg.dataset.n_per_class, cfg.seed) == (2, 3, 1, 5, 0)


    @pytest.mark.parametrize("path, value", NON_DEFAULTS,
                             ids=[path for path, _ in NON_DEFAULTS])
    def test_every_field_round_trips(self, path, value):
        # driven by fields(): a field the loader or the dumper misses fails here
        cfg = config_from_dict(nested(path, value))
        doc = config_to_dict(cfg)
        assert at(doc, path) == value
        again = config_from_dict(json.loads(json.dumps(doc)))
        assert config_to_dict(again) == doc

    @pytest.mark.parametrize("doc, message", WRONG_JSON_TYPES)
    def test_value_of_the_wrong_json_type_rejected(self, doc, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, path", TOO_LARGE_FOR_A_FLOAT)
    def test_integer_too_large_for_a_float_rejected(self, doc, path):
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path} must fit in a float, got an integer too large for one") + "$"):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", TOO_LARGE_FOR_64_BITS)
    @pytest.mark.parametrize("path", COUNT_PATHS)
    def test_integer_too_large_for_64_bits_rejected(self, path, value):
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path} must fit in a 64-bit integer, got {value}") + "$"):
            config_from_dict(nested(path, value))

    def test_integer_fields_take_the_64_bit_extremes(self):
        # builds the config only: no run starts with these counts
        assert config_from_dict({"epochs": 2 ** 63 - 1}).epochs == 2 ** 63 - 1
        assert config_from_dict(nested("sampler.n_chains", 2 ** 63 - 1)).sampler.n_chains \
            == 2 ** 63 - 1
        # driven by fields(): an integer field missing from the table fails here
        assert [path for path in INTEGER_PATHS if not path.endswith("seed")] == COUNT_PATHS

    def test_seeds_are_not_bounded(self):
        cfg = config_from_dict({"seed": 10 ** 30, "dataset": {"seed": 10 ** 40},
                                "sampler": {"seed": 2 ** 64}})
        assert (cfg.seed, cfg.dataset.seed, cfg.sampler.seed) == (10 ** 30, 10 ** 40, 2 ** 64)
        assert sorted(SEED_PATHS) == ["dataset.seed", "sampler.seed", "seed"]
        assert config_from_dict({}, seed_override=10 ** 30).sampler.seed == 10 ** 30

    def test_large_integer_that_fits_a_float_accepted(self):
        assert config_from_dict({"learn_rate": 10 ** 300}).learn_rate == 10 ** 300

    def test_noise_null_omitted_or_partial(self):
        assert config_from_dict({"dataset": {"noise": None}}).dataset.noise is None
        assert config_from_dict({}).dataset.noise == NoiseSpec("symmetric", 0.4)
        partial = config_from_dict({"dataset": {"noise": {"mode": "asymmetric"}}})
        assert partial.dataset.noise == NoiseSpec("asymmetric", NoiseSpec().rate)


class TestRunExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        result = run_experiment(cfg)
        out = tmp_path / "run"
        for name in ("config.json", "dataset.jsonl", "partition.jsonl",
                     "metrics.csv", "metrics.jsonl", "bank.jsonl",
                     "outliers.jsonl"):
            assert (out / name).exists(), name

        resolved = json.loads((out / "config.json").read_text())
        assert resolved == config_to_dict(cfg)
        assert len((out / "dataset.jsonl").read_text().splitlines()) == 120

        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + cfg.epochs
        assert csv_lines[0].startswith("epoch,loss_x")
        jsonl = [json.loads(l) for l in
                 (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in jsonl] == list(range(cfg.epochs))

        # final-epoch outliers: one row per chain
        outlier_rows = (out / "outliers.jsonl").read_text().splitlines()
        assert len(outlier_rows) == cfg.sampler.n_chains
        assert len(result["records"]) == cfg.epochs

    def test_dataset_too_small_for_fpr95_rejected_before_any_output(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(out, dataset=DatasetSpec(n_per_class=5, seed=11))
        with pytest.raises(ConfigError, match=re.escape(
                "dataset.n_per_class * dataset.n_classes must be >= 20, the ID scores "
                "fpr95 needs, got 15")):
            run_experiment(cfg)
        assert not out.exists()
        # 20 samples are enough
        cfg = small_config(out, dataset=DatasetSpec(n_classes=4, n_per_class=5, seed=11))
        assert len(run_experiment(cfg)["records"]) == cfg.epochs

    def test_one_class_run_writes_strict_json(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(small_config(out, dataset=DatasetSpec(n_classes=1, noise=None,
                                                             n_per_class=40, seed=11)))

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        rows = [json.loads(line, parse_constant=reject)
                for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [row["inter"] for row in rows] == [None] * len(rows)
        csv_rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert {row.split(",")[10] for row in csv_rows} == {"nan"}

    def test_embeddings_stay_unit_norm(self, tmp_path):
        result = run_experiment(small_config(tmp_path / "run"))
        emb = result["state"].embeddings
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    def test_final_bank_is_a_snapshot_of_the_consensus(self, tmp_path):
        result = run_experiment(small_config(tmp_path / "run"))
        bank = result["state"].bank
        assert isinstance(bank, BankSnapshot)
        assert bank.snapshot() is bank
        assert len(bank) > 0
        lines = (tmp_path / "run" / "bank.jsonl").read_text().splitlines()
        assert len(lines) == len(bank)

    def test_bank_keeps_the_last_capacity_consensus_ids_per_class(self, tmp_path):
        # 500 clean-ish samples per class put more than DEFAULT_CAPACITY of
        # each class into the final consensus
        cfg = small_config(tmp_path / "run", seed=3, epochs=3, warmup_epochs=1,
                           dataset=DatasetSpec(n_per_class=500, seed=3))
        bank = run_experiment(cfg)["state"].bank
        n = cfg.dataset.n_classes * cfg.dataset.n_per_class
        out = tmp_path / "run"
        final = [json.loads(l) for l in
                 (out / "partition.jsonl").read_text().splitlines()[-n:]]
        consensus = np.array([row["in_consensus"] for row in final])
        posteriors = np.array([row["posterior"] for row in final])
        y_obs = np.array([json.loads(l)["observed"] for l in
                          (out / "dataset.jsonl").read_text().splitlines()])
        assert bank.classes == [0, 1, 2]
        for c in bank.classes:
            ids = np.flatnonzero(consensus & (y_obs == c))
            assert ids.size > DEFAULT_CAPACITY
            assert np.array_equal(bank.weights(c), posteriors[ids[-DEFAULT_CAPACITY:]])

    def test_single_post_warmup_epoch(self, tmp_path):
        cfg = small_config(tmp_path / "run", epochs=4, warmup_epochs=3)
        run_experiment(cfg)
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        post = [r for r in rows if int(r.split(",")[0]) >= cfg.warmup_epochs]
        assert len(post) == 1

    def test_metrics_deterministic_across_output_dirs(self, tmp_path):
        cfg_a = small_config(tmp_path / "a", seed=13)
        cfg_b = replace(cfg_a, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_epoch_seeds_are_spawned_as_each_epoch_starts(self, tmp_path, monkeypatch):
        spawned = []  # (entropy, parent key, child keys) of every spawn call

        class SpawnSpy(np.random.SeedSequence):
            def spawn(self, n_children):
                children = super().spawn(n_children)
                spawned.append((self.entropy, self.spawn_key,
                                [child.spawn_key for child in children]))
                return children

        monkeypatch.setattr(np.random, "SeedSequence", SpawnSpy)
        cfg = small_config(tmp_path / "run", seed=19)
        run_experiment(cfg)
        runs = [(parent, keys) for entropy, parent, keys in spawned if entropy == cfg.seed]
        assert ((), [(0,), (1,)]) in runs  # the OOD child and the epochs parent
        # one child at each epoch's start, keyed as spawn(cfg.epochs) keys them
        epochs = [keys for parent, keys in runs if parent == (1,)]
        assert epochs == [[(1, epoch)] for epoch in range(cfg.epochs)]
        # each epoch child spawns its augmentation and sampler streams
        assert [keys for parent, keys in runs if len(parent) == 2] == [
            [(1, epoch, 0), (1, epoch, 1)] for epoch in range(cfg.epochs)]

    def test_ablation_equals_forced_empty_outliers(self, tmp_path, monkeypatch):
        calls = []

        def empty_outliers(bank, protos, *args):
            calls.append(len(protos))
            return VirtualOutlierSet(np.empty((0, protos.shape[1])), np.empty(0))

        monkeypatch.setattr("hambr.runner.synthesize_outliers", empty_outliers)
        # the ablation synthesizes nothing: no term would use the outliers
        cfg_off = small_config(tmp_path / "off", seed=17)
        cfg_off = replace(cfg_off,
                          weights=replace(cfg_off.weights, lambda_hambr=0.0))
        run_experiment(cfg_off)
        assert calls == []
        assert (tmp_path / "off" / "outliers.jsonl").read_bytes() == b""

        # full weights, but outlier synthesis forced to return nothing:
        # the attract/repel term must contribute exactly zero gradient
        cfg_on = small_config(tmp_path / "on", seed=17)
        run_experiment(cfg_on)
        assert len(calls) > 0

        for name in ("metrics.csv", "metrics.jsonl", "partition.jsonl", "bank.jsonl"):
            off = (tmp_path / "off" / name).read_bytes()
            on = (tmp_path / "on" / name).read_bytes()
            assert off == on, name

    def test_failed_run_keeps_the_epochs_it_finished(self, tmp_path, monkeypatch):
        full, out = tmp_path / "full", tmp_path / "failed"
        full_cfg = small_config(full)
        run_experiment(full_cfg)
        shutil.copytree(full, out)  # an earlier run's files in the same directory
        cfg = replace(full_cfg, output_dir=str(out))

        real = synthesize_outliers
        finished = []  # epochs on disk when each synthesis starts

        def fail_second(*args):
            finished.append(len((out / "metrics.csv").read_text().splitlines()) - 1)
            if len(finished) == 2:
                raise RuntimeError("synthesis failed")
            return real(*args)

        monkeypatch.setattr("hambr.runner.synthesize_outliers", fail_second)
        with pytest.raises(RuntimeError, match="synthesis failed"):
            run_experiment(cfg)
        done = finished[-1]
        assert finished == [done - 1, done] and 0 < done < cfg.epochs

        assert json.loads((out / "config.json").read_text()) == config_to_dict(cfg)
        assert (out / "dataset.jsonl").read_bytes() == (full / "dataset.jsonl").read_bytes()
        n = cfg.dataset.n_classes * cfg.dataset.n_per_class
        for name, rows in (("partition.jsonl", done * n), ("metrics.csv", 1 + done),
                           ("metrics.jsonl", done)):
            text = (out / name).read_text()
            assert len(text.splitlines()) == rows, name
            assert (full / name).read_text().startswith(text), name
        assert not (out / "bank.jsonl").exists()
        assert not (out / "outliers.jsonl").exists()

    def test_peak_memory_does_not_grow_with_epochs(self, tmp_path):
        def peak(epochs):
            cfg = config_from_dict({
                "dataset": {"n_per_class": 400},
                "sampler": {"n_chains": 2, "n_rounds": 1},
                "epochs": epochs, "warmup_epochs": 1, "t_filter": 2,
                "output_dir": str(tmp_path / f"run-{epochs}")})
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # the first run in a process also fills lazily built caches
        assert peak(16) - peak(4) <= 0.5 * 2 ** 20

    def test_consensus_matches_flag_intersection(self, tmp_path):
        cfg = small_config(tmp_path / "run", seed=19, t_filter=3)
        run_experiment(cfg)
        lines = (tmp_path / "run" / "partition.jsonl").read_text().splitlines()
        n = cfg.dataset.n_classes * cfg.dataset.n_per_class
        assert len(lines) == cfg.epochs * n
        blocks = [[json.loads(l) for l in lines[e * n:(e + 1) * n]]
                  for e in range(cfg.epochs)]
        flags = np.array([[row["flag"] for row in block] for block in blocks])
        for e, block in enumerate(blocks):
            if e < cfg.t_filter - 1:
                want = np.zeros(n, dtype=bool)
            else:
                want = flags[e - cfg.t_filter + 1:e + 1].all(axis=0)
            got = np.array([row["in_consensus"] for row in block])
            assert np.array_equal(got, want), f"epoch {e}"


def test_fallback_bank_floors_exact_zero_posteriors():
    rng = np.random.default_rng(5)
    x = unit_rows(rng, 50, 8)
    labels = rng.integers(0, 3, 50)
    posteriors = rng.uniform(0.0, 1.0, 50)
    posteriors[::4] = 0.0
    for post in (posteriors, np.zeros(50)):
        snap = _fallback_bank(x, labels, post)
        weights = np.concatenate([snap.weights(c) for c in snap.classes])
        assert len(snap) == 50 and weights.min() == 1e-6
        assert np.count_nonzero(weights == 1e-6) == np.count_nonzero(post < 1e-6)


def test_fallback_bank_scores_like_a_per_sample_feature_bank():
    rng = np.random.default_rng(4)
    x = unit_rows(rng, 300, 8)
    labels = rng.integers(0, 3, 300)
    labels[labels == 2] = 3                     # class 2 absent
    posteriors = rng.uniform(0.0, 1.0, 300)
    posteriors[:20] = 0.0                       # floored at 1e-6
    bank = FeatureBank(capacity_per_class=300)
    for i in range(300):
        bank.add(BankEntry(UnitVector(x[i]), float(max(posteriors[i], 1e-6)),
                           int(labels[i])))
    snap = _fallback_bank(x, labels, posteriors)
    assert snap.classes == bank.snapshot().classes == [0, 1, 3]
    queries = unit_rows(rng, 300, 8)
    assert potential_batch(queries, snap).tobytes() == \
        potential_batch(queries, bank).tobytes()
