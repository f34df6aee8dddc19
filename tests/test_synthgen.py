"""Synthetic data tests: vMF sampling, label-noise injection, OOD clusters."""

import io
import json

import numpy as np
import pytest

from hambr.synthgen import (
    DatasetSpec,
    LabeledPoint,
    NoiseSpec,
    PlacementFailure,
    dump_dataset,
    inject_noise,
    load_dataset,
    make_dataset,
    make_ood_set,
    sample_vmf,
)
from hambr.sphere import UnitVector


def e(i, d=8):
    v = np.zeros(d)
    v[i] = 1.0
    return UnitVector(v)


class TestSampleVmf:
    def test_kappa_zero_is_uniform(self):
        rng = np.random.default_rng(11)
        draws = sample_vmf(e(0, 3), 0.0, 10_000, rng)
        # 3-sigma bound on the resultant of uniform draws: ~sqrt(d/n)
        assert np.linalg.norm(draws.mean(axis=0)) < 0.03

    def test_concentrated_mean_direction(self):
        rng = np.random.default_rng(12)
        draws = sample_vmf(e(0, 3), 200.0, 4_000, rng)
        mean = draws.mean(axis=0)
        mean /= np.linalg.norm(mean)
        assert np.arccos(np.clip(mean[0], -1, 1)) < 0.05

    def test_delta_limit(self):
        rng = np.random.default_rng(13)
        draws = sample_vmf(e(1, 5), 1e6, 500, rng)
        angles = np.arccos(np.clip(draws[:, 1], -1, 1))
        assert np.all(angles < 0.01)

    def test_draws_are_unit_norm(self):
        rng = np.random.default_rng(14)
        for kappa in (0.0, 5.0, 300.0):
            draws = sample_vmf(e(2, 6), kappa, 200, rng)
            assert draws.shape == (200, 6)
            assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-9)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            sample_vmf(e(0, 3), -1.0, 10, np.random.default_rng(0))


class TestInjectNoise:
    def test_rate_zero_unchanged(self):
        labels = np.array([0, 1, 2, 1, 0])
        out = inject_noise(labels, NoiseSpec("symmetric", 0.0), 3,
                           np.random.default_rng(0))
        assert np.array_equal(out, labels)

    def test_symmetric_never_self_flips(self):
        rng = np.random.default_rng(21)
        labels = np.full(5_000, 1)
        out = inject_noise(labels, NoiseSpec("symmetric", 0.9), 4, rng)
        flipped = out[out != 1]
        assert len(flipped) > 0
        assert set(np.unique(out)) <= {0, 1, 2, 3}
        assert np.all(flipped != 1)

    def test_symmetric_flip_fraction(self):
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 3, size=10_000)
        out = inject_noise(labels, NoiseSpec("symmetric", 0.4), 3, rng)
        frac = np.mean(out != labels)
        assert abs(frac - 0.4) < 0.015  # binomial 3-sigma

    def test_asymmetric_full_rate_is_circular(self):
        labels = np.array([0, 1, 2])
        out = inject_noise(labels, NoiseSpec("asymmetric", 1.0), 3,
                           np.random.default_rng(0))
        assert list(out) == [1, 2, 0]

    def test_asymmetric_partial_only_next_class(self):
        rng = np.random.default_rng(23)
        labels = np.full(2_000, 2)
        out = inject_noise(labels, NoiseSpec("asymmetric", 0.5), 3, rng)
        assert set(np.unique(out)) <= {0, 2}

    def test_rate_above_one_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", 1.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("salty", 0.1)


class TestDatasetSpec:
    def test_duplicate_means_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(dim=3, n_classes=2, means=(e(0, 3), e(0, 3)))

    def test_mean_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DatasetSpec(dim=4, n_classes=2, means=(e(0, 3), e(1, 3)))

    def test_default_means_orthogonal(self):
        spec = DatasetSpec()
        mat = np.array([m.coords for m in spec.class_means()])
        assert np.allclose(mat @ mat.T, np.eye(3), atol=1e-12)

    def test_too_many_classes_for_dim(self):
        with pytest.raises(ValueError):
            DatasetSpec(dim=2, n_classes=3)


class TestMakeDataset:
    def test_shapes_and_flags(self):
        spec = DatasetSpec(n_per_class=50, seed=4)
        points = make_dataset(spec)
        assert len(points) == 150
        for p in points:
            assert isinstance(p, LabeledPoint)
            assert p.is_noisy == (p.true_label != p.observed_label)
            assert np.isclose(np.linalg.norm(p.feature.coords), 1.0, atol=1e-9)

    def test_pure_function_of_spec(self):
        spec = DatasetSpec(n_per_class=30, seed=9)
        a = make_dataset(spec)
        b = make_dataset(spec)
        assert all(np.array_equal(x.feature.coords, y.feature.coords)
                   and x.observed_label == y.observed_label
                   for x, y in zip(a, b))

    def test_seed_changes_draws(self):
        a = make_dataset(DatasetSpec(n_per_class=30, seed=1))
        b = make_dataset(DatasetSpec(n_per_class=30, seed=2))
        assert not np.allclose(a[0].feature.coords, b[0].feature.coords)

    def test_noise_rate_realized(self):
        spec = DatasetSpec(n_per_class=400,
                           noise=NoiseSpec("symmetric", 0.4), seed=3)
        points = make_dataset(spec)
        frac = np.mean([p.is_noisy for p in points])
        assert abs(frac - 0.4) < 0.05


class TestMakeOodSet:
    def test_orthogonal_frame_placement(self):
        spec = DatasetSpec()  # d=8, three orthogonal class means
        feats, means = make_ood_set(spec, np.random.default_rng(6))
        assert feats.shape[1] == 8
        id_means = np.array([m.coords for m in spec.class_means()])
        for mu in means:
            cosines = id_means @ mu
            assert np.all(np.arccos(np.clip(cosines, -1, 1)) >= np.pi / 3 - 1e-12)

    def test_theta_zero_accepts_anything(self):
        spec = DatasetSpec(dim=3, n_classes=3)
        feats, _ = make_ood_set(spec, np.random.default_rng(7), theta_min=0.0)
        assert len(feats) == 300

    def test_deterministic_given_seed(self):
        spec = DatasetSpec()
        a, _ = make_ood_set(spec, np.random.default_rng(42))
        b, _ = make_ood_set(spec, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_placement_failure(self):
        # on the circle, means at the 4 cardinal points leave no direction
        # more than ~pi/4 from all of them
        means = tuple(UnitVector(np.array([np.cos(t), np.sin(t)]))
                      for t in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2))
        spec = DatasetSpec(dim=2, n_classes=4, means=means)
        with pytest.raises(PlacementFailure):
            make_ood_set(spec, np.random.default_rng(8), theta_min=1.5)


class TestSerialization:
    def test_round_trip(self):
        points = make_dataset(DatasetSpec(n_per_class=10, seed=5))
        buf = io.StringIO()
        dump_dataset(points, buf)
        buf.seek(0)
        loaded = load_dataset(buf)
        assert len(loaded) == len(points)
        for x, y in zip(points, loaded):
            assert np.allclose(x.feature.coords, y.feature.coords)
            assert (x.true_label, x.observed_label) == (y.true_label, y.observed_label)

    def test_line_schema(self):
        points = make_dataset(DatasetSpec(n_per_class=2, seed=5))
        buf = io.StringIO()
        dump_dataset(points, buf)
        row = json.loads(buf.getvalue().splitlines()[0])
        assert set(row) == {"feature", "true", "observed"}

    def test_bytes_match_per_row_json_dumps(self):
        points = make_dataset(DatasetSpec(n_per_class=30, seed=6,
                                          noise=NoiseSpec(rate=0.3)))
        coords = np.zeros(8)
        coords[:3] = -0.0, 1.0, 1e-300
        points.append(LabeledPoint(UnitVector(coords), 1, 2))
        buf = io.StringIO()
        dump_dataset(points, buf)
        expected = "".join(
            json.dumps({"feature": [float(x) for x in p.feature.coords],
                        "true": int(p.true_label),
                        "observed": int(p.observed_label)}) + "\n"
            for p in points)
        assert buf.getvalue() == expected

    def test_empty(self):
        buf = io.StringIO()
        dump_dataset([], buf)
        assert buf.getvalue() == ""
