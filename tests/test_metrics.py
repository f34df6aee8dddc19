"""Evaluation tests: AUROC/FPR95, selection quality, spectrum, geometry."""

import json
import math

import numpy as np
import pytest

from hambr.metrics import (
    CSV_COLUMNS,
    EmptyInput,
    InsufficientId,
    MetricsRecord,
    NonFiniteScore,
    auroc,
    csv_header,
    fpr_at_95_tpr,
    geometry_metrics,
    selection_f1,
    singular_spectrum,
)
from hambr.sphere import normalize
from reference import reference_auroc, unit_rows


def e(i, d=3):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def rounded_scores(n_id, n_ood, decimals):
    """ID and OOD scores rounded to `decimals` (None: unrounded), which tie
    heavily within and across the two sets once rounded to one decimal or
    to integers."""
    rng = np.random.default_rng(n_id * 1000 + n_ood)
    a, b = rng.normal(0, 1, n_id), rng.normal(0.4, 1, n_ood)
    if decimals is not None:
        a, b = a.round(decimals), b.round(decimals)
    return pytest.param(a, b, id=f"{n_id}-{n_ood}-{decimals}")


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_full_tie(self):
        assert auroc([0.5], [0.5]) == 0.5

    def test_interleaved(self):
        # pairs (1,2),(1,4),(3,4) ordered; (3,2) not: 3 of 4
        assert auroc([1.0, 3.0], [2.0, 4.0]) == 0.75

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            auroc([], [0.5])
        with pytest.raises(EmptyInput):
            auroc([0.5], [])

    def test_complementarity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 40)
        b = rng.normal(0.5, 1, 30)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, 25)
        b = rng.normal(1, 2, 35)
        base = auroc(a, b)
        assert auroc(np.exp(a), np.exp(b)) == pytest.approx(base, abs=1e-12)
        assert auroc(3 * a + 7, 3 * b + 7) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("a,b", [
        *(rounded_scores(n_id, n_ood, decimals) for n_id, n_ood, decimals in [
            (1, 7, 1), (40, 3, 1), (257, 90, 1), (500, 1000, 0), (300, 200, None)]),
        # -0.0 ties 0.0; one value everywhere ties every pair
        pytest.param([0.0, -0.0, 0.0], [1.0, -0.0], id="signed-zeros"),
        pytest.param([1.0, -0.0], [0.0, -0.0, 0.0], id="signed-zeros-swapped"),
        pytest.param(np.full(4, 0.3), np.full(3, 0.3), id="all-equal")])
    def test_matches_pair_counting(self, a, b):
        assert abs(auroc(a, b) - reference_auroc(a, b)) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteScore):
            auroc([0.1, 0.2], [bad])
        with pytest.raises(NonFiniteScore):
            auroc([bad, 0.1], [0.2])


class TestFpr95:
    def test_perfect_separation(self):
        ids = np.linspace(0.0, 1.0, 40)
        assert fpr_at_95_tpr(ids, ids + 2.0) == 0.0

    def test_matched_distribution(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 1, 20_000)
        got = fpr_at_95_tpr(scores[:10_000], scores[10_000:])
        assert abs(got - 0.95) < 0.02

    def test_total_confusion(self):
        ids = np.linspace(1.0, 2.0, 30)
        assert fpr_at_95_tpr(ids, ids - 5.0) == 1.0

    def test_insufficient_id(self):
        with pytest.raises(InsufficientId):
            fpr_at_95_tpr(np.ones(19), np.ones(5))

    def test_shifting_ood_up_never_hurts(self):
        rng = np.random.default_rng(6)
        ids = rng.normal(0, 1, 60)
        ood = rng.normal(0.3, 1, 60)
        assert fpr_at_95_tpr(ids, ood + 0.7) <= fpr_at_95_tpr(ids, ood)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteScore):
            fpr_at_95_tpr([math.nan] + [0.1] * 30, [0.05, 0.2])
        with pytest.raises(NonFiniteScore):
            fpr_at_95_tpr([0.1] * 30, [0.05, math.inf])


class TestSelectionF1:
    def test_exact_selection(self):
        mask = np.array([False, True, False, True])  # True = noisy
        assert selection_f1([0, 2], mask) == (1.0, 1.0, 1.0)

    def test_empty_selection(self):
        assert selection_f1([], np.array([False, True])) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        # 16 clean (ids 0..15), 4 noisy; select 8 clean + 2 noisy
        mask = np.zeros(20, dtype=bool)
        mask[16:] = True
        selected = list(range(8)) + [16, 17]
        p, r, f1 = selection_f1(selected, mask)
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(8.0 / 13.0)  # harmonic mean of 0.8, 0.5


class TestSingularSpectrum:
    # the next two inputs have zero column means, so the centring the
    # spectrum always applies leaves them as they are
    def test_rank_one_uncentered(self):
        x = np.concatenate([np.tile(e(0), (5, 1)), np.tile(-e(0), (5, 1))])
        logs = singular_spectrum(x)
        assert logs[0] == pytest.approx(math.log(math.sqrt(10.0)), rel=1e-9)
        assert np.all(np.isneginf(logs[1:]))

    def test_orthonormal_rows_uncentered(self):
        # [I; -I] / sqrt(2) has orthonormal columns: every singular value is 1
        logs = singular_spectrum(np.concatenate([np.eye(5), -np.eye(5)]) / math.sqrt(2.0))
        assert np.allclose(logs, 0.0, atol=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 8))
        logs = singular_spectrum(x)
        want = np.log(np.linalg.svd(x - x.mean(axis=0), compute_uv=False))
        assert np.allclose(logs, want, atol=1e-8)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = singular_spectrum(x)
        b = singular_spectrum(x @ q)
        assert np.allclose(a, b, atol=1e-8)

    def test_descending_order(self):
        rng = np.random.default_rng(9)
        logs = singular_spectrum(rng.standard_normal((40, 5)))
        finite = logs[np.isfinite(logs)]
        assert np.all(np.diff(finite) <= 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            singular_spectrum(np.empty((0, 4)))


class TestGeometryMetrics:
    def prototypes(self, vecs):
        """Row c is class c's prototype."""
        return np.array(vecs, dtype=np.float64)

    def test_features_on_prototypes(self):
        protos = self.prototypes([e(0), e(1)])
        feats = np.array([e(0), e(0), e(1)])
        intra, inter = geometry_metrics(feats, np.array([0, 0, 1]), protos)
        assert intra == pytest.approx(1.0)
        assert inter == pytest.approx(np.pi / 2)

    def test_antipodal_prototypes(self):
        protos = self.prototypes([e(0), -e(0)])
        feats = np.array([e(0), -e(0)])
        _, inter = geometry_metrics(feats, np.array([0, 1]), protos)
        assert inter == pytest.approx(np.pi)

    def test_intra_averages_cosines(self):
        protos = self.prototypes([e(0), e(1)])
        third = normalize(np.array([1.0, 1.0, 0.0])).coords
        feats = np.array([e(0), third])
        intra, _ = geometry_metrics(feats, np.array([0, 0]), protos)
        assert intra == pytest.approx((1.0 + np.cos(np.pi / 4)) / 2)

    def test_single_class_has_no_margin(self):
        protos = self.prototypes([e(0)])
        intra, inter = geometry_metrics(np.array([e(0)]), np.array([0]), protos)
        assert math.isnan(inter)

    @pytest.mark.parametrize("d", [8, 32])
    def test_intra_bitwise_equal_to_row_loop(self, d):
        rng = np.random.default_rng(d)
        n_classes, n = 5, 3000
        protos = self.prototypes([normalize(rng.standard_normal(d)).coords
                                  for _ in range(n_classes)])
        feats = unit_rows(rng, n, d)
        labels = rng.integers(0, n_classes, size=n)
        intra, _ = geometry_metrics(feats, labels, protos)
        assert intra == float(np.mean([feats[i] @ protos[c]
                                       for i, c in enumerate(labels)]))

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
    def test_label_without_a_prototype_row(self, labels):
        protos = self.prototypes([e(0), e(1)])
        with pytest.raises(ValueError, match="no prototype for labels"):
            geometry_metrics(np.array([e(0), e(1)]), np.array(labels), protos)

    def test_prototypes_must_be_a_matrix_of_the_feature_dimension(self):
        with pytest.raises(ValueError, match="prototypes must be"):
            geometry_metrics(np.array([e(0)]), np.array([0]), e(0))
        with pytest.raises(ValueError, match="prototypes must be"):
            geometry_metrics(np.array([e(0)]), np.array([0]), np.eye(2))


class TestMetricsRecord:
    def record(self, **overrides):
        base = dict(epoch=3, loss_x=0.5, loss_u=0.1, loss_reg=0.0, loss_con=0.2,
                    loss_hambr=0.3, sel_precision=0.8, sel_recall=0.5,
                    sel_f1=8.0 / 13.0, intra=0.9, inter=1.4, auroc=0.95,
                    fpr95=0.2, log_singular_values=(1.0, 0.5, -np.inf))
        base.update(overrides)
        return MetricsRecord(**base)

    def test_inconsistent_f1_rejected(self):
        with pytest.raises(ValueError):
            self.record(sel_f1=0.9)

    @pytest.mark.parametrize("value", [-0.1, 1.5, float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["auroc", "fpr95"])
    def test_ood_score_range_checked(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\] or be NaN$"):
            self.record(**{name: value})

    @pytest.mark.parametrize("name", ["auroc", "fpr95"])
    def test_ood_score_may_be_nan(self, name):
        # an epoch with no labeled rows has no bank to score against
        for value in (0.0, 1.0, float("nan")):
            assert self.record(**{name: value}).csv_row().split(",")[
                CSV_COLUMNS.index(name)] == repr(value)

    def test_csv_row_matches_header(self):
        row = self.record().csv_row()
        assert len(row.split(",")) == len(CSV_COLUMNS)
        assert csv_header().split(",") == list(CSV_COLUMNS)

    def test_json_line_serializes_neg_inf_as_null(self):
        doc = json.loads(self.record().json_line())
        assert doc["log_singular_values"][-1] is None
        assert doc["epoch"] == 3

    def test_json_line_writes_every_non_finite_float_as_null(self):
        # a one-class run has no prototype pair, so its inter is nan
        rec = self.record(inter=float("nan"), loss_x=float("inf"), fpr95=float("nan"),
                          log_singular_values=(float("nan"), np.inf, 0.5))

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        doc = json.loads(rec.json_line(), parse_constant=reject)
        assert doc["inter"] is None and doc["loss_x"] is None and doc["fpr95"] is None
        assert doc["log_singular_values"] == [None, None, 0.5]
        assert doc["intra"] == 0.9
        assert rec.csv_row().split(",")[1] == "inf"
        assert rec.csv_row().split(",")[CSV_COLUMNS.index("inter")] == "nan"
