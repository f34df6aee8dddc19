"""Objective-term tests: warmup GCE, attract/repel term, SSL losses, prototypes."""

import math

import numpy as np
import pytest

from hambr.energy import BankEntry, FeatureBank
from hambr.losses import (
    DomainError,
    InsufficientBatch,
    LossTerms,
    LossWeights,
    ce_loss,
    compute_prototypes,
    consistency_mse,
    contrastive_grads,
    contrastive_loss,
    gce_loss,
    hambr_grad,
    hambr_loss,
    reg_loss,
    sharpen,
    total_loss,
)
from hambr.sphere import UnitVector, normalize

# frozen constants recomputed by tests/oracles/loss_constants.py
GCE_HALF_07 = 0.5491825618964884        # (1 - 0.5^0.7) / 0.7
HAMBR_ORTH = 0.31326168751822286        # log(1 + e^-1)
CE_UNIFORM_4 = 1.3862943611198906       # ln 4
SHARPEN_08_02 = (0.9411764705882353, 0.058823529411764705)
REG_ONE_CLASS = 9.668485737913262       # KL(uniform || (1, 1e-9)), C=2
CONTRASTIVE_ORTH = 0.31326168751822286
CONTRASTIVE_ANTIPODE = 0.1269280110429726  # log(1 + e^-2)


def e(i, d=3):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestLossWeights:
    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_hambr=-0.1)

    def test_zero_temperature(self):
        with pytest.raises(ValueError):
            LossWeights(tau_loss=0.0)

    def test_gce_q_range(self):
        with pytest.raises(ValueError):
            LossWeights(gce_q=1.5)


class TestGce:
    def test_perfect_prediction(self):
        for q in (0.1, 0.7, 1.0):
            assert gce_loss(1.0, q) == 0.0

    def test_q_one_is_one_minus_p(self):
        assert gce_loss(0.3, 1.0) == pytest.approx(0.7)

    def test_frozen_value(self):
        assert gce_loss(0.5, 0.7) == pytest.approx(GCE_HALF_07, rel=1e-12)

    def test_zero_probability(self):
        with pytest.raises(DomainError):
            gce_loss(0.0, 0.7)

    def test_bad_q(self):
        with pytest.raises(DomainError):
            gce_loss(0.5, 0.0)


class TestHambrLoss:
    def test_no_outliers(self):
        assert hambr_loss(e(0), e(0), np.empty((0, 3)), 0.1) == 0.0

    def test_orthogonal_outlier(self):
        got = hambr_loss(e(0), e(0), np.array([e(1)]), 1.0)
        assert got == pytest.approx(HAMBR_ORTH, rel=1e-12)

    def test_equal_similarities_give_log_m_plus_one(self):
        # x orthogonal to the prototype and to all five outliers: every
        # logit is 0, so the prototype holds a 1/(M+1) share.
        x = e(0, 8)
        outliers = np.array([e(i, 8) for i in range(2, 7)])
        got = hambr_loss(x, e(1, 8), outliers, 0.3)
        assert got == pytest.approx(math.log(6.0), rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = normalize(rng.standard_normal(8)).coords
            proto = normalize(rng.standard_normal(8)).coords
            out = np.array([normalize(rng.standard_normal(8)).coords
                            for _ in range(5)])
            assert hambr_loss(x, proto, out, 0.5) >= 0.0

    def test_monotone_in_prototype_similarity(self):
        # slide the prototype away from x while the outlier stays orthogonal
        out = np.array([e(2)])
        losses = []
        for t in np.linspace(0.0, np.pi, 60):
            proto = np.array([np.cos(t), np.sin(t), 0.0])
            losses.append(hambr_loss(e(0), proto, out, 0.5))
        assert np.all(np.diff(losses) >= -1e-12)

    def test_accepts_unit_vector_wrappers(self):
        got = hambr_loss(UnitVector(e(0)), UnitVector(e(0)), np.array([e(1)]), 1.0)
        assert got == pytest.approx(HAMBR_ORTH, rel=1e-12)

    def test_bad_tau(self):
        with pytest.raises(DomainError):
            hambr_loss(e(0), e(0), np.array([e(1)]), 0.0)


class TestHambrGrad:
    def test_no_outliers_zero(self):
        assert np.all(hambr_grad(e(0), e(0), np.empty((0, 3)), 0.1) == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(100):
            x = normalize(rng.standard_normal(8)).coords
            proto = normalize(rng.standard_normal(8)).coords
            out = np.array([normalize(rng.standard_normal(8)).coords
                            for _ in range(5)])
            tau = float(rng.uniform(0.2, 1.0))
            grad = hambr_grad(x, proto, out, tau)
            fd = np.empty(8)
            for i in range(8):
                step = h * e(i, 8)
                fd[i] = (hambr_loss(x + step, proto, out, tau)
                         - hambr_loss(x - step, proto, out, tau)) / (2 * h)
            assert np.linalg.norm(grad) > 1e-4
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
            assert rel < 1e-5

    def test_saturation_kills_gradient(self):
        # x on the prototype, outlier far below in similarity, tiny tau
        grad = hambr_grad(e(0), e(0), np.array([e(1)]), 0.01)
        assert np.linalg.norm(grad) < 1e-30


class TestCe:
    def test_one_hot_match(self):
        pred = np.array([1.0 - 1e-9, 0.5e-9, 0.5e-9])
        assert ce_loss(pred, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-8)

    def test_uniform_over_four(self):
        pred = np.full(4, 0.25)
        got = ce_loss(pred, np.array([0.0, 1.0, 0.0, 0.0]))
        assert got == pytest.approx(CE_UNIFORM_4, rel=1e-12)

    def test_soft_label_self_gives_entropy(self):
        p = np.array([0.2, 0.3, 0.5])
        assert ce_loss(p, p) == pytest.approx(-np.sum(p * np.log(p)), rel=1e-12)

    def test_zero_prediction_on_support(self):
        with pytest.raises(DomainError):
            ce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_zero_prediction_off_support_is_fine(self):
        assert ce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0


class TestConsistencyMse:
    def test_identical(self):
        p = np.array([0.4, 0.6])
        assert consistency_mse(p, p) == 0.0

    def test_opposite_one_hots(self):
        assert consistency_mse(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_half_vs_one_hot(self):
        assert consistency_mse(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5


class TestSharpen:
    def test_temperature_one_identity(self):
        q = np.array([0.1, 0.6, 0.3])
        assert np.allclose(sharpen(q, 1.0), q)

    def test_uniform_fixed_point(self):
        q = np.full(5, 0.2)
        for t in (0.25, 0.5, 2.0):
            assert np.allclose(sharpen(q, t), q)

    def test_frozen_value(self):
        got = sharpen(np.array([0.8, 0.2]), 0.5)
        assert np.allclose(got, SHARPEN_08_02, rtol=1e-12)

    def test_exponents_multiply(self):
        q = np.array([0.5, 0.3, 0.2])
        twice = sharpen(sharpen(q, 0.5), 0.4)
        assert np.allclose(twice, sharpen(q, 0.2), rtol=1e-12)

    def test_bad_temperature(self):
        with pytest.raises(DomainError):
            sharpen(np.array([1.0, 0.0]), 0.0)


class TestRegLoss:
    def test_uniform_mean_is_zero(self):
        assert reg_loss([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.0, abs=1e-12)
        assert reg_loss([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_batch_frozen_value(self):
        got = reg_loss([[1.0, 0.0], [1.0, 0.0]])
        assert got == pytest.approx(REG_ONE_CLASS, rel=1e-9)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(8)
        preds = rng.dirichlet(np.ones(4), size=16)
        perm = rng.permutation(4)
        assert reg_loss(preds[:, perm]) == pytest.approx(reg_loss(preds), rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            reg_loss(np.empty((0, 3)))


class TestContrastiveLoss:
    def test_orthogonal_pair_frozen(self):
        views = np.array([e(0), e(1)])
        got = contrastive_loss(views, views.copy(), 1.0)
        assert got == pytest.approx(CONTRASTIVE_ORTH, rel=1e-12)

    def test_antipodal_negative_frozen(self):
        views = np.array([e(0), -e(0)])
        got = contrastive_loss(views, views.copy(), 1.0)
        assert got == pytest.approx(CONTRASTIVE_ANTIPODE, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        v1 = np.array([normalize(rng.standard_normal(5)).coords for _ in range(6)])
        v2 = np.array([normalize(rng.standard_normal(5)).coords for _ in range(6)])
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = contrastive_loss(v1, v2, 0.5)
        assert contrastive_loss(v1 @ q, v2 @ q, 0.5) == pytest.approx(base, rel=1e-10)

    def test_both_mode_adds_negatives(self):
        rng = np.random.default_rng(29)
        v1 = np.array([normalize(rng.standard_normal(4)).coords for _ in range(5)])
        v2 = np.array([normalize(rng.standard_normal(4)).coords for _ in range(5)])
        assert contrastive_loss(v1, v2, 0.5, "both") >= contrastive_loss(v1, v2, 0.5)

    def test_single_pair_rejected(self):
        with pytest.raises(InsufficientBatch):
            contrastive_loss(np.array([e(0)]), np.array([e(0)]), 1.0)

    def test_bad_negatives_mode(self):
        views = np.array([e(0), e(1)])
        with pytest.raises(ValueError):
            contrastive_loss(views, views, 1.0, "neither")


class TestContrastiveGrads:
    @pytest.mark.parametrize("negatives", ["first", "both"])
    def test_matches_finite_differences(self, negatives):
        rng = np.random.default_rng(31)
        n, d, tau, h = 4, 5, 0.7, 1e-6
        v1 = np.array([normalize(rng.standard_normal(d)).coords for _ in range(n)])
        v2 = np.array([normalize(rng.standard_normal(d)).coords for _ in range(n)])
        loss, g1, g2 = contrastive_grads(v1, v2, tau, negatives)

        def loss_sum(a, b):
            return n * contrastive_loss(a, b, tau, negatives)

        for grad, views, other, order in ((g1, v1, v2, "first"),
                                          (g2, v2, v1, "second")):
            fd = np.empty_like(views)
            for i in range(n):
                for j in range(d):
                    plus, minus = views.copy(), views.copy()
                    plus[i, j] += h
                    minus[i, j] -= h
                    if order == "first":
                        fd[i, j] = (loss_sum(plus, other) - loss_sum(minus, other)) / (2 * h)
                    else:
                        fd[i, j] = (loss_sum(other, plus) - loss_sum(other, minus)) / (2 * h)
            assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-6


def reference_contrastive_grads(v1, v2, tau, negatives):
    """The concatenate-then-softmax formulas contrastive_grads replaced."""
    n = v1.shape[0]
    pos = np.einsum("ij,ij->i", v1, v2) / tau
    a = (v1 @ v1.T) / tau
    np.fill_diagonal(a, -np.inf)
    blocks = [pos[:, None], a]
    if negatives == "both":
        b = (v1 @ v2.T) / tau
        np.fill_diagonal(b, -np.inf)
        blocks.append(b)
    logits = np.concatenate(blocks, axis=1)
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    denom = ex.sum(axis=1)
    p = ex / denom[:, None]
    loss = float((np.log(denom) + m[:, 0] - pos).mean())
    p_pos, p_a = p[:, 0], p[:, 1:n + 1]
    g1 = ((p_pos - 1.0)[:, None] * v2 + p_a @ v1 + p_a.T @ v1) / tau
    g2 = (p_pos - 1.0)[:, None] * v1 / tau
    if negatives == "both":
        p_b = p[:, n + 1:]
        g1 += p_b @ v2 / tau
        g2 += p_b.T @ v1 / tau
    return loss, g1, g2


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1)[:, None]


class TestContrastiveKernel:
    @pytest.mark.parametrize("negatives", ["first", "both"])
    @pytest.mark.parametrize("n,d", [(2, 3), (7, 8), (64, 8), (301, 32)])
    def test_bitwise_equal_to_reference(self, negatives, n, d):
        rng = np.random.default_rng(n)
        v1, v2 = unit_rows(rng, n, d), unit_rows(rng, n, d)
        loss, g1, g2 = contrastive_grads(v1, v2, 0.5, negatives)
        ref_loss, ref_g1, ref_g2 = reference_contrastive_grads(v1, v2, 0.5, negatives)
        assert loss == ref_loss
        assert np.array_equal(g1, ref_g1)
        assert np.array_equal(g2, ref_g2)

    def test_peak_memory_is_one_logit_buffer(self):
        # the logits, their exponentials and the softmax share one (n, 1 + n)
        # buffer; the concatenating formulas held about four of them at once
        import tracemalloc

        n = 1000
        rng = np.random.default_rng(3)
        v1, v2 = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
        tracemalloc.start()
        try:
            contrastive_grads(v1, v2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * (n + 1)


class TestTotalLoss:
    def test_all_lambdas_zero(self):
        terms = LossTerms(x=1.3, u=2.0, reg=0.7, con=0.5, hambr=0.9)
        weights = LossWeights(lambda_u=0, lambda_reg=0, lambda_c=0,
                              lambda_hambr=0)
        assert total_loss(terms, weights) == 1.3

    @pytest.mark.parametrize("name", ["lambda_u", "lambda_reg", "lambda_c",
                                      "lambda_hambr"])
    def test_affine_in_each_lambda(self, name):
        terms = LossTerms(x=0.4, u=1.1, reg=0.3, con=0.8, hambr=0.6)
        base = total_loss(terms, LossWeights(**{name: 0.0}))
        one = total_loss(terms, LossWeights(**{name: 0.7}))
        two = total_loss(terms, LossWeights(**{name: 1.4}))
        assert two - base == pytest.approx(2 * (one - base), rel=1e-12)


class TestComputePrototypes:
    def test_two_entry_midpoint(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(0)), 1.0, 0))
        bank.add(BankEntry(UnitVector(e(1)), 1.0, 0))
        protos = compute_prototypes(bank)
        want = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.allclose(protos.directions[0].coords, want)
        assert protos.support[0] == 2

    def test_single_entry_is_itself(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(2)), 0.8, 1))
        protos = compute_prototypes(bank)
        assert np.allclose(protos.directions[1].coords, e(2))

    def test_zero_weight_entry_excluded(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(0)), 1.0, 0))
        bank.add(BankEntry(UnitVector(e(1)), 0.0, 0))
        protos = compute_prototypes(bank)
        assert np.allclose(protos.directions[0].coords, e(0))
        assert protos.support[0] == 1

    def test_only_populated_classes_present(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(1)), 0.5, 3))
        protos = compute_prototypes(bank)
        assert protos.classes() == [3]
        assert len(protos) == 1
        assert protos.matrix().shape == (1, 3)
