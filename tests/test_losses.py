"""Objective tests: each batched term, the composed objective, prototypes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hambr.energy import BankEntry, BankSnapshot, FeatureBank
from hambr import losses
from hambr.losses import (
    DomainError,
    InsufficientBatch,
    LossTerms,
    LossWeights,
    PROB_CLAMP,
    ce_term,
    compute_prototypes,
    consistency_term,
    contrastive_grads,
    gce_term,
    hambr_term,
    objective,
    reg_term,
    sample_losses,
)
from hambr.sphere import UnitVector, normalize
from reference import reference_contrastive_grads, unit_rows

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


def one_row(pred):
    """A 1-row classifier state: preds, mean direction, identity prototypes."""
    preds = np.array([pred], dtype=np.float64)
    p_cls = np.eye(preds.shape[1])
    return preds, preds @ p_cls, p_cls


class TestSampleLosses:
    def test_warmup_is_gce_after_is_ce(self):
        preds = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        labels = np.array([0, 2])
        gce = sample_losses(preds, labels, True, 0.7)
        assert gce[0] == pytest.approx(GCE_HALF_07, rel=1e-12)
        assert np.array_equal(sample_losses(preds, labels, False, 0.7),
                              -np.log(np.array([0.5, 0.3])))


class TestGce:
    def test_perfect_prediction(self):
        preds, mean_dir, p_cls = one_row([1.0, 0.0])
        for q in (0.1, 0.7, 1.0):
            loss, grad = gce_term(preds, mean_dir, p_cls, np.array([0]), q, 0.1)
            assert loss == 0.0
            assert np.all(grad == 0.0)

    def test_q_one_is_one_minus_p(self):
        preds, mean_dir, p_cls = one_row([0.3, 0.7])
        loss, _ = gce_term(preds, mean_dir, p_cls, np.array([0]), 1.0, 0.1)
        assert loss == pytest.approx(0.7)

    def test_frozen_value(self):
        preds, mean_dir, p_cls = one_row([0.5, 0.5])
        loss, _ = gce_term(preds, mean_dir, p_cls, np.array([1]), 0.7, 0.1)
        assert loss == pytest.approx(GCE_HALF_07, rel=1e-12)

def hambr_row(x, proto, outliers, tau):
    """hambr_term as a 1-row call: (loss, gradient vector)."""
    loss, grad = hambr_term(np.array([x]), np.array([proto]),
                            np.asarray(outliers, dtype=np.float64), tau)
    return loss, grad[0]


class TestHambrLoss:
    def test_no_outliers(self):
        assert hambr_row(e(0), e(0), np.empty((0, 3)), 0.1)[0] == 0.0

    def test_orthogonal_outlier(self):
        got, _ = hambr_row(e(0), e(0), np.array([e(1)]), 1.0)
        assert got == pytest.approx(HAMBR_ORTH, rel=1e-12)

    def test_equal_similarities_give_log_m_plus_one(self):
        # x orthogonal to the prototype and to all five outliers: every
        # logit is 0, so the prototype holds a 1/(M+1) share.
        x = e(0, 8)
        outliers = np.array([e(i, 8) for i in range(2, 7)])
        got, _ = hambr_row(x, e(1, 8), outliers, 0.3)
        assert got == pytest.approx(math.log(6.0), rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = normalize(rng.standard_normal(8)).coords
            proto = normalize(rng.standard_normal(8)).coords
            out = np.array([normalize(rng.standard_normal(8)).coords
                            for _ in range(5)])
            assert hambr_row(x, proto, out, 0.5)[0] >= 0.0

    def test_monotone_in_prototype_similarity(self):
        # slide the prototype away from x while the outlier stays orthogonal
        out = np.array([e(2)])
        losses = []
        for t in np.linspace(0.0, np.pi, 60):
            proto = np.array([np.cos(t), np.sin(t), 0.0])
            losses.append(hambr_row(e(0), proto, out, 0.5)[0])
        assert np.all(np.diff(losses) >= -1e-12)

    def test_rows_are_independent(self):
        # a batch is its 1-row calls stacked: the gradient of the summed rows
        rng = np.random.default_rng(19)
        x, mu, out = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8), unit_rows(rng, 5, 8)
        loss, grad = hambr_term(x, mu, out, 0.3, weight=0.5)
        rows = [hambr_row(x[i], mu[i], out, 0.3) for i in range(6)]
        assert loss == pytest.approx(np.mean([r[0] for r in rows]), rel=1e-12)
        assert np.allclose(grad, 0.5 * np.array([r[1] for r in rows]),
                           rtol=1e-12, atol=1e-15)


class TestHambrGrad:
    def test_no_outliers_zero(self):
        assert np.all(hambr_row(e(0), e(0), np.empty((0, 3)), 0.1)[1] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(100):
            x = normalize(rng.standard_normal(8)).coords
            proto = normalize(rng.standard_normal(8)).coords
            out = np.array([normalize(rng.standard_normal(8)).coords
                            for _ in range(5)])
            tau = float(rng.uniform(0.2, 1.0))
            grad = hambr_row(x, proto, out, tau)[1]
            fd = np.empty(8)
            for i in range(8):
                step = h * e(i, 8)
                fd[i] = (hambr_row(x + step, proto, out, tau)[0]
                         - hambr_row(x - step, proto, out, tau)[0]) / (2 * h)
            assert np.linalg.norm(grad) > 1e-4
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
            assert rel < 1e-5

    def test_saturation_kills_gradient(self):
        # x on the prototype, outlier far below in similarity, tiny tau
        grad = hambr_row(e(0), e(0), np.array([e(1)]), 0.01)[1]
        assert np.linalg.norm(grad) < 1e-30


def ce_row(pred, target):
    preds, _, p_cls = one_row(pred)
    return ce_term(preds, p_cls, np.array([target], dtype=np.float64), 1.0)[0]


class TestCe:
    def test_one_hot_match(self):
        pred = [1.0 - 1e-9, 0.5e-9, 0.5e-9]
        assert ce_row(pred, [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-8)

    def test_uniform_over_four(self):
        got = ce_row(np.full(4, 0.25), [0.0, 1.0, 0.0, 0.0])
        assert got == pytest.approx(CE_UNIFORM_4, rel=1e-12)

    def test_soft_label_self_gives_entropy(self):
        p = np.array([0.2, 0.3, 0.5])
        assert ce_row(p, p) == pytest.approx(-np.sum(p * np.log(p)), rel=1e-12)


def consistency_row(target, pred):
    preds, mean_dir, p_cls = one_row(pred)
    return consistency_term(preds, mean_dir, p_cls,
                            np.array([target], dtype=np.float64), 0.1)[0]


class TestConsistencyMse:
    def test_identical(self):
        p = [0.4, 0.6]
        assert consistency_row(p, p) == 0.0

    def test_opposite_one_hots(self):
        assert consistency_row([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_half_vs_one_hot(self):
        assert consistency_row([0.5, 0.5], [1.0, 0.0]) == 0.5


def unlabeled_u(pred, sharpen_T):
    """terms.u of objective on one unlabeled row: |sharpen(pred) - pred|^2."""
    preds = np.array([pred], dtype=np.float64)
    p_cls = np.eye(preds.shape[1])
    terms, _ = objective(p_cls[:1], preds, p_cls, np.array([0]),
                         LossWeights(sharpen_T=sharpen_T), 0.1, warmup=False,
                         posteriors=np.array([0.5]), labeled=np.array([False]),
                         prototypes=p_cls, outliers=np.empty((0, preds.shape[1])),
                         aug_sigma=SIGMA, rng=np.random.default_rng(0))
    return terms.u


class TestSharpen:
    def test_temperature_one_identity(self):
        assert unlabeled_u([0.1, 0.6, 0.3], 1.0) == pytest.approx(0.0, abs=1e-30)

    def test_uniform_fixed_point(self):
        for t in (0.25, 0.5, 2.0):
            assert unlabeled_u(np.full(5, 0.2), t) == pytest.approx(0.0, abs=1e-30)

    def test_frozen_value(self):
        want = (SHARPEN_08_02[0] - 0.8) ** 2 + (SHARPEN_08_02[1] - 0.2) ** 2
        assert unlabeled_u([0.8, 0.2], 0.5) == pytest.approx(want, rel=1e-12)

    def test_exponents_multiply(self):
        # sharpening twice at T=0.5 then T=0.4 is sharpening once at T=0.2
        q = np.array([0.5, 0.3, 0.2])
        once = q ** 2.0 / np.sum(q ** 2.0)
        twice = q ** 5.0 / np.sum(q ** 5.0)
        want = np.sum((twice - once) ** 2)
        assert unlabeled_u(once, 0.4) == pytest.approx(want, rel=1e-12)

def reg_value(preds):
    preds = np.asarray(preds, dtype=np.float64)
    p_cls = np.eye(preds.shape[1])
    return reg_term(preds, preds @ p_cls, p_cls, 0.1)[0]


class TestRegLoss:
    def test_uniform_mean_is_zero(self):
        assert reg_value([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.0, abs=1e-12)
        assert reg_value([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_batch_frozen_value(self):
        got = reg_value([[1.0, 0.0], [1.0, 0.0]])
        assert got == pytest.approx(REG_ONE_CLASS, rel=1e-9)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(8)
        preds = rng.dirichlet(np.ones(4), size=16)
        perm = rng.permutation(4)
        assert reg_value(preds[:, perm]) == pytest.approx(reg_value(preds), rel=1e-12)


def contrastive_loss(view1, view2, tau):
    return contrastive_grads(view1, view2, tau)[0]


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

    def test_single_pair_rejected(self):
        with pytest.raises(InsufficientBatch):
            contrastive_loss(np.array([e(0)]), np.array([e(0)]), 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_bad_tau(self, tau):
        views = np.array([e(0), e(1)])
        with pytest.raises(DomainError, match="tau must be positive and finite"):
            contrastive_grads(views, views.copy(), tau)


class TestContrastiveGrads:
    # "first": each anchor's negatives are the other first views
    @pytest.mark.parametrize("negatives", ["first"])
    def test_matches_finite_differences(self, negatives):
        rng = np.random.default_rng(31)
        n, d, tau, h = 4, 5, 0.7, 1e-6
        v1 = np.array([normalize(rng.standard_normal(d)).coords for _ in range(n)])
        v2 = np.array([normalize(rng.standard_normal(d)).coords for _ in range(n)])
        loss, g1, g2 = contrastive_grads(v1, v2, tau)

        def loss_sum(a, b):
            return n * contrastive_loss(a, b, tau)

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


class TestContrastiveKernel:
    # up to about 250 anchors the kernel takes one row block; 301 anchors take
    # two and 1000 take sixteen, the last one partial
    @pytest.mark.parametrize("negatives", ["first"])  # the other first views
    @pytest.mark.parametrize("n,d", [(2, 3), (7, 8), (64, 8)])
    def test_bitwise_equal_to_reference(self, negatives, n, d):
        rng = np.random.default_rng(n)
        v1, v2 = unit_rows(rng, n, d), unit_rows(rng, n, d)
        loss, g1, g2 = contrastive_grads(v1, v2, 0.5)
        ref_loss, ref_g1, ref_g2 = reference_contrastive_grads(v1, v2, 0.5)
        assert loss == ref_loss
        assert np.array_equal(g1, ref_g1)
        assert np.array_equal(g2, ref_g2)

    @pytest.mark.parametrize("n,d", [(301, 32), (1000, 8)])
    def test_row_local_terms_bitwise_across_blocks(self, n, d):
        # the loss and the view2 gradient are row-local; the view1 gradient's
        # column term is summed block by block, so it moves at the ulp level
        rng = np.random.default_rng(n)
        v1, v2 = unit_rows(rng, n, d), unit_rows(rng, n, d)
        loss, g1, g2 = contrastive_grads(v1, v2, 0.5)
        ref_loss, ref_g1, ref_g2 = reference_contrastive_grads(v1, v2, 0.5)
        assert loss == ref_loss
        assert np.array_equal(g2, ref_g2)
        assert np.max(np.abs(g1 - ref_g1)) <= 1e-13 * np.max(np.abs(ref_g1))

    def test_peak_memory_does_not_grow_with_anchors(self):
        # the logits and their softmax live in one row block of about 2^16
        # elements; a full (n, 1 + n) buffer would be 8 MB at n = 1000
        import tracemalloc

        rng = np.random.default_rng(3)
        peaks = []
        for n in (1000, 4000):
            v1, v2 = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
            tracemalloc.start()
            try:
                contrastive_grads(v1, v2, 0.5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2 ** 20


class TestComputePrototypes:
    def test_two_entry_midpoint(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(0)), 1.0, 0))
        bank.add(BankEntry(UnitVector(e(1)), 1.0, 0))
        protos = compute_prototypes(bank)
        want = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert protos.classes.tolist() == [0]
        assert np.allclose(protos.directions[0], want)
        assert protos.support.tolist() == [2]

    def test_single_entry_is_itself(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(2)), 0.8, 1))
        protos = compute_prototypes(bank)
        assert protos.classes.tolist() == [1]
        assert np.array_equal(protos.directions, [e(2)])

    def test_zero_weight_entry_rejected_before_the_prototypes(self):
        with pytest.raises(ValueError, match=r"weight must be in \(0, 1\], got 0.0"):
            BankEntry(UnitVector(e(1)), 0.0, 0)
        with pytest.raises(ValueError, match=r"weight must be in \(0, 1\], got 0.0 at row 1"):
            BankSnapshot([e(0), e(1)], [1.0, 0.0], [0, 0])

    def test_only_populated_classes_present(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(e(1)), 0.5, 3))
        protos = compute_prototypes(bank)
        assert protos.classes.tolist() == [3]
        assert len(protos) == 1
        assert protos.directions.shape == (1, 3)

    def test_rows_are_the_per_class_weighted_sums_bit_for_bit(self):
        rng = np.random.default_rng(5)
        feats = unit_rows(rng, 90, 6)
        weights = rng.uniform(0.0, 1.0, 90)
        labels = rng.choice([0, 2, 5], size=90)
        # class 7: two opposite entries of equal weight, no direction: no prototype
        feats = np.concatenate([feats, feats[:1], -feats[:1]])
        weights = np.concatenate([weights, [0.5, 0.5]])
        labels = np.concatenate([labels, [7, 7]])
        protos = compute_prototypes(BankSnapshot(feats, weights, labels))
        assert protos.classes.tolist() == [0, 2, 5]
        for i, c in enumerate(protos.classes):
            s = weights[labels == c] @ feats[labels == c]
            assert protos.directions[i].tobytes() == (s / np.linalg.norm(s)).tobytes()
            assert protos.support[i] == np.count_nonzero(weights[labels == c] > 0)

    def test_empty_bank_has_no_prototypes(self):
        protos = compute_prototypes(BankSnapshot(np.empty((0, 3)), [], []))
        assert len(protos) == 0 and protos.directions.shape[0] == 0


NON_DEFAULT = LossWeights(lambda_u=0.3, lambda_reg=0.7, lambda_hambr=0.3, tau_loss=0.07)
TEMP = 0.1
SIGMA = 0.05


def softmax_rows(logits):
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def objective_state(seed, n=16, d=8, c=3, n_out=5):
    """A small post-classification state: labeled and unlabeled rows mixed."""
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, n, d)
    p_cls = unit_rows(rng, c, d)
    labeled = rng.random(n) < 0.5
    labeled[:4], labeled[4:8] = True, False
    return dict(x=x, p_cls=p_cls,
                preds=np.clip(softmax_rows(x @ p_cls.T / TEMP), PROB_CLAMP, 1.0 - PROB_CLAMP),
                labels=rng.integers(0, c, n), posteriors=rng.uniform(0.05, 0.95, n),
                labeled=labeled, prototypes=unit_rows(rng, c, d),
                outliers=unit_rows(rng, n_out, d))


def call_objective(s, weights, warmup, rng):
    return objective(s["x"], s["preds"], s["p_cls"], s["labels"], weights, TEMP,
                     warmup=warmup, posteriors=s["posteriors"], labeled=s["labeled"],
                     prototypes=s["prototypes"], outliers=s["outliers"],
                     aug_sigma=SIGMA, rng=rng)


def reference_objective(s, w, warmup, aug_rng):
    """The loss and gradient block run_experiment inlined before `objective`."""
    x, preds, p_cls, y_obs = s["x"], s["preds"], s["p_cls"], s["labels"]
    posteriors, labeled_mask = s["posteriors"], s["labeled"]
    p_fresh, outlier_arr = s["prototypes"], s["outliers"]
    n, n_classes, temp = x.shape[0], p_cls.shape[0], TEMP
    eye = np.eye(n_classes)
    p_obs = preds[np.arange(n), y_obs]

    def tangent_noise_views(rows, sigma, rng):
        raw = rng.standard_normal(rows.shape)
        tang = raw - np.einsum("ij,ij->i", raw, rows)[:, None] * rows
        moved = rows + sigma * tang
        norms = np.linalg.norm(moved, axis=1)
        return moved / norms[:, None], norms

    mean_dir = preds @ p_cls
    grads = np.zeros_like(x)
    if warmup:
        pq = p_obs ** w.gce_q
        grads += (pq / temp)[:, None] * (mean_dir - p_cls[y_obs])
        terms = LossTerms(x=float(np.mean((1.0 - pq) / w.gce_q)))
    else:
        lab = labeled_mask
        unl = ~labeled_mask
        loss_x = loss_u = loss_con = loss_hambr = 0.0

        if lab.any():
            y_corr = (posteriors[lab, None] * eye[y_obs[lab]]
                      + (1.0 - posteriors[lab, None]) * preds[lab])
            grads[lab] += ((preds[lab] - y_corr) @ p_cls) / temp
            loss_x = float(np.mean(-np.sum(y_corr * np.log(preds[lab]), axis=1)))

        if unl.any() and w.lambda_u > 0:
            powered = preds[unl] ** (1.0 / w.sharpen_T)
            pseudo = powered / powered.sum(axis=1, keepdims=True)
            a = (preds[unl] - pseudo) * preds[unl]
            grads[unl] += w.lambda_u * (2.0 / temp) * (
                a @ p_cls - a.sum(axis=1, keepdims=True) * mean_dir[unl])
            loss_u = float(np.mean(np.sum((pseudo - preds[unl]) ** 2, axis=1)))

        if w.lambda_reg > 0:
            pbar = np.clip(preds.mean(axis=0), PROB_CLAMP, None)
            ratio = (1.0 / n_classes) / pbar
            b = preds * ratio[None, :]
            grads += w.lambda_reg * (-1.0 / (n * temp)) * (
                b @ p_cls - b.sum(axis=1, keepdims=True) * mean_dir)
            loss_reg = float(np.sum((1.0 / n_classes)
                                    * (np.log(1.0 / n_classes) - np.log(pbar))))
        else:
            loss_reg = 0.0

        if w.lambda_c > 0 and int(unl.sum()) >= 2:
            v1, norm1 = tangent_noise_views(x[unl], SIGMA, aug_rng)
            v2, norm2 = tangent_noise_views(x[unl], SIGMA, aug_rng)
            loss_con, g1, g2 = contrastive_grads(v1, v2, w.tau_con)
            gx = (g1 - np.einsum("ij,ij->i", g1, v1)[:, None] * v1) / norm1[:, None]
            gx += (g2 - np.einsum("ij,ij->i", g2, v2)[:, None] * v2) / norm2[:, None]
            grads[unl] += w.lambda_c * gx

        if w.lambda_hambr > 0 and lab.any() and len(outlier_arr):
            mu = p_fresh[y_obs[lab]]
            logits = np.concatenate(
                [np.einsum("ij,ij->i", x[lab], mu)[:, None],
                 x[lab] @ outlier_arr.T], axis=1) / w.tau_loss
            m = logits.max(axis=1, keepdims=True)
            ex = np.exp(logits - m)
            share = ex / ex.sum(axis=1, keepdims=True)
            loss_hambr = float(np.mean(np.log(ex.sum(axis=1)) + m[:, 0]
                                       - logits[:, 0]))
            grads[lab] += w.lambda_hambr * (
                -(1.0 - share[:, 0])[:, None] * mu
                + share[:, 1:] @ outlier_arr) / w.tau_loss

        terms = LossTerms(x=loss_x, u=loss_u, reg=loss_reg,
                          con=loss_con, hambr=loss_hambr)
    return terms, grads


def summed_objective(s, w, warmup, noise):
    """Total loss as a function of x, every target held at the base state.

    Held constant: the co-corrected targets, the sharpened pseudo-labels, both
    prototype sets, the outliers and the tangent noise of the two views.
    """
    p_cls, labels, lab = s["p_cls"], s["labels"], s["labeled"]
    unl = ~lab
    base = s["preds"]
    y_corr = (s["posteriors"][lab, None] * np.eye(p_cls.shape[0])[labels[lab]]
              + (1.0 - s["posteriors"][lab, None]) * base[lab])
    powered = base[unl] ** (1.0 / w.sharpen_T)
    pseudo = powered / powered.sum(axis=1, keepdims=True)
    mu = s["prototypes"][labels[lab]]

    def total(x):
        preds = softmax_rows(x @ p_cls.T / TEMP)
        if warmup:
            return np.sum((1.0 - preds[np.arange(len(labels)), labels] ** w.gce_q) / w.gce_q)
        out = -np.sum(y_corr * np.log(preds[lab]))
        out += w.lambda_u * np.sum((pseudo - preds[unl]) ** 2)
        c = p_cls.shape[0]
        out += w.lambda_reg * np.sum((1.0 / c) * (np.log(1.0 / c)
                                                  - np.log(preds.mean(axis=0))))
        v1, v2 = (normalize_rows(x[unl] + k) for k in noise)
        pos = np.sum(v1 * v2, axis=1) / w.tau_con
        neg = v1 @ v1.T / w.tau_con
        np.fill_diagonal(neg, -np.inf)
        out += w.lambda_c * np.sum(np.logaddexp(pos, np.logaddexp.reduce(neg, axis=1)) - pos)
        logits = np.concatenate([np.sum(x[lab] * mu, axis=1)[:, None],
                                 x[lab] @ s["outliers"].T], axis=1) / w.tau_loss
        out += w.lambda_hambr * np.sum(np.logaddexp.reduce(logits, axis=1) - logits[:, 0])
        return out

    return total


def normalize_rows(a):
    return a / np.linalg.norm(a, axis=1)[:, None]


class TestObjective:
    @pytest.mark.parametrize("warmup", [True, False])
    @pytest.mark.parametrize("weights", [LossWeights(), NON_DEFAULT],
                             ids=["defaults", "non-default"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_gradient_matches_finite_differences(self, seed, weights, warmup):
        s = objective_state(seed)
        assert np.all((s["preds"] > PROB_CLAMP) & (s["preds"] < 1.0 - PROB_CLAMP))
        _, grad = call_objective(s, weights, warmup, np.random.default_rng(seed))
        # the draws objective makes: two tangent-noise blocks for the unlabeled rows
        draw = np.random.default_rng(seed)
        rows = s["x"][~s["labeled"]]
        noise = []
        for _ in range(2):
            raw = draw.standard_normal(rows.shape)
            noise.append(SIGMA * (raw - np.sum(raw * rows, axis=1)[:, None] * rows))
        total = summed_objective(s, weights, warmup, noise)

        h = 1e-6
        fd = np.empty_like(s["x"])
        for i, j in np.ndindex(*fd.shape):
            plus, minus = s["x"].copy(), s["x"].copy()
            plus[i, j] += h
            minus[i, j] -= h
            fd[i, j] = (total(plus) - total(minus)) / (2 * h)
        assert np.linalg.norm(grad) > 1e-3
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-4

    @pytest.mark.parametrize("warmup", [True, False])
    @pytest.mark.parametrize("n", [16, 97])
    def test_bitwise_equal_to_the_inline_runner_block(self, n, warmup):
        s = objective_state(n, n=n)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        terms, grad = call_objective(s, NON_DEFAULT, warmup, rng)
        ref_terms, ref_grad = reference_objective(s, NON_DEFAULT, warmup, ref_rng)
        assert terms == ref_terms
        assert grad.tobytes() == ref_grad.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_draw_without_two_unlabeled_rows(self):
        s = objective_state(3)
        s["labeled"][:] = True
        s["labeled"][5] = False
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        terms, _ = call_objective(s, LossWeights(), False, rng)
        assert rng.bit_generator.state == before
        assert terms.con == 0.0

    def test_contrastive_grads_looked_up_by_module_name(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return contrastive_grads(*args, **kwargs)

        monkeypatch.setattr(losses, "contrastive_grads", spy)
        s = objective_state(4)
        call_objective(s, LossWeights(), False, np.random.default_rng(0))
        assert calls == [(int((~s["labeled"]).sum()), 8)]

    def test_warmup_reports_only_the_gce_term(self):
        s = objective_state(6)
        terms, _ = call_objective(s, NON_DEFAULT, True, np.random.default_rng(0))
        gce = sample_losses(s["preds"], s["labels"], True, NON_DEFAULT.gce_q)
        assert terms == LossTerms(x=float(np.mean(gce)))


class TestTotalLoss:
    """The objective weights each term linearly, in loss report and gradient."""

    def test_all_lambdas_zero(self):
        s = objective_state(7)
        weights = LossWeights(lambda_u=0, lambda_reg=0, lambda_c=0, lambda_hambr=0)
        rng = np.random.default_rng(0)
        terms, grad = call_objective(s, weights, False, rng)
        lab = s["labeled"]
        y_corr = (s["posteriors"][lab, None] * np.eye(3)[s["labels"][lab]]
                  + (1.0 - s["posteriors"][lab, None]) * s["preds"][lab])
        loss_x, g_x = ce_term(s["preds"][lab], s["p_cls"], y_corr, TEMP)
        assert terms == LossTerms(x=loss_x)
        assert np.array_equal(grad[lab], g_x)
        assert np.all(grad[~lab] == 0.0)

    @pytest.mark.parametrize("name", ["lambda_u", "lambda_reg", "lambda_c",
                                      "lambda_hambr"])
    def test_affine_in_each_lambda(self, name):
        s = objective_state(8)
        grads = [call_objective(s, replace(LossWeights(), **{name: lam}), False,
                                np.random.default_rng(1))[1]
                 for lam in (0.0, 0.7, 1.4)]
        base, one, two = grads
        assert np.linalg.norm(one - base) > 1e-3
        assert np.allclose(two - base, 2 * (one - base), rtol=1e-12, atol=1e-12)
