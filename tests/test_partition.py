"""Partition tests: loss-mixture EM, clean posteriors, consensus window."""

import numpy as np
import pytest

from hambr.partition import (
    ConsensusWindow,
    GmmModel,
    NonFiniteLoss,
    VARIANCE_FLOOR,
    clean_posterior,
    consensus_set,
    consensus_update,
    dump_partition,
    fit_gmm_1d,
)


def well_separated_losses(jitter_seed=0):
    rng = np.random.default_rng(jitter_seed)
    low = 0.1 + rng.uniform(-1e-3, 1e-3, size=50)
    high = 2.0 + rng.uniform(-1e-3, 1e-3, size=50)
    return np.concatenate([low, high])


def symmetric_model():
    return GmmModel(np.array([0.0, 2.0]), np.array([0.04, 0.04]),
                    np.array([0.5, 0.5]), 0)


class TestGmmModel:
    def test_rejects_clean_component_with_larger_mean(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([1.0, 0.0]), np.array([0.1, 0.1]),
                     np.array([0.5, 0.5]), 0)

    def test_rejects_floor_violation(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.0, 1.0]), np.array([1e-9, 0.1]),
                     np.array([0.5, 0.5]), 0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.0, 1.0]), np.array([0.1, 0.1]),
                     np.array([0.7, 0.7]), 0)


    @pytest.mark.parametrize("field", ["means", "variances", "weights"])
    def test_rejects_non_finite_parameters(self, field):
        params = dict(means=np.array([0.0, 1.0]), variances=np.array([0.1, 0.1]),
                      weights=np.array([0.5, 0.5]))
        for bad in (np.nan, np.inf):
            broken = dict(params)
            broken[field] = np.array([params[field][0], bad])
            with pytest.raises(ValueError, match="finite"):
                GmmModel(clean_component=0, **broken)


class TestFitGmm:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_is_named_error(self, bad):
        losses = well_separated_losses()
        losses[7] = bad
        with pytest.raises(NonFiniteLoss, match="1 of 100"):
            fit_gmm_1d(losses)

    def test_recovers_well_separated_means(self):
        model = fit_gmm_1d(well_separated_losses())
        lo, hi = sorted(model.means)
        assert abs(lo - 0.1) < 0.02 and abs(hi - 2.0) < 0.02
        assert model.clean_component == int(np.argmin(model.means))

    def test_all_identical_losses_are_all_clean(self):
        model = fit_gmm_1d(np.full(30, 0.5))
        post = clean_posterior(model, np.full(30, 0.5))
        assert np.all(post == 1.0)

    def test_permutation_invariance(self):
        losses = well_separated_losses(3)
        a = fit_gmm_1d(losses)
        b = fit_gmm_1d(losses[::-1].copy())
        assert np.allclose(a.means, b.means)
        assert np.allclose(a.variances, b.variances)
        assert np.allclose(a.weights, b.weights)

    def test_needs_two_losses(self):
        with pytest.raises(ValueError):
            fit_gmm_1d([0.3])

    def test_log_likelihood_non_decreasing(self):
        trace = []
        fit_gmm_1d(well_separated_losses(9), trace=trace)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_affine_rescaling_keeps_flags(self):
        rng = np.random.default_rng(12)
        losses = np.concatenate([rng.normal(0.3, 0.05, 80),
                                 rng.normal(1.5, 0.2, 40)])
        flags = clean_posterior(fit_gmm_1d(losses), losses) > 0.5
        mapped = 3.7 * losses + 11.0
        flags2 = clean_posterior(fit_gmm_1d(mapped), mapped) > 0.5
        assert np.array_equal(flags, flags2)

    def test_variances_respect_floor(self):
        # near-duplicate clusters drive the raw variance toward zero
        losses = np.concatenate([np.full(20, 0.2), np.full(20, 1.0)])
        model = fit_gmm_1d(losses + np.linspace(0, 1e-9, 40))
        assert np.all(model.variances >= VARIANCE_FLOOR * (1 - 1e-12))


class TestCleanPosterior:
    def test_far_below_is_confidently_clean(self):
        model = fit_gmm_1d(well_separated_losses())
        assert clean_posterior(model, np.array([0.01]))[0] >= 0.999

    def test_symmetric_crossing_is_half(self):
        assert clean_posterior(symmetric_model(), np.array([1.0]))[0] == pytest.approx(0.5)

    def test_monotone_non_increasing_over_the_span(self):
        model = fit_gmm_1d(well_separated_losses())
        grid = np.linspace(0.1, 2.0, 200)
        post = clean_posterior(model, grid)
        assert np.all(np.diff(post) <= 1e-12)

    @pytest.mark.parametrize("losses", [0.5, [[0.5, 1.0]]], ids=["0-d", "2-d"])
    def test_needs_a_1d_array(self, losses):
        with pytest.raises(ValueError, match="1-d"):
            clean_posterior(symmetric_model(), losses)


class TestConsensusWindow:
    def run_epochs(self, t_filter, history):
        window = ConsensusWindow(t_filter, len(history[0]))
        for flags in history:
            consensus_update(window, flags)
        return consensus_set(window)

    def test_full_agreement_included(self):
        ids = self.run_epochs(3, [[True], [True], [True]])
        assert list(ids) == [0]

    def test_one_miss_excluded(self):
        ids = self.run_epochs(3, [[True], [False], [True]])
        assert list(ids) == []

    def test_warmup_is_empty(self):
        ids = self.run_epochs(3, [[True], [True]])
        assert list(ids) == []

    def test_sliding_boundary_admits_sample(self):
        window = ConsensusWindow(3, 1)
        consensus_update(window, [True])
        consensus_update(window, [True])
        assert list(consensus_set(window)) == []
        consensus_update(window, [True])
        assert list(consensus_set(window)) == [0]

    def test_only_last_t_filter_epochs_count(self):
        # an old False scrolls out of the window
        ids = self.run_epochs(2, [[False], [True], [True]])
        assert list(ids) == [0]

    def test_monotone_non_increasing_in_t_filter(self):
        rng = np.random.default_rng(31)
        history = rng.random((6, 40)) < 0.7
        sets = []
        for t_filter in (1, 2, 3, 4):
            window = ConsensusWindow(t_filter, 40)
            for flags in history:
                consensus_update(window, flags)
            sets.append(set(consensus_set(window).tolist()))
        for smaller, larger in zip(sets[1:], sets):
            assert smaller <= larger

    def test_flag_length_mismatch(self):
        window = ConsensusWindow(2, 3)
        with pytest.raises(ValueError):
            consensus_update(window, [True, False])


class TestPartitionDump:
    def test_schema_and_membership(self, tmp_path):
        import json

        losses = [0.1, 0.9, 0.2]
        post = [0.99, 0.05, 0.88]
        flags = [True, False, True]
        path = tmp_path / "partition.jsonl"
        with open(path, "w") as fh:
            dump_partition(fh, losses, post, flags, np.array([2]))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["sample"] for r in rows] == [0, 1, 2]
        assert [r["in_consensus"] for r in rows] == [False, False, True]
        assert set(rows[0]) == {"sample", "loss", "posterior", "flag",
                                "in_consensus"}

    @pytest.mark.parametrize("consensus", [[0, 5, 7], []])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_bytes_match_per_row_json_dumps(self, as_array, consensus):
        import io
        import json

        losses = [0.1, float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
                  2.5e16, 1 / 3]
        post = [0.99, 0.0, 1.0, 0.5, float("nan"), 5e-324, -0.0, 0.25]
        flags = [True, False, True, False, True, True, False, False]
        expected = "".join(
            json.dumps({"sample": i, "loss": float(l), "posterior": float(p),
                        "flag": bool(f), "in_consensus": i in consensus}) + "\n"
            for i, (l, p, f) in enumerate(zip(losses, post, flags)))
        if as_array:
            losses, post = np.array(losses), np.array(post)
            flags, consensus = np.array(flags), np.array(consensus, dtype=np.int64)
        buf = io.StringIO()
        dump_partition(buf, losses, post, flags, consensus)
        assert buf.getvalue() == expected
