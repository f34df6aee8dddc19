"""Sampler tests: chain init, the split-step integrator, outlier synthesis."""

import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from dynamics_checks import two_pole_bank
from reference import bank_rows, unit_rows

from hambr import energy
from hambr.energy import (
    BankEntry,
    BankSnapshot,
    EmptyBank,
    EnergyParams,
    FeatureBank,
    global_potential,
    potential_batch,
)
from hambr.sampler import (
    ChainState,
    InsufficientPrototypes,
    SamplerConfig,
    VirtualOutlierSet,
    _init_pair,
    dshd_step,
    dump_outliers,
    run_chain,
    synthesize_outliers,
)
from hambr.sphere import (
    TangentVector,
    UnitVector,
    _norm,
    geodesic_flow,
    normalize,
    project_tangent,
)
from hambr.synthgen import sample_vmf


def e(i, d=3):
    v = np.zeros(d)
    v[i] = 1.0
    return UnitVector(v)


def rows(*vectors):
    """The (k, d) prototype array of the given unit vectors."""
    return np.array([v.coords for v in vectors])


def init_chains(prototypes, n_chains, rng):
    """n_chains chain starts drawn one after another, as synthesize_outliers does."""
    return [_init_pair(prototypes, rng) for _ in range(n_chains)]


def small_bank():
    """Two vMF clusters of 20 entries around e(0) and e(1) in d=3."""
    rng = np.random.default_rng(8)
    bank = FeatureBank()
    for c, center in enumerate((e(0), e(1))):
        for row in sample_vmf(center.coords, 30.0, 20, rng):
            bank.add(BankEntry(normalize(row), 1.0, c))
    return bank


def random_chain_state(rng, d):
    z = normalize(rng.standard_normal(d))
    return ChainState(z, TangentVector(project_tangent(rng.standard_normal(d), z), z))


class TestInitChains:
    def test_midpoint_of_two_prototypes(self):
        chain = _init_pair(rows(e(0), e(1)), np.random.default_rng(0))
        want = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.allclose(chain.position.coords, want)

    def test_antipodal_pair_falls_back_to_orthogonal_perturbation(self):
        protos = rows(e(0), UnitVector(-e(0).coords))
        for chain in init_chains(protos, 4, np.random.default_rng(3)):
            # fallback midpoint is the tangent nudge direction, so it sits
            # about delta/2 off orthogonal to the first prototype
            assert abs(float(chain.position.coords @ e(0).coords)) < 2e-3

    def test_seeded_pair_choices_are_deterministic(self):
        protos = rows(e(0), e(1), e(2))
        a = init_chains(protos, 4, np.random.default_rng(11))
        b = init_chains(protos, 4, np.random.default_rng(11))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.position.coords, cb.position.coords)
            assert np.array_equal(ca.momentum.coords, cb.momentum.coords)

    def test_fewer_than_two_prototypes(self):
        bank = small_bank()
        for protos in (rows(e(0)), np.empty((0, 3))):
            with pytest.raises(InsufficientPrototypes):
                synthesize_outliers(bank, protos, EnergyParams(), SamplerConfig())


class TestDshdStep:
    def test_frictionless_flow_conserves_speed_and_is_geodesic(self):
        from hambr.sphere import geodesic_step

        cfg = SamplerConfig(step_size=0.02, friction=0.0)
        z0 = e(0)
        v0 = TangentVector(np.array([0.0, 0.7, 0.2]), z0)
        state = ChainState(z0, v0)
        rng = np.random.default_rng(0)   # friction=0 makes the noise scale 0
        n = 50
        for _ in range(n):
            state = dshd_step(state, None, EnergyParams(), cfg, noise=rng.standard_normal(3))
            assert _norm(state.momentum.coords) == pytest.approx(_norm(v0.coords), abs=1e-9)
        want = geodesic_step(z0, v0.coords, n * cfg.step_size)
        assert np.allclose(state.position.coords, want.coords, atol=1e-7)

    @pytest.mark.parametrize("eps", [1e-3, 3e-3])
    def test_energy_drift_is_second_order(self, eps):
        # friction 0, zero noise scale, live potential: H should only
        # oscillate at the discretization scale, O(eps^2) per step
        snap = two_pole_bank().snapshot()
        params = EnergyParams()
        cfg = SamplerConfig(step_size=eps, friction=0.0)
        z0 = UnitVector(np.array([np.cos(1.0), np.sin(1.0)]))
        state = ChainState(z0, TangentVector(np.zeros(2), z0))
        rng = np.random.default_rng(1)

        def hamiltonian(s):
            return (potential_batch(s.position.coords[None, :], snap, params)[0]
                    + 0.5 * _norm(s.momentum.coords) ** 2)

        h0 = hamiltonian(state)
        worst = 0.0
        for _ in range(100):
            state = dshd_step(state, snap, params, cfg, noise=rng.standard_normal(2))
            worst = max(worst, abs(hamiltonian(state) - h0))
        assert worst <= 100 * eps ** 2

    def test_bitwise_determinism(self):
        snap = two_pole_bank().snapshot()
        cfg = SamplerConfig()
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        state = random_chain_state(np.random.default_rng(7), 2)
        out_a = dshd_step(state, snap, EnergyParams(), cfg, noise=rng_a.standard_normal(2))
        out_b = dshd_step(state, snap, EnergyParams(), cfg, noise=rng_b.standard_normal(2))
        assert np.array_equal(out_a.position.coords, out_b.position.coords)
        assert np.array_equal(out_a.momentum.coords, out_b.momentum.coords)

    def test_position_and_tangency_invariants(self):
        rng = np.random.default_rng(13)
        snap = two_pole_bank().snapshot()
        cfg = SamplerConfig(step_size=0.05, dyn_temperature=1.0)
        state = random_chain_state(rng, 2)
        for _ in range(300):
            state = dshd_step(state, snap, EnergyParams(), cfg, noise=rng.standard_normal(2))
            assert abs(np.linalg.norm(state.position.coords) - 1.0) <= 1e-9
            assert abs(float(state.momentum.coords
                             @ state.position.coords)) <= 1e-8

    @pytest.mark.parametrize("g", [1e-3, 3e-4, 1e-4])
    def test_variant_agreement_at_small_friction_step(self, g):
        # identical noise realisations; near-zero temperature so the variants'
        # different noise scales cannot dominate the O((g)^2) damping gap
        eps = g / 0.95
        base = dict(step_size=eps, friction=0.95, dyn_temperature=1e-30)
        snap = two_pole_bank().snapshot()
        state = random_chain_state(np.random.default_rng(21), 2)
        xi = np.random.default_rng(22).standard_normal(2)
        out_e = dshd_step(state, snap, EnergyParams(),
                          SamplerConfig(**base, integrator_variant="exponential"),
                          noise=xi)
        out_u = dshd_step(state, snap, EnergyParams(),
                          SamplerConfig(**base, integrator_variant="euler"),
                          noise=xi)
        gap = np.linalg.norm(np.concatenate([
            out_e.position.coords - out_u.position.coords,
            out_e.momentum.coords - out_u.momentum.coords]))
        assert gap <= 10.0 * g ** 2

    def test_euler_damping_never_turns_negative(self):
        # euler scales the momentum by 1 - friction * step_size each step
        with pytest.raises(ValueError, match="^" + re.escape(
                "friction * step_size must be <= 1 for the euler variant, got 3.0") + "$"):
            SamplerConfig(friction=300.0, step_size=0.01, integrator_variant="euler")
        SamplerConfig(friction=100.0, step_size=0.01, integrator_variant="euler")
        SamplerConfig(friction=300.0, step_size=0.01)  # exponential damping is exp(-3)

    def test_builds_only_the_wrappers_of_the_state_it_returns(self, monkeypatch):
        # between the two, tangent vectors pass as arrays
        built = []
        for cls in (UnitVector, TangentVector):
            def counting(self, check=cls.__post_init__):
                built.append(type(self))
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        snap = small_bank().snapshot()
        state = random_chain_state(np.random.default_rng(5), 3)
        noise = np.random.default_rng(6).standard_normal(3)
        built.clear()
        out = dshd_step(state, snap, EnergyParams(), SamplerConfig(), noise=noise)
        assert built == [UnitVector, TangentVector]
        assert out.momentum.base is out.position

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_fails_the_returned_state_check(self, bad):
        state = random_chain_state(np.random.default_rng(7), 3)
        cfg = SamplerConfig(dyn_temperature=1.0)
        with pytest.raises(ValueError, match="not unit norm"), np.errstate(invalid="ignore"):
            dshd_step(state, small_bank().snapshot(), EnergyParams(), cfg,
                      noise=np.array([bad, 0.0, 0.0]))


class TestGeodesicFlow:
    def test_zero_momentum_keeps_the_position(self):
        z = normalize(np.random.default_rng(32).standard_normal(8))
        state = ChainState(z, TangentVector(np.zeros(8), z))
        out = dshd_step(state, None, EnergyParams(), SamplerConfig(), noise=np.zeros(8))
        assert out.position is z
        assert np.array_equal(out.momentum.coords, np.zeros(8))

    @pytest.mark.parametrize("d", [2, 8])
    def test_free_step_is_the_flow(self, d):
        # no bank, friction 0 and zero noise: the kick is exactly 1.0 * v
        state = random_chain_state(np.random.default_rng(33), d)
        cfg = SamplerConfig(step_size=0.3, friction=0.0)
        out = dshd_step(state, None, EnergyParams(), cfg, noise=np.zeros(d))
        z_new, v_new = geodesic_flow(state.position, state.momentum.coords, 0.3)
        assert np.array_equal(out.position.coords, z_new.coords)
        assert np.array_equal(out.momentum.coords, v_new)


class TestRunChain:
    def test_noise_held_within_each_round(self):
        snap = two_pole_bank().snapshot()
        params = EnergyParams()
        cfg = SamplerConfig(n_rounds=2, steps_per_round=3)
        start = random_chain_state(np.random.default_rng(17), 2)

        out = run_chain(start, snap, params, cfg, np.random.default_rng(99))

        rng = np.random.default_rng(99)
        state = start
        for _ in range(cfg.n_rounds):
            xi = rng.standard_normal(2)
            for _ in range(cfg.steps_per_round):
                state = dshd_step(state, snap, params, cfg, noise=xi)
        assert np.array_equal(out.position.coords, state.position.coords)
        assert np.array_equal(out.momentum.coords, state.momentum.coords)



class TestSynthesizeOutliers:
    def test_cardinality(self):
        bank = small_bank()
        oset = synthesize_outliers(bank, rows(e(0), e(1)), EnergyParams(),
                                   SamplerConfig(n_chains=8))
        assert len(oset) == 8
        assert oset.outliers.shape == (8, 3)
        assert oset.potentials.shape == (8,)

    def test_deterministic_in_seed(self):
        bank = small_bank()
        cfg = SamplerConfig(n_chains=5, seed=123)
        a = synthesize_outliers(bank, rows(e(0), e(1)), EnergyParams(), cfg)
        b = synthesize_outliers(bank, rows(e(0), e(1)), EnergyParams(), cfg)
        assert np.array_equal(a.outliers, b.outliers)
        assert np.array_equal(a.potentials, b.potentials)

    def test_single_step_composition_base_case(self):
        # R=1, L=1 must reproduce chain init + one dshd_step, bit for bit
        bank = small_bank()
        snap = bank.snapshot()
        params = EnergyParams()
        cfg = SamplerConfig(n_rounds=1, steps_per_round=1, n_chains=1, seed=77)
        protos = rows(e(0), e(1))

        oset = synthesize_outliers(bank, protos, params, cfg)

        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains + 1)
        start = _init_pair(protos, np.random.default_rng(children[0]))
        xi = np.random.default_rng(children[1]).standard_normal(3)
        want = dshd_step(start, snap, params, cfg, noise=xi)
        assert np.array_equal(oset.outliers[0], want.position.coords)

    def test_empty_bank_raises(self):
        with pytest.raises(EmptyBank):
            synthesize_outliers(FeatureBank(), rows(e(0), e(1)), EnergyParams(),
                                SamplerConfig())

    def test_single_prototype_raises(self):
        with pytest.raises(InsufficientPrototypes):
            synthesize_outliers(small_bank(), rows(e(0)), EnergyParams(),
                                SamplerConfig())

    def test_empty_set_array_shape(self):
        # the runner's set for an epoch without outliers: (0, d), dumps nothing
        empty = VirtualOutlierSet(np.empty((0, 3)), np.empty(0))
        assert len(empty) == 0 and empty.outliers.shape == (0, 3)
        buf = io.StringIO()
        dump_outliers(empty, buf)
        assert buf.getvalue() == ""

    def test_dump_numbers_the_rows(self):
        oset = synthesize_outliers(small_bank(), rows(e(0), e(1)), EnergyParams(),
                                   SamplerConfig(n_chains=3, seed=5))
        buf = io.StringIO()
        dump_outliers(oset, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [line["chain"] for line in lines] == [0, 1, 2]
        assert np.array_equal([line["outlier"] for line in lines], oset.outliers)
        assert [line["potential"] for line in lines] == oset.potentials.tolist()

    @pytest.mark.parametrize("protos, match", [
        (np.array([1.0, 0.0, 0.0]), "(k, d)"),
        (np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), "prototype 1 is not unit norm"),
        (np.array([[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0]]), "prototype 1 is not unit norm"),
        (np.array([[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]]), "prototype 0 is not unit norm"),
        (np.array([[1.0 + 1e-6, 0.0, 0.0], [0.0, 1.0, 0.0]]), "prototype 0 is not unit norm"),
        (np.eye(4)[:2], "prototypes have dimension 4, the bank's features have dimension 3"),
        (np.eye(2), "prototypes have dimension 2, the bank's features have dimension 3"),
    ], ids=["1-d", "norm-2", "nan", "inf", "off-by-1e-6", "d-4-vs-3", "d-2-vs-3"])
    def test_bad_prototypes_raise(self, protos, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            synthesize_outliers(small_bank(), protos, EnergyParams(),
                                SamplerConfig(n_chains=2))


class MemolessBank:
    """The entries of `snap` behind a snapshot() that builds a new BankSnapshot
    on every call, so no energy query is answered from a snapshot's memo."""

    def __init__(self, snap):
        self.rows = bank_rows({c: (snap.features(c), snap.weights(c)) for c in snap.classes})

    def snapshot(self):
        return BankSnapshot(*self.rows)


class TestQueryMemoInChains:
    # d=8, three classes, class 1 smaller than k_neighbors
    params = EnergyParams(k_neighbors=16)

    def snapshot(self):
        rng = np.random.default_rng(91)
        sizes = (40, 5, 60)
        labels = np.repeat(np.arange(3), sizes)
        x = unit_rows(rng, labels.size, 8)
        return BankSnapshot(x, rng.uniform(0.1, 1.0, labels.size), labels)

    def test_steps_match_steps_without_the_memo(self):
        snap = self.snapshot()
        cfg = SamplerConfig(step_size=0.05, dyn_temperature=0.1)
        start = random_chain_state(np.random.default_rng(92), 8)
        paths = []
        for bank in (snap, MemolessBank(snap)):
            rng, state, path = np.random.default_rng(93), start, []
            for _ in range(200):
                state = dshd_step(state, bank, self.params, cfg,
                                  noise=rng.standard_normal(8))
                path.append((state.position.coords.tobytes(),
                             state.momentum.coords.tobytes()))
            paths.append(path)
        assert paths[0] == paths[1]

    def test_synthesis_matches_chains_without_the_memo(self):
        snap = self.snapshot()
        cfg = SamplerConfig(n_chains=4, seed=94)
        protos = np.array([snap.features(c)[0] for c in snap.classes])
        oset = synthesize_outliers(snap, protos, self.params, cfg)

        bank = MemolessBank(snap)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains + 1)
        starts = init_chains(protos, cfg.n_chains, np.random.default_rng(children[0]))
        for i, state in enumerate(starts):
            state = run_chain(state, bank, self.params, cfg,
                              np.random.default_rng(children[i + 1]))
            potential = global_potential(state.position, bank, self.params)[0]
            assert oset.outliers[i].tobytes() == state.position.coords.tobytes()
            assert oset.potentials[i].tobytes() == np.float64(potential).tobytes()

    @pytest.mark.parametrize("n_rounds,steps_per_round", [(2, 5), (1, 1)])
    def test_one_bank_pass_per_step(self, monkeypatch, n_rounds, steps_per_round):
        # a stacked pass selects from the (C, m_max) weight stack, a one-class
        # selection from one class's (m,) weights
        passes = []
        top_k = energy._top_k

        def counting(sims, weights, k):
            passes.append("stacked" if weights.ndim == 2 else "one class")
            return top_k(sims, weights, k)

        monkeypatch.setattr(energy, "_top_k", counting)
        cfg = SamplerConfig(n_rounds=n_rounds, steps_per_round=steps_per_round)
        start = random_chain_state(np.random.default_rng(95), 8)
        run_chain(start, self.snapshot(), self.params, cfg, np.random.default_rng(96))
        assert passes == ["stacked"] * (n_rounds * steps_per_round + 1)


class TestBoundaryTargeting:
    # two vMF clusters on S^1, kappa=50, 100 bank points each: every outlier
    # should land on the connecting arc with potential in the top decile of a
    # 360-point grid over that arc
    def test_outliers_land_on_the_high_potential_arc(self):
        rng = np.random.default_rng(42)
        centers = (0.0, np.pi / 2)
        bank = FeatureBank()
        for c, t in enumerate(centers):
            mu = np.array([np.cos(t), np.sin(t)])
            for row in sample_vmf(mu, 50.0, 100, rng):
                bank.add(BankEntry(normalize(row), 1.0, c))
        protos = np.array([[np.cos(t), np.sin(t)] for t in centers])
        params = EnergyParams()
        cfg = SamplerConfig(step_size=0.01, friction=100.0, n_rounds=5,
                            steps_per_round=3, n_chains=32,
                            dyn_temperature=1e-6, seed=7)

        oset = synthesize_outliers(bank, protos, params, cfg)

        grid_theta = np.linspace(centers[0], centers[1], 360)
        grid = np.stack([np.cos(grid_theta), np.sin(grid_theta)], axis=1)
        p90 = np.percentile(potential_batch(grid, bank, params), 90.0)
        angles = np.arctan2(oset.outliers[:, 1], oset.outliers[:, 0])
        assert np.all(angles >= centers[0]) and np.all(angles <= centers[1])
        assert np.all(oset.potentials >= p90)

