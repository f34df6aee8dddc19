"""Acceptance suite: the headline requirements at their stated tolerances.

Each test prints one verdict line (run with -s to see them all; failures show
theirs in the report).  Criteria 6-8 share five paired full-vs-ablation runs.
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from dynamics_checks import equipartition_mean_sq, gibbs_histogram_tv

from hambr.cli import cli_main
from hambr.energy import (
    BankEntry,
    EnergyParams,
    FeatureBank,
    class_free_energy,
    global_potential,
    potential_batch,
    riemannian_grad_U,
)
from hambr.losses import LossWeights, hambr_term
from hambr.partition import clean_posterior, fit_gmm_1d
from hambr.runner import ExperimentConfig, run_experiment
from hambr.sampler import (
    ChainState,
    SamplerConfig,
    dshd_step,
    synthesize_outliers,
)
from hambr.sphere import TangentVector, _norm, geodesic_step, normalize, project_tangent
from hambr.synthgen import sample_vmf

SEEDS = (101, 202, 303, 404, 505)


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _random_bank(rng, d, per_class=8, n_classes=2):
    bank = FeatureBank()
    for c in range(n_classes):
        for _ in range(per_class):
            bank.add(BankEntry(normalize(rng.standard_normal(d)),
                               float(rng.uniform(0.2, 1.0)), c))
    return bank


def _random_state(rng, d):
    z = normalize(rng.standard_normal(d))
    return ChainState(z, TangentVector(project_tangent(rng.standard_normal(d), z), z))


def test_criterion_1_step_invariants():
    # 10^4 randomized integrator calls, d in {2,3,8}: positions stay on the
    # sphere (1e-9) and momenta stay tangent (1e-8), in under 10 s
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    params = EnergyParams()
    worst_norm = worst_dot = 0.0
    calls = 0
    for d in (2, 3, 8):
        bank = _random_bank(rng, d)
        for variant in ("exponential", "euler"):
            cfg = SamplerConfig(step_size=0.05, friction=0.9,
                                dyn_temperature=0.5,
                                integrator_variant=variant, seed=0)
            state = _random_state(rng, d)
            for i in range(1700):
                if i % 250 == 0:
                    state = _random_state(rng, d)
                state = dshd_step(state, bank, params, cfg,
                                  noise=rng.standard_normal(d))
                z, v = state.position.coords, state.momentum.coords
                worst_norm = max(worst_norm, abs(float(np.linalg.norm(z)) - 1.0))
                worst_dot = max(worst_dot, abs(float(z @ v)))
                calls += 1
    elapsed = time.perf_counter() - start
    ok = (calls >= 10_000 and worst_norm <= 1e-9 and worst_dot <= 1e-8
          and elapsed < 10.0)
    assert _verdict(1, "step invariants", ok), (calls, worst_norm, worst_dot,
                                                elapsed)


def test_criterion_2_gradient_oracle():
    # both analytic gradients vs central finite differences, 100 random
    # instances each at the default temperatures, relative error < 1e-4; the
    # attract/repel half calls the runner's batched hambr_term on one row
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    h = 1e-5

    tau = LossWeights().tau_loss
    worst_attract = 0.0
    checked = attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 2000, "could not find usable attract/repel instances"
        x = normalize(rng.standard_normal(8)).coords
        proto = normalize(rng.standard_normal(8)).coords
        out = np.array([normalize(rng.standard_normal(8)).coords
                        for _ in range(5)])
        grad = hambr_term(x[None], proto[None], out, tau)[1][0]
        if np.linalg.norm(grad) < 0.05:  # saturated draw: relative error undefined
            continue
        fd = np.empty(8)
        for i in range(8):
            step = np.zeros(8)
            step[i] = h
            fd[i] = (hambr_term((x + step)[None], proto[None], out, tau)[0]
                     - hambr_term((x - step)[None], proto[None], out, tau)[0]) / (2 * h)
        worst_attract = max(worst_attract,
                            np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        checked += 1

    params = EnergyParams()
    bank = _random_bank(rng, 8)
    worst_potential = 0.0
    checked = attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 5000, "could not find usable potential instances"
        z = normalize(rng.standard_normal(8))
        gap = abs(class_free_energy(z, bank, 0, params)
                  - class_free_energy(z, bank, 1, params))
        if gap < 0.02:  # too close to the argmin switch for smooth FD
            continue
        grad = riemannian_grad_U(z, bank, params)
        raw = project_tangent(rng.standard_normal(8), z)
        if _norm(raw) < 1e-6:
            continue
        u = project_tangent(raw / _norm(raw), z)
        deriv = float(grad @ u)
        if abs(deriv) < 0.05:
            continue
        back = project_tangent(-u, z)
        fd = (global_potential(geodesic_step(z, u, h), bank, params)[0]
              - global_potential(geodesic_step(z, back, h), bank, params)[0]
              ) / (2 * h)
        worst_potential = max(worst_potential, abs(fd - deriv) / abs(deriv))
        checked += 1

    elapsed = time.perf_counter() - start
    ok = worst_attract < 1e-4 and worst_potential < 1e-4 and elapsed < 5.0
    assert _verdict(2, "gradient oracle", ok), (worst_attract, worst_potential,
                                                elapsed)


def test_criterion_3_gibbs_stationarity():
    # long-run S^1 histogram vs the quadrature density, total variation < 0.05;
    # target recomputed independently in tests/oracles/gibbs_density.py
    start = time.perf_counter()
    tv = gibbs_histogram_tv()
    elapsed = time.perf_counter() - start
    ok = tv < 0.05 and elapsed < 60.0
    assert _verdict(3, "Gibbs stationarity", ok), (tv, elapsed)


def test_criterion_4_equipartition():
    # free dynamics: long-run mean |v|^2 within 5% of (d-1)*T for d in {3,8};
    # scalar oracle in tests/oracles/equipartition_ou.py
    start = time.perf_counter()
    temperature = 1.3
    rels = []
    for d in (3, 8):
        mean_sq = equipartition_mean_sq(d, temperature)
        target = (d - 1) * temperature
        rels.append(abs(mean_sq - target) / target)
    elapsed = time.perf_counter() - start
    ok = max(rels) < 0.05 and elapsed < 60.0
    assert _verdict(4, "equipartition", ok), (rels, elapsed)


def test_criterion_5_boundary_targeting():
    # two vMF clusters on S^1: every synthesized outlier lands on the
    # connecting arc with potential in the top decile of a 360-point grid
    start = time.perf_counter()
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
    pts = oset.outliers
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    elapsed = time.perf_counter() - start
    on_arc = bool(np.all(angles >= centers[0]) and np.all(angles <= centers[1]))
    in_decile = bool(np.all(oset.potentials >= p90))
    ok = len(oset) == cfg.n_chains and on_arc and in_decile and elapsed < 10.0
    assert _verdict(5, "boundary targeting", ok), (on_arc, in_decile, elapsed)


@pytest.fixture(scope="module")
def paired_runs(tmp_path_factory):
    """Five (full, ablation) final-epoch record pairs at the shipped defaults."""
    base = tmp_path_factory.mktemp("paired")
    start = time.perf_counter()
    pairs = []
    for s in SEEDS:
        full_cfg = ExperimentConfig(seed=s, output_dir=str(base / f"full_{s}"))
        abl_cfg = replace(full_cfg,
                          weights=replace(full_cfg.weights, lambda_hambr=0.0),
                          output_dir=str(base / f"abl_{s}"))
        pairs.append((run_experiment(full_cfg)["records"][-1],
                      run_experiment(abl_cfg)["records"][-1]))
    return pairs, time.perf_counter() - start


def test_criterion_6_ablation_direction(paired_runs):
    # default dataset, 40% symmetric noise, 5 paired seeds: the full run beats
    # the lambda_hambr=0 run on final selection F1 and final inter-class
    # margin in at least 4 of 5 pairs, all runs within 5 minutes
    pairs, elapsed = paired_runs
    f1_wins = sum(f.sel_f1 > a.sel_f1 for f, a in pairs)
    margin_wins = sum(f.inter > a.inter for f, a in pairs)
    ok = f1_wins >= 4 and margin_wins >= 4 and elapsed < 300.0
    assert _verdict(6, "ablation direction", ok), (f1_wins, margin_wins,
                                                   elapsed)


def test_criterion_7_ood_detection(paired_runs):
    # energy-score AUROC > 0.9 on every full run, and above the ablation's
    # in at least 4 of 5 pairs
    pairs, _ = paired_runs
    all_above = all(f.auroc > 0.9 for f, _ in pairs)
    wins = sum(f.auroc > a.auroc for f, a in pairs)
    ok = all_above and wins >= 4
    detail = [(round(f.auroc, 4), round(a.auroc, 4)) for f, a in pairs]
    assert _verdict(7, "OOD detection", ok), (all_above, wins, detail)


def test_criterion_8_spectrum_diagnostic(paired_runs):
    # mid-spectrum log singular value (index ceil(d/2) = 4 for d=8) of the
    # full run at or above the ablation's in at least 4 of 5 pairs
    pairs, _ = paired_runs
    idx = 4
    wins = sum(f.log_singular_values[idx] >= a.log_singular_values[idx]
               for f, a in pairs)
    ok = wins >= 4
    detail = [(round(f.log_singular_values[idx], 4),
               round(a.log_singular_values[idx], 4)) for f, a in pairs]
    assert _verdict(8, "spectrum diagnostic", ok), (wins, detail)


def test_criterion_9_mixture_oracle():
    # well-separated two-cluster fit recovers means within 0.02 and the clean
    # posterior is monotone non-increasing, in under 1 s
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    losses = np.concatenate([0.1 + rng.uniform(-1e-3, 1e-3, 50),
                             2.0 + rng.uniform(-1e-3, 1e-3, 50)])
    model = fit_gmm_1d(losses)
    lo, hi = sorted(model.means)
    post = clean_posterior(model, np.linspace(0.1, 2.0, 500))
    elapsed = time.perf_counter() - start
    ok = (abs(lo - 0.1) < 0.02 and abs(hi - 2.0) < 0.02
          and bool(np.all(np.diff(post) <= 1e-12)) and elapsed < 1.0)
    assert _verdict(9, "mixture oracle", ok), (lo, hi, elapsed)


def test_criterion_10_byte_determinism(tmp_path):
    # two CLI runs from one config file produce byte-identical metrics.csv
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"n_per_class": 40},
        "sampler": {"n_chains": 8, "n_rounds": 2, "steps_per_round": 2},
        "epochs": 6, "warmup_epochs": 2, "t_filter": 2, "seed": 99,
    }))
    code_a = cli_main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "a")])
    code_b = cli_main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "b")])
    same = ((tmp_path / "a" / "metrics.csv").read_bytes()
            == (tmp_path / "b" / "metrics.csv").read_bytes())
    ok = code_a == 0 and code_b == 0 and same
    assert _verdict(10, "byte determinism", ok), (code_a, code_b, same)
