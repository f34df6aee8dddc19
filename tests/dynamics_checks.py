"""Long-run dynamics checks shared by the sampler tests and the acceptance suite.

Both entry points are deterministic for a fixed seed; the statistical
tolerances they are compared against live with the callers.
"""

import numpy as np

from hambr.energy import BankEntry, EnergyParams, FeatureBank
from hambr.sampler import ChainState, SamplerConfig, dshd_step
from hambr.sphere import TangentVector, UnitVector, _norm, project_tangent

N_BINS = 36


def two_pole_bank() -> FeatureBank:
    """Single class with entries at angles 0 and pi on S^1, both weight 1."""
    bank = FeatureBank()
    bank.add(BankEntry(UnitVector(np.array([1.0, 0.0])), 1.0, 0))
    bank.add(BankEntry(UnitVector(np.array([-1.0, 0.0])), 1.0, 0))
    return bank


def two_pole_energy(theta, tau: float):
    """Closed-form U(theta) for the two-pole bank.

    U = -tau*log(exp(cos(t)/tau) + exp(-cos(t)/tau)), written stably via the
    dominant pole.  Cross-checked against tests/oracles/gibbs_density.py.
    """
    m = np.abs(np.cos(theta)) / tau
    return -tau * (m + np.log1p(np.exp(-2.0 * m)))


def gibbs_histogram_tv(n_steps: int = 200_000, burn_in: int = 10_000,
                       seed: int = 2718) -> float:
    """TV distance between the sampled angle histogram and the Gibbs target.

    One chain on S^1 over the two-pole bank, eps=0.05, friction=1, unit
    dynamics temperature; 36 bins over [-pi, pi); per-bin target mass by
    trapezoid quadrature of exp(-U/T) with 400 subdivisions per bin.
    """
    params = EnergyParams()
    cfg = SamplerConfig(step_size=0.05, friction=1.0, dyn_temperature=1.0)
    snap = two_pole_bank().snapshot()
    rng = np.random.default_rng(seed)
    z = UnitVector(np.array([0.0, 1.0]))
    state = ChainState(z, TangentVector(project_tangent(rng.standard_normal(2), z), z))

    width = 2.0 * np.pi / N_BINS
    counts = np.zeros(N_BINS)
    for t in range(burn_in + n_steps):
        state = dshd_step(state, snap, params, cfg, noise=rng.standard_normal(2))
        if t >= burn_in:
            theta = float(np.arctan2(state.position.coords[1],
                                     state.position.coords[0]))
            counts[min(int((theta + np.pi) / width), N_BINS - 1)] += 1
    empirical = counts / counts.sum()

    edges = np.linspace(-np.pi, np.pi, N_BINS + 1)
    target = np.empty(N_BINS)
    for i in range(N_BINS):
        grid = np.linspace(edges[i], edges[i + 1], 401)
        dens = np.exp(-two_pole_energy(grid, params.tau_energy)
                      / cfg.dyn_temperature)
        target[i] = np.trapezoid(dens, grid)
    target /= target.sum()
    return 0.5 * float(np.abs(empirical - target).sum())


def equipartition_mean_sq(dim: int, dyn_temperature: float,
                          n_steps: int = 100_000, burn_in: int = 5_000,
                          seed: int = 31) -> float:
    """Long-run mean ||v||^2 of the free (U == 0) dissipative flow."""
    cfg = SamplerConfig(step_size=0.05, friction=1.0,
                        dyn_temperature=dyn_temperature)
    rng = np.random.default_rng(seed)
    z = UnitVector(np.eye(dim)[0])
    state = ChainState(z, TangentVector(np.zeros(dim), z))
    total = 0.0
    for t in range(burn_in + n_steps):
        state = dshd_step(state, None, EnergyParams(), cfg,
                          noise=rng.standard_normal(dim))
        if t >= burn_in:
            total += _norm(state.momentum.coords) ** 2
    return total / n_steps
