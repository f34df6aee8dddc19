"""Dissipative Hamiltonian dynamics on the sphere for virtual-outlier synthesis.

Chains start at midpoints between class prototypes and evolve under the global
potential with friction and (optionally tempered) tangent noise.  The split
step is: damped kick, geodesic flow (`sphere.geodesic_flow`, Spherical HMC's
closed form), half-kick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsonl import write_rows
from ._rules import check_rules, rule
from .energy import EnergyParams, EmptyBank, global_potential, riemannian_grad_U
from .sphere import (
    ANTIPODAL_TOL,
    TangentVector,
    UnitVector,
    check_unit_rows,
    geodesic_flow,
    normalize,
    project_tangent,
    sample_tangent_gaussian,
)

VARIANTS = ("exponential", "euler")
RESAMPLE_ATTEMPTS = 8      # antipodal prototype pairs get this many redraws
FALLBACK_PERTURBATION = 1e-3


class InsufficientPrototypes(ValueError):
    """Chain initialization needs at least two prototypes."""


@dataclass(frozen=True)
class SamplerConfig:
    step_size: float = rule("positive and finite", 0.01)
    friction: float = rule("non-negative and finite", 0.95)
    n_rounds: int = rule(">= 1", 5)  # momentum noise is redrawn once per round
    steps_per_round: int = rule(">= 1", 3)
    n_chains: int = rule(">= 1", 32)
    dyn_temperature: float = rule("positive and finite", 0.01)
    integrator_variant: str = rule(VARIANTS, "exponential")
    seed: int = 0

    def __post_init__(self):
        check_rules(self)
        # euler damps by 1 - friction * step_size, which must not go negative
        if self.integrator_variant == "euler" and self.friction * self.step_size > 1:
            raise ValueError("friction * step_size must be <= 1 for the euler variant, "
                             f"got {self.friction * self.step_size}")


@dataclass(frozen=True)
class ChainState:
    position: UnitVector
    momentum: TangentVector


@dataclass(frozen=True)
class VirtualOutlierSet:
    """Row i of `outliers` (n, d) is chain i's final position, at `potentials[i]`."""

    outliers: np.ndarray
    potentials: np.ndarray

    def __len__(self) -> int:
        return len(self.outliers)


def _init_pair(prototypes: np.ndarray, rng: np.random.Generator) -> ChainState:
    """A chain at the midpoint of a random pair of rows of `prototypes` (k, d)."""
    n = len(prototypes)
    for _ in range(RESAMPLE_ATTEMPTS):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = prototypes[i], prototypes[j]
        if float(np.dot(a, b)) >= -1.0 + ANTIPODAL_TOL:
            pos = normalize(a + b)
            break
    else:
        # every draw was (near-)antipodal: nudge one endpoint tangentially so
        # the midpoint direction is well defined
        u = normalize(sample_tangent_gaussian(UnitVector(a), rng))
        nudged = normalize(a + FALLBACK_PERTURBATION * u.coords)
        pos = normalize(nudged.coords + b)
    return ChainState(pos, TangentVector(sample_tangent_gaussian(pos, rng), pos))


def dshd_step(state: ChainState, bank, params: EnergyParams, cfg: SamplerConfig,
              noise: np.ndarray) -> ChainState:
    """One split step of the dissipative dynamics: damped kick, geodesic
    flow, half-kick.  `sphere.geodesic_flow` turns z and v together along z's
    great circle in direction v, so an arc that reaches the antipode still runs.

    `noise` is a raw ambient Gaussian draw, projected onto the current tangent
    space; `run_chain` reuses one draw for every step of a round.  `bank=None`
    means a zero potential, which the conservation and equipartition tests
    rely on.  The bank's snapshot remembers the gradient at z_new, so when
    the next step starts there it asks for that gradient at no cost.  Only
    the returned state's two wrappers check it: tangent vectors pass as arrays.
    """
    z, v = state.position, state.momentum.coords
    eps, gam, temp = cfg.step_size, cfg.friction, cfg.dyn_temperature

    grad = riemannian_grad_U(z, bank, params) if bank is not None else 0.0
    xi = project_tangent(noise, z)

    if cfg.integrator_variant == "exponential":
        alpha = np.exp(-gam * eps)      # exact OU damping over one step
        sigma = np.sqrt((1.0 - alpha * alpha) * temp)
    else:
        alpha = 1.0 - gam * eps
        sigma = np.sqrt(2.0 * gam * eps * temp)
    v_half = alpha * v - 0.5 * eps * grad + sigma * xi

    z_new, v_new = geodesic_flow(z, v_half, eps)
    if bank is not None:
        v_new = v_new - 0.5 * eps * riemannian_grad_U(z_new, bank, params)

    return ChainState(z_new, TangentVector(v_new, z_new))


def run_chain(state: ChainState, bank, params: EnergyParams, cfg: SamplerConfig,
              rng: np.random.Generator) -> ChainState:
    """Advance one chain for n_rounds * steps_per_round steps.

    The ambient noise vector is drawn once per round and re-projected at each
    step of the round.
    """
    d = state.position.dim
    for _ in range(cfg.n_rounds):
        xi = rng.standard_normal(d)
        for _ in range(cfg.steps_per_round):
            state = dshd_step(state, bank, params, cfg, noise=xi)
    return state


def synthesize_outliers(bank, prototypes, params: EnergyParams,
                        cfg: SamplerConfig) -> VirtualOutlierSet:
    """Run cfg.n_chains independent chains and collect their final positions.

    Each chain starts at the midpoint of a random pair of rows of
    `prototypes`, a (k, d) array of unit rows with k >= 2 and d the bank's
    dimension.  Each chain owns a SeedSequence child keyed by (cfg.seed,
    chain index), so results do not depend on scheduling order.  No
    accept/reject step.
    """
    snap = bank.snapshot()
    if len(snap) == 0:
        raise EmptyBank("cannot synthesize against an empty bank")
    protos = np.asarray(prototypes, dtype=np.float64)
    if protos.ndim != 2:
        raise ValueError(f"prototypes must be a (k, d) array, got shape {protos.shape}")
    if len(protos) < 2:
        raise InsufficientPrototypes(f"need >= 2 prototypes, got {len(protos)}")
    if protos.shape[1] != snap.dim:
        raise ValueError(f"prototypes have dimension {protos.shape[1]}, "
                         f"the bank's features have dimension {snap.dim}")
    check_unit_rows(protos, "prototype")
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains + 1)
    rng_init = np.random.default_rng(children[0])
    starts = [_init_pair(protos, rng_init) for _ in range(cfg.n_chains)]

    outliers = np.empty((cfg.n_chains, snap.dim))
    potentials = np.empty(cfg.n_chains)
    for idx, state in enumerate(starts):
        rng = np.random.default_rng(children[idx + 1])
        state = run_chain(state, snap, params, cfg, rng)
        outliers[idx] = state.position.coords
        potentials[idx] = global_potential(state.position, snap, params)[0]
    return VirtualOutlierSet(outliers, potentials)


def dump_outliers(oset: VirtualOutlierSet, fh) -> None:
    """One row per chain, json.dumps's text of {"chain": i, "outlier": [...], "potential": u}."""
    write_rows(fh, '{"chain": {}, "outlier": {}, "potential": {}}\n',
               range(len(oset)), oset.outliers, oset.potentials)
