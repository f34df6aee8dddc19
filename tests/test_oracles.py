"""The frozen constants and closed forms the tests use equal what the oracle
scripts in tests/oracles/ compute."""

import numpy as np
import pytest

from dynamics_checks import two_pole_energy
from oracles import energy_constants, gibbs_density, loss_constants
from test_energy import E_HALF_WEIGHT, SHIFT_037
from test_losses import (
    CE_UNIFORM_4,
    CONTRASTIVE_ANTIPODE,
    CONTRASTIVE_ORTH,
    GCE_HALF_07,
    HAMBR_ORTH,
    REG_ONE_CLASS,
    SHARPEN_08_02,
)


@pytest.mark.parametrize("frozen, oracle, label", [
    (E_HALF_WEIGHT, energy_constants, "k=z w=0.5 tau=1"),
    (SHIFT_037, energy_constants, "shift lam=0.37"),
    (GCE_HALF_07, loss_constants, "gce(0.5, 0.7)"),
    (HAMBR_ORTH, loss_constants, "hambr orthogonal"),
    (CE_UNIFORM_4, loss_constants, "ce uniform C=4"),
    (SHARPEN_08_02[0], loss_constants, "sharpen p0"),
    (SHARPEN_08_02[1], loss_constants, "sharpen p1"),
    (REG_ONE_CLASS, loss_constants, "reg one-class C=2"),
    (CONTRASTIVE_ORTH, loss_constants, "contrastive orth"),
    (CONTRASTIVE_ANTIPODE, loss_constants, "contrastive antipode"),
])
def test_frozen_constant_is_its_oracle_value_bit_for_bit(frozen, oracle, label):
    assert frozen.hex() == oracle.constants()[label].hex()


def test_two_pole_energy_is_the_gibbs_oracle_potential():
    theta = np.linspace(-np.pi, np.pi, 14_401)
    want = np.array([gibbs_density.potential(t) for t in theta])
    got = two_pole_energy(theta, gibbs_density.TAU)
    assert np.max(np.abs(got - want)) <= 1e-15
