"""Differential suite: every energy entry point against tests/reference.py
over every case of its seeded table of edge banks, `reference.EDGE_CASES`,
at the bound each test states.  A new kernel joins as one more test taking
the `case` fixture."""

import types

import numpy as np
import pytest

from hambr import energy
from hambr.energy import (
    BankSnapshot,
    EnergyParams,
    class_free_energy,
    global_potential,
    potential_batch,
    riemannian_grad_U,
    _top_k,
)
from hambr.sphere import UnitVector
from reference import (
    EDGE_CASES,
    bank_rows,
    central_difference,
    class_energies,
    edge_case,
    reference_gradient,
    stable_top_k,
    unblocked_potential_batch,
)


@pytest.fixture(scope="module", params=EDGE_CASES)
def case(request):
    """A table case with its snapshot, its params, and the reference's (n, C)
    class energies and largest similarities at its probes; module scope
    builds each bank once."""
    groups, points, k, tau = edge_case(request.param)
    return types.SimpleNamespace(
        name=request.param, groups=groups, points=points,
        snap=BankSnapshot(*bank_rows(groups)),
        params=EnergyParams(tau_energy=tau, k_neighbors=k),
        energies=class_energies(points, groups, k, tau)[0],
        top=np.stack([(points @ f.T).max(axis=1) for f, _ in groups.values()], axis=1))


def leading(case, most):
    """The leading `most` probes, fewer where their similarities to the bank
    would pass 2^17: the scalar queries score one point at a time."""
    return case.points[:max(1, min(most, (1 << 17) // len(case.snap)))]


def assert_top_k_is_the_stable_sort(sims, weights, k):
    got = _top_k(sims, weights, k)
    assert (got[2] is None) == (k >= sims.shape[1])
    if got[2] is None:  # k covers the row: it comes back as given
        assert got[0] is sims and got[1] is weights
        return
    for a, b in zip(got, stable_top_k(sims, weights, k)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_top_k_is_the_stable_sort(case):
    """Bitwise, over each class's first row block of `potential_batch` and
    its first row alone (shared weights) and the padded-stack rows `_scan`
    selects from (per-row weights, -inf padding) at the probes that fit one
    block: the similarities at K, and at K and 1 the integers below four
    times them, -inf below -2, where nearly every row ties at its k-th value."""
    snap, points, k = case.snap, case.points, case.params.k_neighbors
    selections = []
    for feats, weights in case.groups.values():
        r, stop = energy._row_blocks(len(points), len(weights))[0]
        selections += [(points[r:stop] @ feats.T, weights), (points[:1] @ feats.T, weights)]
    probes = points[:max(1, energy._BLOCK_SIMS // snap._stack_bias.size)]
    stacked = (probes @ snap._stack_feats.T).reshape(-1, snap._stack_bias.shape[1])
    selections.append((stacked + np.tile(snap._stack_bias, (len(probes), 1)),
                       np.tile(snap._stack_weights, (len(probes), 1))))
    for sims, weights in selections:
        ties = np.where(sims < -0.5, -np.inf, np.floor(4.0 * sims))
        assert_top_k_is_the_stable_sort(sims, weights, k)
        assert_top_k_is_the_stable_sort(ties, weights, k)
        assert_top_k_is_the_stable_sort(ties, weights, 1)


def test_scalar_queries_match_the_reference(case):
    """global_potential and class_free_energy within 1e-12 of the
    reference's class energies, with its argmin class."""
    for z, ref in zip(leading(case, 64), case.energies):
        point = UnitVector(z)
        value, cls = global_potential(point, case.snap, case.params)
        assert cls == case.snap.classes[int(np.argmin(ref))]
        assert abs(value - ref.min()) <= 1e-12
        got = [class_free_energy(point, case.snap, c, case.params) for c in case.snap.classes]
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12


def test_gradient_matches_the_reference(case):
    """riemannian_grad_U within 1e-12 of the reference gradient, built from
    the same argmin class."""
    k, tau = case.params.k_neighbors, case.params.tau_energy
    for z in leading(case, 32):
        point = UnitVector(z)
        grad = riemannian_grad_U(point, case.snap, case.params)
        ref, cls = reference_gradient(z, case.groups, k, tau)
        assert global_potential(point, case.snap, case.params)[1] == cls
        assert np.max(np.abs(grad - ref)) <= 1e-12


def test_gradient_matches_central_differences(case):
    """At 16 probes at most, g . u within relative 1e-4 of the reference
    potential's central difference along u = (g / |g| + r) / sqrt(2), r a
    random unit tangent orthogonal to g (u = g / |g| at d = 2), so one
    stencil checks |g| and that g lacks no component along r.  The step
    h = 1e-4 tau keeps the truncation error, h^2 / 6 times U's third
    derivative (of order 1 / tau^2), near 1e-9.  Stencils across which the
    reference's selection changes are skipped, and so are points where
    |g| < 1e-7 / tau, where the rounding error, about 1e-16 / h, passes
    1e-5 |g|."""
    rng = np.random.default_rng(0)
    k, tau = case.params.k_neighbors, case.params.tau_energy
    checked = 0
    for z in leading(case, 16):
        grad = riemannian_grad_U(UnitVector(z), case.snap, case.params)
        size = np.linalg.norm(grad)
        if size < 1e-7 / tau:
            continue
        r = rng.standard_normal(z.size)
        r -= (r @ z) * z + (r @ grad) * grad / size ** 2
        u = grad / size + (r / np.linalg.norm(r) if z.size > 2 else 0.0)
        u /= np.linalg.norm(u)
        fd = central_difference(z, u, case.groups, k, tau, h=1e-4 * tau)
        if fd is not None:
            assert abs(fd - grad @ u) <= 1e-4 * abs(grad @ u)
            checked += 1
    assert checked > 0


def test_potential_batch_matches_the_reference(case):
    """At every probe and at the leading 0 to 3 (the smallest blocks):
    bitwise equal to the unblocked reference at d <= 8, within 1e-15 at
    d = 32."""
    snap, params = case.snap, case.params
    for n in (0, 1, 2, 3, len(case.points)):
        points = case.points[:n]
        got = potential_batch(points, snap, params)
        ref = (case.energies.min(axis=1) if n == len(case.points) else
               unblocked_potential_batch(points, case.groups, params.k_neighbors,
                                         params.tau_energy))
        if snap.dim <= 8:
            assert np.array_equal(got, ref)
        else:
            assert got.shape == ref.shape and np.max(np.abs(got - ref), initial=0.0) <= 1e-15


def test_potential_batch_matches_the_scalar_path(case):
    points = leading(case, 64)
    batch = potential_batch(points, case.snap, case.params)
    for z, value in zip(points, batch):
        assert abs(global_potential(UnitVector(z), case.snap, case.params)[0] - value) <= 1e-12


def test_candidates_keep_each_probes_reference_argmin(case):
    """And keep under 40% of the (point, class) pairs of clustered banks."""
    keep = energy._candidates(case.points, case.snap, case.params)
    assert keep[np.arange(len(case.points)), np.argmin(case.energies, axis=1)].all()
    if case.name.startswith("clustered"):
        assert keep.mean() < 0.4


def test_bound_offsets_bound_the_reference_energies(case):
    """Each reference energy lies in [-s - most, -s - least], s the probe's
    largest similarity to the class, with 1e-12 slack."""
    least, most = energy._bound_offsets(case.snap, case.snap.classes, case.params)
    assert np.all(-case.top - most <= case.energies + 1e-12)
    assert np.all(case.energies <= -case.top - least + 1e-12)


def test_the_case_reaches_its_edge(case):
    """By the reference, each kind reaches what it is in the table for."""
    kind, k, snap = case.name.rsplit("-", 1)[0], case.params.k_neighbors, case.snap
    wins = np.argmin(case.energies, axis=1)  # positions in snap.classes
    first = wins[:len(leading(case, 32))]  # probes the scalar and gradient tests share
    if kind.startswith("clustered") or (kind in ("under-k", "ties") and snap.dim >= 8):
        # there a class under K wins, and so do others
        assert min(snap.size(snap.classes[j]) for j in first) < k and len(set(first)) > 1
    if kind == "ties":  # at e_0 and near it class 0 wins, its (K+1)-th value its K-th
        sims = np.sort(case.points[:21] @ case.groups[0][0].T, axis=1)
        assert (wins[:21] == 0).all() and (sims[:, -k - 1] == sims[:, -k]).all()
    elif kind == "weights":  # the nearest class does not always win
        assert (wins != case.top.argmax(axis=1)).any()
    elif kind.startswith("clustered"):  # one class is kept at one probe
        keep = energy._candidates(case.points, snap, case.params)
        assert snap.dim < 8 or (keep.sum(axis=0) == 1).any()
    elif kind.startswith("blocks"):  # several row blocks, the last a short one
        blocks = energy._row_blocks(len(case.points), max(map(snap.size, snap.classes)))
        assert len(blocks) > 1 and np.diff(blocks[-1]) != np.diff(blocks[0])
