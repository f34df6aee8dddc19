"""Geometry primitive tests: unit vectors, tangent spaces, geodesics, transport."""

import io
import json
import re

import numpy as np
import pytest

from hambr.energy import BankSnapshot, EnergyParams, load_bank
from hambr.sampler import SamplerConfig, synthesize_outliers
from hambr.sphere import (
    NORM_TOL,
    AntipodalTransport,
    DegenerateVector,
    TangentVector,
    UnitVector,
    check_unit_rows,
    geodesic_step,
    normalize,
    project_tangent,
    _norm,
    sample_tangent_gaussian,
    transport,
)
from hambr.synthgen import sample_vmf


def e(i, d=3):
    v = np.zeros(d)
    v[i] = 1.0
    return UnitVector(v)


def random_state(rng, d):
    z = normalize(rng.standard_normal(d))
    v = project_tangent(rng.standard_normal(d), z)
    return z, v


class TestUnitVector:
    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0]))

    def test_coords_are_read_only(self):
        z = e(0)
        with pytest.raises(ValueError):
            z.coords[0] = 0.5


class TestTangentVector:
    def test_rejects_non_tangent(self):
        with pytest.raises(ValueError):
            TangentVector(np.array([1.0, 0.0, 0.0]), e(0))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            TangentVector(np.array([0.0, 1.0]), e(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # at e0 a bad coordinate off the base axis makes <v, z> = bad * 0 = NaN
        for coords in ([bad, 1.0, 0.0], [0.0, bad, 0.0], [0.0, 1.0, bad]):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                TangentVector(np.array(coords), e(0))

    def test_norm(self):
        v = TangentVector(np.array([0.0, 3.0, 4.0]), e(0))
        assert v.norm == pytest.approx(5.0)


class TestNorms:
    # the primitives take 1-d norms as sqrt(v.dot(v)) instead of np.linalg.norm;
    # 1e-200 and 1e200 underflow and overflow the squares
    @pytest.mark.parametrize("d", [2, 3, 8, 32, 1000])
    @pytest.mark.parametrize("scale", [1e-200, 1e-6, 1.0, 1e6, 1e200])
    def test_bitwise_equal_to_linalg_norm(self, d, scale):
        rng = np.random.default_rng([d, int(np.log10(scale)) + 300])
        with np.errstate(over="ignore"):  # both overflow alike
            for v in rng.standard_normal((200, d)) * scale:
                assert _norm(v) == np.linalg.norm(v)

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_wrappers_and_normalize_match_linalg_bitwise(self, d):
        rng = np.random.default_rng(d)
        for v in rng.standard_normal((200, d)):
            z = normalize(v)
            assert z.coords.tobytes() == (v / np.linalg.norm(v)).tobytes()
            t = project_tangent(rng.standard_normal(d), z)
            assert t.norm == np.linalg.norm(t.coords)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_is_what_linalg_gives(self, bad):
        v = np.array([1.0, bad, 0.0])
        assert np.array_equal(_norm(v), np.linalg.norm(v), equal_nan=True)


def edge_rows(d, n=200):
    """n rows whose norms sit within a few ulps of 1 - NORM_TOL and 1 + NORM_TOL,
    where the tolerance alone decides."""
    rng = np.random.default_rng([d, 9])
    rows = rng.standard_normal((n, d))
    rows /= np.array([_norm(v) for v in rows])[:, None]
    edges = np.where(np.arange(n) % 2, 1.0 + NORM_TOL, 1.0 - NORM_TOL)
    return rows * (edges + rng.integers(-40, 40, n) * 2.0 ** -52)[:, None]


def unit_vector_accepts(v) -> bool:
    try:
        UnitVector(v)
    except ValueError:
        return False
    return True


# every entry point that takes unit vectors, called with the one vector v
UNIT_ENTRY_POINTS = {
    "UnitVector": UnitVector,
    "check_unit_rows": lambda v: check_unit_rows(v[None], "row"),
    "sample_vmf": lambda v: sample_vmf(v, 1.0, 1, np.random.default_rng(0)),
    "BankSnapshot": lambda v: BankSnapshot(v[None], [1.0], [0]),
    "synthesize_outliers": lambda v: synthesize_outliers(
        BankSnapshot(np.eye(v.size)[:1], [1.0], [0]), np.stack([v, v]), EnergyParams(),
        SamplerConfig(n_rounds=1, steps_per_round=1, n_chains=1)),
    "load_bank": lambda v: load_bank(io.StringIO(json.dumps(
        {"class": 0, "weight": 1.0, "feature": v.tolist()}))),
}


def accepts(entry, v) -> bool:
    try:
        UNIT_ENTRY_POINTS[entry](v)
    except ValueError:
        return False
    return True


class TestOneNormRule:
    """Every entry point that takes unit vectors takes one norm, so they all
    accept exactly the same vectors."""

    @pytest.mark.parametrize("entry", UNIT_ENTRY_POINTS)
    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_entry_point_accepts_what_unit_vector_accepts(self, entry, d):
        rows = edge_rows(d, n=60)
        want = [unit_vector_accepts(v) for v in rows]
        assert 0 < sum(want) < len(rows)
        assert [accepts(entry, v) for v in rows] == want

    @pytest.mark.parametrize("entry", UNIT_ENTRY_POINTS)
    @pytest.mark.parametrize("v", [
        [2.0, 0.0, 0.0], [3.0, 4.0], [0.0, 0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0],
        [1.0 + 2 * NORM_TOL, 0.0], [1.0 - 2 * NORM_TOL, 0.0, 0.0], [1.0, 1.0],
        *([bad, 0.0, 0.0] for bad in (np.nan, np.inf, -np.inf)),
        *([0.6, 0.8, bad] for bad in (np.nan, np.inf, -np.inf)),
    ], ids=repr)
    def test_entry_point_rejects_off_norm_vectors(self, entry, v):
        assert not accepts(entry, np.array(v))

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_check_unit_rows_accepts_what_unit_vector_accepts(self, d):
        rows = edge_rows(d)
        accepted = np.array([unit_vector_accepts(v) for v in rows])
        assert 0 < accepted.sum() < len(rows)
        good = rows[accepted]
        for order in "CF":
            check_unit_rows(np.array(good, order=order), "row")
            for v in rows[~accepted]:
                pair = np.array([good[0], v], order=order)
                with pytest.raises(ValueError, match="^" + re.escape(
                        f"row 1 is not unit norm: |v| = {_norm(v)}") + "$"):
                    check_unit_rows(pair, "row")

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_load_bank_accepts_what_unit_vector_accepts(self, d):
        for v in edge_rows(d):
            line = json.dumps({"class": 0, "weight": 1.0, "feature": v.tolist()})
            if unit_vector_accepts(v):
                assert load_bank(io.StringIO(line)).features(0).tobytes() == v.tobytes()
            else:
                with pytest.raises(ValueError, match="^" + re.escape(
                        f"bank line 1: feature is not unit norm: |v| = {_norm(v)}") + "$"):
                    load_bank(io.StringIO(line))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32, 64])
    def test_check_unit_rows_norm_is_norm_bitwise(self, d, order):
        # rows of norm 1.5 to 3 all fail, and the message gives each row's norm
        rng = np.random.default_rng([d, 10])
        rows = rng.standard_normal((100, d))
        rows *= rng.uniform(1.5, 3.0, (100, 1)) / np.linalg.norm(rows, axis=1)[:, None]
        for v in rows:
            pair = np.array([v, rows[0]], order=order)
            with pytest.raises(ValueError, match=re.escape(f"|v| = {_norm(v)}") + "$"):
                check_unit_rows(pair, "row")


class TestNormalize:
    def test_scales_three_four(self):
        out = normalize(np.array([3.0, 4.0]))
        assert np.allclose(out.coords, [0.6, 0.8])

    def test_identity_on_unit_input(self):
        out = normalize(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out.coords, [1.0, 0.0, 0.0])

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVector):
            normalize(np.array([0.0, 0.0]))


class TestProjectTangent:
    def test_parallel_component_removed(self):
        out = project_tangent(np.array([1.0, 0.0]), e(0, d=2))
        assert np.allclose(out.coords, [0.0, 0.0])

    def test_already_tangent(self):
        out = project_tangent(np.array([0.0, 1.0]), e(0, d=2))
        assert np.allclose(out.coords, [0.0, 1.0])

    def test_subtracts_radial_part(self):
        out = project_tangent(np.array([1.0, 1.0]), e(0, d=2))
        assert np.allclose(out.coords, [0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = normalize(rng.standard_normal(5))
            once = project_tangent(rng.standard_normal(5), z)
            twice = project_tangent(once.coords, z)
            assert np.allclose(once.coords, twice.coords, atol=1e-14)


class TestGeodesicStep:
    def test_quarter_great_circle(self):
        v = TangentVector(np.array([0.0, np.pi / 2, 0.0]), e(0))
        out = geodesic_step(e(0), v, 1.0)
        assert np.allclose(out.coords, e(1).coords, atol=1e-12)

    def test_zero_momentum_stays_put(self):
        v = TangentVector(np.zeros(3), e(0))
        out = geodesic_step(e(0), v, 0.1)
        assert np.allclose(out.coords, e(0).coords)

    def test_full_period_return(self):
        v = TangentVector(np.array([0.0, 2 * np.pi, 0.0]), e(0))
        out = geodesic_step(e(0), v, 1.0)
        assert np.allclose(out.coords, e(0).coords, atol=1e-12)

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z, v = random_state(rng, 4)
            out = geodesic_step(z, v, rng.uniform(0.0, 3.0))
            assert abs(np.linalg.norm(out.coords) - 1.0) <= 1e-9

    def test_reversibility_with_transported_momentum(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z, v = random_state(rng, 5)
            eps = rng.uniform(0.01, 1.0)
            z2 = geodesic_step(z, v, eps)
            back = transport(TangentVector(-v.coords, z), z, z2)
            z3 = geodesic_step(z2, back, eps)
            assert np.allclose(z3.coords, z.coords, atol=1e-6)


class TestTransport:
    def test_quarter_turn_rotates_into_minus_from(self):
        v = TangentVector(np.array([0.0, 1.0, 0.0]), e(0))
        out = transport(v, e(0), e(1))
        assert np.allclose(out.coords, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_same_point_is_identity(self):
        v = TangentVector(np.array([0.0, 0.3, -0.2]), e(0))
        out = transport(v, e(0), e(0))
        assert np.allclose(out.coords, v.coords)

    def test_orthogonal_component_unchanged(self):
        v = TangentVector(np.array([0.0, 0.0, 1.0]), e(0))
        out = transport(v, e(0), e(1))
        assert np.allclose(out.coords, [0.0, 0.0, 1.0], atol=1e-12)

    def test_antipodal_raises(self):
        v = TangentVector(np.array([0.0, 1.0, 0.0]), e(0))
        minus = UnitVector(-e(0).coords)
        with pytest.raises(AntipodalTransport):
            transport(v, e(0), minus)

    def test_preserves_norm_and_lands_tangent(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            z, v = random_state(rng, 6)
            z2 = normalize(rng.standard_normal(6))
            if float(z.coords @ z2.coords) < -1.0 + 1e-6:
                continue
            out = transport(v, z, z2)
            assert abs(out.norm - v.norm) <= 1e-9
            assert abs(float(out.coords @ z2.coords)) <= 1e-9


class TestSampleTangentGaussian:
    def test_fixed_seed_is_tangent_and_deterministic(self):
        a = sample_tangent_gaussian(e(0), np.random.default_rng(0))
        b = sample_tangent_gaussian(e(0), np.random.default_rng(0))
        assert a.coords[0] == 0.0
        assert np.array_equal(a.coords, b.coords)

    def test_mean_tends_to_zero(self):
        d, n = 5, 100_000
        rng = np.random.default_rng(23)
        z = normalize(rng.standard_normal(d))
        draws = np.array([sample_tangent_gaussian(z, rng).coords for _ in range(n)])
        # each projected coordinate has variance <= 1
        assert np.all(np.abs(draws.mean(axis=0)) < 3.0 / np.sqrt(n))

    def test_expected_squared_norm_is_d_minus_one(self):
        d, n = 8, 100_000
        rng = np.random.default_rng(29)
        z = normalize(rng.standard_normal(d))
        sq = [sample_tangent_gaussian(z, rng).norm ** 2 for _ in range(n)]
        assert np.mean(sq) == pytest.approx(d - 1, rel=0.02)
