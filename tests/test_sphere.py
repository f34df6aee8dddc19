"""Geometry primitive tests: unit vectors, tangent spaces, geodesics, transport."""

import numpy as np
import pytest

from hambr.sphere import (
    AntipodalTransport,
    DegenerateVector,
    TangentVector,
    UnitVector,
    geodesic_step,
    normalize,
    project_tangent,
    sample_tangent_gaussian,
    transport,
)


def e(i, d=3):
    v = np.zeros(d)
    v[i] = 1.0
    return UnitVector(v)


def random_state(rng, d):
    z = normalize(rng.standard_normal(d))
    v = project_tangent(rng.standard_normal(d), z)
    return z, v


class TestUnitVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0, 1.0]))

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            UnitVector(np.array([bad, 0.0, 0.0]))
        with pytest.raises(ValueError):
            UnitVector(np.array([0.6, 0.8, bad]))

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
