import numpy as np
import pytest

import moistflow as mf

from conftest import clipped_q_factors, random_band_limited

# arbitrary test constants with easy arithmetic
TEST_CONSTANTS = mf.PhysConstants(c_pd=1000.0, c_pv=2000.0, c_l=4000.0)


def const_values(grid, v):
    return np.full(grid.shape, v)


def random_q(grid, bases, seed, scale=0.02):
    vals = scale * random_band_limited(grid, bases, seed=seed)
    return np.abs(vals)


class TestMixedHeatCapacity:
    def test_dry_limit(self, grid8):
        z = const_values(grid8, 0.0)
        out = mf.mixed_heat_capacity(z, z, z, TEST_CONSTANTS)
        assert np.all(out == 1000.0)

    def test_direct_substitution(self, grid8):
        out = mf.mixed_heat_capacity(const_values(grid8, 0.01),
                                     const_values(grid8, 0.005),
                                     const_values(grid8, 0.002), TEST_CONSTANTS)
        assert out == pytest.approx(1048.0)

    def test_random_against_scalar_oracle(self, grid8, bases8):
        qv = random_q(grid8, bases8, 1)
        qc = random_q(grid8, bases8, 2)
        qr = random_q(grid8, bases8, 3)
        out = mf.mixed_heat_capacity(qv, qc, qr, TEST_CONSTANTS)
        c = TEST_CONSTANTS
        for idx in [(0, 0, 0), (3, 2, 5), (7, 7, 8), (1, 6, 4)]:
            expected = c.c_pd + c.c_pv * qv[idx] + c.c_l * (qc[idx] + qr[idx])
            assert out[idx] == pytest.approx(expected, rel=1e-15)


class TestMixedGasConstant:
    def test_dry_limit(self, grid8):
        z = const_values(grid8, 0.0)
        out = mf.mixed_gas_constant(z, z, z, TEST_CONSTANTS)
        assert np.all(out == 0.0)

    def test_random_against_scalar_oracle(self, grid8, bases8):
        qv = random_q(grid8, bases8, 4)
        qc = random_q(grid8, bases8, 5)
        qr = random_q(grid8, bases8, 6)
        out = mf.mixed_gas_constant(qv, qc, qr, TEST_CONSTANTS)
        c = TEST_CONSTANTS
        for idx in [(0, 1, 2), (5, 5, 5), (7, 0, 8)]:
            expected = ((c.c_pv / c.c_pd * c.R_d - c.R_v) * qv[idx]
                        + c.c_l / c.c_pd * c.R_d * (qc[idx] + qr[idx]))
            assert out[idx] == pytest.approx(expected, rel=1e-14)


class TestLatentHeat:
    def test_reference_point(self, grid8):
        T = const_values(grid8, TEST_CONSTANTS.T_ref)
        out = mf.latent_heat(T, TEST_CONSTANTS)
        assert out == pytest.approx(TEST_CONSTANTS.L_ref)

    def test_degenerate_slope(self, grid8):
        c = mf.PhysConstants(c_pv=3000.0, c_l=3000.0)
        T = const_values(grid8, 999.0)
        assert mf.latent_heat(T, c) == pytest.approx(c.L_ref)

    def test_random_affine_oracle(self, grid8, bases8):
        T = 250.0 + 30.0 * random_band_limited(grid8, bases8, seed=9)
        out = mf.latent_heat(T, TEST_CONSTANTS)
        c = TEST_CONSTANTS
        expected = c.L_ref + (c.c_pv - c.c_l) * (T - c.T_ref)
        assert np.allclose(out, expected, rtol=1e-15)


class TestPressure:
    def test_unit_normalization(self, grid8):
        out = mf.pressure_values(const_values(grid8, 1.0), const_values(grid8, 0.0),
                                 const_values(grid8, 1.0), TEST_CONSTANTS)
        assert out == pytest.approx(TEST_CONSTANTS.R_d)

    def test_bilinearity(self, grid8):
        out = mf.pressure_values(const_values(grid8, 2.0), const_values(grid8, 0.0),
                                 const_values(grid8, 3.0), TEST_CONSTANTS)
        assert out == pytest.approx(6.0 * TEST_CONSTANTS.R_d)

    def test_random_oracle(self, grid8, bases8):
        rho = 1.0 + 0.2 * random_band_limited(grid8, bases8, seed=10)
        qv = random_q(grid8, bases8, 11)
        T = 270.0 + 10.0 * random_band_limited(grid8, bases8, seed=12)
        out = mf.pressure_values(rho, qv, T, TEST_CONSTANTS)
        c = TEST_CONSTANTS
        expected = rho * (c.R_d + c.R_v * qv) * T
        assert np.allclose(out, expected, rtol=1e-15)

    def test_nonpositive_density_rejected(self, grid8):
        with pytest.raises(ValueError, match="positive"):
            mf.pressure_values(const_values(grid8, 0.0), const_values(grid8, 0.0),
                               const_values(grid8, 1.0), TEST_CONSTANTS)


class TestPotentialTemperature:
    def test_reference_pressure(self, grid8):
        T = const_values(grid8, 280.0)
        p = const_values(grid8, TEST_CONSTANTS.p_ref)
        out = mf.potential_temperature(T, p, TEST_CONSTANTS)
        assert out == pytest.approx(280.0)

    def test_zero_temperature(self, grid8):
        out = mf.potential_temperature(const_values(grid8, 0.0),
                                       const_values(grid8, 5.0e4), TEST_CONSTANTS)
        assert np.all(out == 0.0)

    def test_round_trip_inverse(self, grid8, bases8):
        c = TEST_CONSTANTS
        T = 270.0 + 10.0 * random_band_limited(grid8, bases8, seed=13)
        p = c.p_ref * (1.0 + 0.3 * np.abs(random_band_limited(grid8, bases8, seed=14)))
        theta = mf.potential_temperature(T, p, c)
        expo = (c.gamma - 1.0) / c.gamma
        back = theta * (p / c.p_ref) ** expo
        assert np.allclose(back, T, rtol=1e-12)


class TestMoistDensity:
    def test_dry_limit(self, grid8):
        rho = const_values(grid8, 1.3)
        z = const_values(grid8, 0.0)
        assert mf.moist_density(rho, z, z, z) == pytest.approx(1.3)

    def test_substitution(self, grid8):
        out = mf.moist_density(const_values(grid8, 1.0), const_values(grid8, 0.1),
                               const_values(grid8, 0.2), const_values(grid8, 0.3))
        assert out == pytest.approx(1.6)

    def test_random_oracle(self, grid8, bases8):
        rho = 1.0 + 0.1 * random_band_limited(grid8, bases8, seed=15)
        qv, qc, qr = (random_q(grid8, bases8, s) for s in (16, 17, 18))
        out = mf.moist_density(rho, qv, qc, qr)
        expected = rho * (1.0 + qv + qc + qr)
        assert np.allclose(out, expected, rtol=1e-15)


class TestQFactors:
    def test_dry_limit_clipped(self, grid8):
        z = const_values(grid8, 0.0)
        c = TEST_CONSTANTS
        Q_m, Q_th, Q_cp, Q_1, Q_2 = clipped_q_factors(z, z, z, c)
        assert np.all(Q_m == 1.0)
        assert Q_th == pytest.approx(c.c_pd / c.gamma)
        assert Q_cp == pytest.approx(-c.R_d)
        assert Q_1 == pytest.approx(c.c_pv - c.c_l - c.R_v)
        assert Q_2 == pytest.approx(c.L_ref - (c.c_pv - c.c_l) * c.T_ref)

    def test_clip_active_on_negative_input(self, grid8):
        qv = const_values(grid8, -0.5)
        z = const_values(grid8, 0.0)
        Q_m = clipped_q_factors(qv, z, z, TEST_CONSTANTS)[0]
        assert np.all(Q_m == 1.0)

    def test_clipped_q_cp_uses_clipped_vapor(self, grid8):
        qv = const_values(grid8, -0.5)
        z = const_values(grid8, 0.0)
        Q_cp = clipped_q_factors(qv, z, z, TEST_CONSTANTS)[2]
        assert np.all(Q_cp == -TEST_CONSTANTS.R_d)

    def test_raw_keeps_negative_input(self, grid8):
        qv = const_values(grid8, -0.5)
        z = const_values(grid8, 0.0)
        Q_m = mf.q_factor_values(qv, z, z, TEST_CONSTANTS)[0]
        assert Q_m == pytest.approx(0.5)

    def test_clipped_q_m_at_least_one(self, grid8, bases8):
        values = [0.5 * random_band_limited(grid8, bases8, seed=s) for s in (20, 21, 22)]
        Q_m = clipped_q_factors(*values, TEST_CONSTANTS)[0]
        assert np.all(Q_m >= 1.0)


class TestAlgebraicIdentities:
    """The coefficient-field identities, checked on random nonnegative
    inputs against the independently computed closures."""

    def _random_inputs(self, grid, bases, n_seeds=4):
        for s in range(n_seeds):
            yield (random_q(grid, bases, 100 + 3 * s),
                   random_q(grid, bases, 101 + 3 * s),
                   random_q(grid, bases, 102 + 3 * s))

    def test_q_cp_identity(self, grid8, bases8):
        c = TEST_CONSTANTS
        for qv, qc, qr in self._random_inputs(grid8, bases8):
            Q_cp = mf.q_factor_values(qv, qc, qr, c)[2]
            sigma = mf.mixed_gas_constant(qv, qc, qr, c)
            c_nu = mf.mixed_heat_capacity(qv, qc, qr, c)
            expected = sigma - (c.R_d / c.c_pd) * c_nu
            assert np.allclose(Q_cp, expected, rtol=1e-12)

    def test_q_th_identity(self, grid8, bases8):
        c = TEST_CONSTANTS
        for qv, qc, qr in self._random_inputs(grid8, bases8):
            Q_th = mf.q_factor_values(qv, qc, qr, c)[1]
            sigma = mf.mixed_gas_constant(qv, qc, qr, c)
            c_nu = mf.mixed_heat_capacity(qv, qc, qr, c)
            assert np.allclose(Q_th, c_nu / c.gamma + sigma, rtol=1e-12)

    def test_q_1_collapse(self, grid8, bases8):
        c = TEST_CONSTANTS
        for qv, qc, qr in self._random_inputs(grid8, bases8):
            sigma = mf.mixed_gas_constant(qv, qc, qr, c)
            c_nu = mf.mixed_heat_capacity(qv, qc, qr, c)
            q1_long = (c.R_v / (c.R_d + c.R_v * qv)
                       * (sigma - c.R_d / c.c_pd * c_nu) + c.c_pv - c.c_l)
            assert np.allclose(q1_long, c.c_pv - c.c_l - c.R_v, rtol=1e-12)
