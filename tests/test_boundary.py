import numpy as np
import pytest

import moistflow as mf
from moistflow.boundary import (BoundarySpec, VariableBoundary, build_extension,
                                build_factors, robin_profile, trace_norm_check)
from moistflow.fields import ScalarField
from moistflow.spectral_ops import to_modal_values, to_phys_values

from conftest import random_band_limited


class TestRobinProfile:
    def test_zero_coefficients_give_identity(self, grid8):
        prof = robin_profile(0.0, 0.0)
        z = grid8.z
        assert np.all(prof.A(z) == 0.0)
        assert np.all(prof.B(z) == 1.0)

    def test_polynomial_values(self):
        prof = robin_profile(-2.0, 3.0)
        assert prof.A(0.0) == pytest.approx(1.0)
        assert prof.A(1.0) == pytest.approx(1.5)
        assert prof.A_prime(0.0) == pytest.approx(-2.0)
        assert prof.A_prime(1.0) == pytest.approx(3.0)

    def test_endpoint_slopes_match_fd_oracle(self):
        """One-sided second-order FD is exact for the quadratic A, so the
        residual is pure roundoff, far below 1e-8."""
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(10):
            ab, at = -3.0 * rng.random(), 3.0 * rng.random()
            prof = robin_profile(ab, at)
            fd0 = (-3 * prof.A(0.0) + 4 * prof.A(h) - prof.A(2 * h)) / (2 * h)
            fd1 = (3 * prof.A(1.0) - 4 * prof.A(1.0 - h) + prof.A(1.0 - 2 * h)) / (2 * h)
            assert abs(fd0 - ab) < 1e-8
            assert abs(fd1 - at) < 1e-8

    def test_sign_violation_names_face(self):
        with pytest.raises(ValueError, match="alpha_bottom"):
            robin_profile(0.5, 1.0, var="T")
        with pytest.raises(ValueError, match="alpha_top"):
            robin_profile(-0.5, -1.0)

    @pytest.mark.parametrize("alphas, match", [
        ((float("nan"), 0.0), "alpha_bottom must be <= 0"),
        ((0.0, float("nan")), "alpha_top must be >= 0")])
    def test_nan_coefficient_rejected(self, alphas, match):
        with pytest.raises(ValueError, match=match):
            robin_profile(*alphas)

    def test_b_positive_and_derived_profiles(self, grid8):
        prof = robin_profile(-1.0, 1.0)
        z = grid8.z
        assert np.all(prof.B(z) > 0.0)
        assert np.allclose(prof.dzz_Binv_times_B(z),
                           prof.A_prime(z) ** 2 - prof.A_second)


class TestCutoff:
    def test_plateaus_exact(self):
        assert mf.cutoff_chi0(0.1) == 1.0
        assert mf.cutoff_chi0(0.9) == 0.0
        assert mf.cutoff_chi0(0.25) == 1.0
        assert mf.cutoff_chi0(0.75) == 0.0

    def test_midpoint_symmetry(self):
        assert mf.cutoff_chi0(0.5) == pytest.approx(0.5)

    def test_monotone_nonincreasing_dense(self):
        z = np.linspace(0.0, 1.0, 2001)
        chi = mf.cutoff_chi0(z)
        assert np.all(np.diff(chi) <= 1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mf.cutoff_chi0(1.5)


class TestExtension:
    def test_constant_bottom_data(self, grid8):
        c = 2.5
        ext = build_extension(c, 0.0, grid8)
        vals = ext.values()
        # near the bottom plateau the extension is chi0 * c * z = c * z
        near = grid8.z <= 0.25
        assert np.allclose(vals[0, 0, near], c * grid8.z[near], atol=1e-14)
        assert np.allclose(ext.dz_values()[:, :, 0], c, atol=1e-14)

    def test_single_mode_closed_form(self, grid16):
        """For data cos(pi k . x), the bottom half of the extension is
        -(1/|k|) cos(pi k . x) exp(-|k| z) times the cutoff."""
        k1, k2 = 2, 1
        kmag = np.hypot(k1, k2)
        X = grid16.x[:, None]
        Y = grid16.y[None, :]
        hb = np.cos(np.pi * (k1 * X + k2 * Y))
        ext = build_extension(hb, np.zeros_like(hb), grid16)
        chi = mf.cutoff_chi0(grid16.z)
        expected = (chi[None, None, :] * (-1.0 / kmag) * hb[:, :, None]
                    * np.exp(-kmag * grid16.z)[None, None, :])
        assert np.allclose(ext.values(), expected, atol=1e-13)

    def test_wall_derivative_matches_data(self, grid16):
        rng = np.random.default_rng(4)
        hb = rng.standard_normal((16, 16))
        ht = rng.standard_normal((16, 16))
        ext = build_extension(hb, ht, grid16)
        dz = ext.dz_values()
        assert np.linalg.norm(dz[:, :, 0] - hb) <= 1e-10 * np.linalg.norm(hb)
        assert np.linalg.norm(dz[:, :, -1] - ht) <= 1e-10 * np.linalg.norm(ht)

    def test_linearity(self, grid8):
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal((8, 8))
        h2 = rng.standard_normal((8, 8))
        a = 1.7
        lhs = build_extension(a * h1 + h2, 0.5 * h1, grid8).values()
        rhs = (a * build_extension(h1, 0.0, grid8).values()
               + build_extension(h2, 0.5 * h1 / a * a, grid8).values())
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_mode_table_truncation_warns(self, grid8):
        with pytest.warns(UserWarning, match="unresolvable"):
            build_extension({(17, 0): 1.0}, 0.0, grid8)

    def test_laplacian_against_fd_oracle(self, grid16):
        rng = np.random.default_rng(6)
        ext = build_extension(rng.standard_normal((16, 16)),
                              rng.standard_normal((16, 16)), grid16)
        lap = ext.laplacian_values()
        # vertical part by FD of the analytic profiles, horizontal exact
        h = 1e-4
        z = grid16.z[4:-4]  # keep stencil inside [0, 1]
        prof = ext.mode_profiles(z, 0)
        fd_zz = (ext.mode_profiles(z + h, 0) - 2 * prof
                 + ext.mode_profiles(z - h, 0)) / h**2
        modal_lap = fd_zz - (np.pi**2 * ext.kmag**2)[:, :, None] * prof
        expected = np.real(np.fft.ifft2(modal_lap, axes=(0, 1), norm="forward"))
        assert np.allclose(lap[:, :, 4:-4], expected, rtol=1e-5, atol=1e-4)

    def test_horizontal_derivatives_against_fft(self, grid16):
        """dx_values / dy_values equal the FFT x/y derivative of values()
        for wall data whose modes lie below Nyquist at both walls."""
        X = grid16.x[:, None]
        Y = grid16.y[None, :]
        hb = np.cos(np.pi * (2 * X + Y)) + 0.5 * np.sin(np.pi * (3 * X - 2 * Y))
        ht = 0.2 + 0.7 * np.cos(np.pi * (X - 3 * Y))
        ext = build_extension(hb, ht, grid16)
        vals = ext.values()
        modal = np.fft.fft2(vals, axes=(0, 1))
        for axis, got in ((0, ext.dx_values()), (1, ext.dy_values())):
            n = vals.shape[axis]
            shape = [1, 1, 1]
            shape[axis] = n
            kappa = (np.pi * np.fft.fftfreq(n, d=1.0 / n)).reshape(shape)
            expected = np.real(np.fft.ifft2(1j * kappa * modal, axes=(0, 1)))
            assert np.max(np.abs(expected)) > 0.1
            assert np.max(np.abs(got - expected)) <= 1e-12


    def test_accessors_build_the_deriv0_profile_once(self, grid16, nondim,
                                                     monkeypatch):
        """On a saturated_layer with wall modes, the five accessors are
        bitwise the inverse transforms of freshly built modal profiles, and
        the deriv-0 profile is built once for the four that use it."""
        _, bspec = mf.preset_initial("saturated_layer", grid16, nondim)
        bspec["T"].data_bottom = {(0, 0): 0.3, (1, 2): 0.1 - 0.05j,
                                  (-1, -2): 0.1 + 0.05j}
        bspec["T"].data_top = {(2, 1): 0.2, (-2, -1): 0.2}
        psi = build_factors(bspec, grid16)["T"].psi
        assert not psi.is_zero
        g = grid16
        kx = (np.pi * np.fft.fftfreq(g.nx, d=1.0 / g.nx))[:, None, None]
        ky = (np.pi * np.fft.fftfreq(g.ny, d=1.0 / g.ny))[None, :, None]
        p0, p1, p2 = (psi.mode_profiles(g.z, d) for d in (0, 1, 2))
        expected = {
            "values": p0, "dz_values": p1, "dx_values": 1j * kx * p0,
            "dy_values": 1j * ky * p0,
            "laplacian_values": p2 - (np.pi ** 2) * (psi.kmag ** 2)[:, :, None] * p0,
        }
        built = []
        mode_profiles = psi.mode_profiles
        monkeypatch.setattr(psi, "mode_profiles",
                            lambda z, deriv=0: built.append(deriv)
                            or mode_profiles(z, deriv))
        for name, modal in expected.items():
            want = np.real(np.fft.ifft2(modal, axes=(0, 1), norm="forward"))
            assert np.array_equal(getattr(psi, name)(), want), name
        assert sorted(built) == [0, 1, 2]


class TestHomogenize:
    def _factors(self, grid, ab, at, data_b, data_t, var="T"):
        spec = BoundarySpec({v: VariableBoundary() for v in ("T", "v", "c", "r")})
        spec.variables[var] = VariableBoundary(ab, at, data_b, data_t)
        return build_factors(spec, grid)[var]

    def test_identity_factors(self, grid8, bases8):
        fac = self._factors(grid8, 0.0, 0.0, 0.0, 0.0)
        vals = random_band_limited(grid8, bases8, seed=8)
        f = ScalarField(grid8, vals)
        out = mf.homogenize(f, fac)
        assert np.allclose(out.values, vals, atol=0.0)

    def test_round_trip_exact(self, grid16, bases16):
        fac = self._factors(grid16, -1.5, 0.7, 2.0, 1.0)
        vals = 1.0 + 0.3 * random_band_limited(grid16, bases16, seed=9)
        f = ScalarField(grid16, vals)
        back = mf.dehomogenize(mf.homogenize(f, fac), fac)
        assert np.max(np.abs(back.values - vals)) <= 1e-13 * np.max(np.abs(vals))

    def test_robin_field_maps_to_zero_wall_derivative(self, grid16, bases16):
        """Manufactured Robin-compatible field; the wall-normal derivative of
        the homogenized field, evaluated through the analytic chain rule
        (spectral wall-derivative oracle), vanishes."""
        fac = self._factors(grid16, -1.0, 1.0, 1.3, 0.8)
        G = random_band_limited(grid16, bases16, seed=10)   # cosine series
        psi = fac.psi.values()
        F = ScalarField(grid16, fac.binv_profile * (G + psi))
        frak = mf.homogenize(F, fac)
        assert np.allclose(frak.values, G, atol=1e-12)

        # oracle: dz(B F) - dz(psi) at the walls, each piece analytic
        dzG = to_phys_values(
            mf.spectral_ops.dz_modal(to_modal_values(G, bases16.neumann),
                                     bases16.neumann), bases16.dirichlet)
        dzF = fac.binv_profile * (dzG + fac.psi.dz_values()
                                  - fac.dz_log_b * (G + psi))
        wall_dz_frak = (fac.b_profile * (dzF + fac.dz_log_b * F.values)
                        - fac.psi.dz_values())
        h1 = np.sqrt(mf.spectral_ops.modal_sobolev_sqs(
            to_modal_values(frak.values, bases16.neumann), bases16.neumann, 1)[1])
        assert np.max(np.abs(wall_dz_frak[:, :, 0])) <= 1e-9 * h1
        assert np.max(np.abs(wall_dz_frak[:, :, -1])) <= 1e-9 * h1

    def test_robin_equivalence_identity(self):
        """dz(B F) = B (dz F + A' F): the product-rule identity behind the
        Robin-to-Neumann conversion, checked against a high-order FD oracle
        on analytic 1-D profiles."""
        prof = robin_profile(-0.8, 1.2)
        F = lambda z: 1.0 + 0.3 * np.cos(np.pi * z)
        dF = lambda z: -0.3 * np.pi * np.sin(np.pi * z)
        z = np.linspace(0.05, 0.95, 19)
        h = 1e-4
        BF = lambda s: prof.B(s) * F(s)
        fd = (-BF(z + 2 * h) + 8 * BF(z + h) - 8 * BF(z - h) + BF(z - 2 * h)) / (12 * h)
        rhs = prof.B(z) * (dF(z) + prof.A_prime(z) * F(z))
        assert np.allclose(fd, rhs, rtol=1e-9, atol=1e-10)


class TestFactors:
    def test_grid_mismatch_rejected(self, grid8, grid16):
        spec = BoundarySpec()
        fac = build_factors(spec, grid8)["T"]
        f = ScalarField.zeros(grid16)
        with pytest.raises(ValueError, match="grid"):
            mf.homogenize(f, fac)

    def test_time_dependent_data_fd_rate(self, grid8):
        spec = BoundarySpec()
        spec.variables["T"] = VariableBoundary(-1.0, 1.0,
                                               lambda t: 1.0 + t, lambda t: 2.0 - t)
        dt = 1e-3
        fac = build_factors(spec, grid8, t=0.5, dt=dt)["T"]
        rate = fac.psi_rate.values()
        fac0 = build_factors(spec, grid8, t=0.5, dt=dt)["T"]
        facp = build_factors(spec, grid8, t=0.5 + dt, dt=dt)["T"]
        fd = (facp.psi.values() - fac0.psi.values()) / dt
        assert np.allclose(rate, fd, rtol=1e-9, atol=1e-12)
        # each wall's rate is its own: alpha B d/dt of that wall's data
        prof = robin_profile(-1.0, 1.0)
        dz_rate = fac.psi_rate.dz_values()
        assert np.allclose(dz_rate[..., 0], -1.0 * float(prof.B(0.0)), rtol=1e-9)
        assert np.allclose(dz_rate[..., -1], -1.0 * float(prof.B(1.0)), rtol=1e-9)
        with pytest.raises(TypeError):
            VariableBoundary(-1.0, 1.0, 0.0, 0.0, rate_top=lambda t: 1.0)

    def test_time_dependent_without_dt_rejected(self, grid8):
        spec = BoundarySpec()
        spec.variables["T"] = VariableBoundary(0.0, 0.0, lambda t: t, 0.0)
        with pytest.raises(ValueError, match="dt"):
            build_factors(spec, grid8, t=0.0)

    def test_spec_validation(self):
        spec = BoundarySpec()
        spec.variables["c"] = VariableBoundary(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="'c'"):
            spec.validate()


class TestTraceNorm:
    def test_zero_data(self, grid8):
        ext = build_extension(0.0, 0.0, grid8)
        report = trace_norm_check(ext, 0.0, 0.0)
        assert report[0].ratio == 0.0
        assert report[1].ratio == 0.0

    def test_single_mode_against_dense_quadrature_oracle(self, grid16):
        """Independent oracle: rebuild the single-mode profile from its
        closed form, differentiate by FD, integrate densely."""
        k1, k2 = 1, 2
        kmag = np.hypot(k1, k2)
        X = grid16.x[:, None]
        Y = grid16.y[None, :]
        hb = np.cos(np.pi * (k1 * X + k2 * Y))
        ext = build_extension(hb, np.zeros_like(hb), grid16)
        report = trace_norm_check(ext, hb, np.zeros_like(hb))

        zf = np.linspace(0.0, 1.0, 4001)
        prof = mf.cutoff_chi0(zf) * (-1.0 / kmag) * np.exp(-kmag * zf)
        d1 = np.gradient(prof, zf, edge_order=2)
        d2 = np.gradient(d1, zf, edge_order=2)
        ksq = np.pi**2 * kmag**2
        # the real mode cos(pi k.x) occupies two conjugate coefficients of
        # magnitude 1/2 -> horizontal integral of its square is 2
        i0 = np.trapezoid(prof**2, zf) * 2.0
        i1 = np.trapezoid(d1**2, zf) * 2.0
        i2 = np.trapezoid(d2**2, zf) * 2.0
        l2 = i0
        h1 = l2 + ksq * i0 + i1
        h2 = h1 + ksq**2 * i0 + ksq * i1 + i2
        psi_h15 = (np.sqrt(h1) * np.sqrt(h2)) ** 0.5
        data_h0 = np.sqrt(4.0 * 2.0 * 0.25)  # two coefficients of 1/2 on one face
        expected_ratio = psi_h15 / data_h0
        assert report[0].ratio == pytest.approx(expected_ratio, rel=0.05)

    def test_ratio_stable_under_resolution_doubling(self):
        g1 = mf.make_grid(16, 16, 17)
        g2 = mf.make_grid(16, 16, 33)
        rng = np.random.default_rng(7)
        hb = rng.standard_normal((16, 16))
        ht = rng.standard_normal((16, 16))
        r1 = trace_norm_check(build_extension(hb, ht, g1), hb, ht)
        r2 = trace_norm_check(build_extension(hb, ht, g2), hb, ht)
        for s in (0, 1):
            assert np.isfinite(r1[s].ratio)
            assert r1[s].ratio == pytest.approx(r2[s].ratio, rel=0.10)
