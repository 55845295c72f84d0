import weakref

import numpy as np
import pytest
from scipy.fft import irfft2, rfft2

import moistflow as mf
from moistflow.fields import Grid
from moistflow.spectral_ops import (NEUMANN, DIRICHLET, _z_product, derivs,
                                    div_modal, dz_modal, helmholtz_modal,
                                    laplacian_modal, modal_sobolev_sqs,
                                    to_modal_values, to_phys_values,
                                    vector_helmholtz_modal)

from conftest import dealias_mask, random_band_limited


def trig_field(grid):
    """Closed-form band-limited field, evaluable at arbitrary points."""
    def f(x, y, z):
        return (np.sin(np.pi * x) * np.cos(2 * np.pi * y) * np.cos(np.pi * z)
                + 0.4 * np.cos(np.pi * x) * np.cos(2 * np.pi * z)
                + 0.2 * np.cos(np.pi * y))
    X = grid.x[:, None, None]
    Y = grid.y[None, :, None]
    Z = grid.z[None, None, :]
    return f, f(X, Y, Z)


class TestBasis:
    def test_eigenvalues_nonnegative_and_monotone(self, grid8, bases8):
        for basis in (bases8.neumann, bases8.dirichlet):
            eig = basis.eigenvalues
            assert np.all(eig >= 0.0)
            # nondecreasing along each positive mode direction
            assert np.all(np.diff(eig[:grid8.nx // 2 + 1, 0, 0]) >= 0.0)
            assert np.all(np.diff(eig[0, :, 0]) >= 0.0)
            assert np.all(np.diff(eig[0, 0, :]) >= 0.0)

    def test_constant_in_neumann_kernel(self, grid8, bases8):
        modal = to_modal_values(np.ones(grid8.shape), bases8.neumann)
        assert abs(modal[0, 0, 0] - 1.0) < 1e-14
        lap = -bases8.neumann.eigenvalues * modal
        assert np.max(np.abs(lap)) == 0.0

    def test_z_constant_neumann_field_has_only_mode_zero(self, grid8, bases8):
        """A field constant in z but not in x and y has rows m >= 1 exactly
        zero, whatever the rounding of the z-transform matrix."""
        xy = np.cos(np.pi * grid8.x)[:, None] + 0.3 * np.sin(2 * np.pi * grid8.y)[None, :]
        vals = np.broadcast_to(xy[:, :, None], grid8.shape).copy()
        modal = to_modal_values(vals, bases8.neumann)
        assert np.all(modal[..., 1:] == 0.0)
        assert np.any(modal[..., 0] != 0.0)

    def test_dirichlet_forward_ignores_wall_samples(self, grid8, bases8):
        """Sine coefficients have exactly zero wall rows and do not depend
        on the values at the walls."""
        basis = bases8.dirichlet
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(grid8.shape)
        modal = to_modal_values(vals, basis)
        assert np.all(modal[..., [0, -1]] == 0.0)
        vals[..., [0, -1]] += rng.standard_normal((grid8.nx, grid8.ny, 2))
        assert np.array_equal(to_modal_values(vals, basis), modal)

    @pytest.mark.parametrize("kind", [NEUMANN, DIRICHLET])
    def test_transforms_independent_of_memory_layout(self, grid16, bases16, kind):
        """A Fortran-ordered copy transforms to the same bits, so restarts
        stay bitwise whatever layout a field arrives in.  (At 8x8x9 a bare
        3-D product happens to give equal bits; at 16x16x17 it does not.)"""
        basis = bases16.neumann if kind == NEUMANN else bases16.dirichlet
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(grid16.shape)
        modal = to_modal_values(vals, basis)
        assert np.array_equal(to_modal_values(np.asfortranarray(vals), basis), modal)
        assert np.array_equal(to_phys_values(np.asfortranarray(modal), basis),
                              to_phys_values(modal, basis))

    def test_bases_free_without_garbage_collector(self, grid8):
        """No reference cycle: dropping the pair frees the arrays at once."""
        bases = mf.make_bases(grid8)
        assert bases.neumann.other is bases.dirichlet
        assert bases.dirichlet.other.kind == NEUMANN
        refs = [weakref.ref(b) for b in (bases.neumann, bases.dirichlet,
                                         bases.dirichlet.other)]
        del bases
        assert all(r() is None for r in refs)


class TestDerivatives:
    def test_laplacian_of_neumann_eigenfunction(self, grid8, bases8):
        neu = bases8.neumann
        vals = np.broadcast_to(np.cos(np.pi * grid8.z), grid8.shape).copy()
        lap = to_phys_values(laplacian_modal(to_modal_values(vals, neu), neu), neu)
        assert np.allclose(lap, -np.pi**2 * vals, atol=1e-12)

    def test_laplacian_of_constant_exact_zero(self, grid8, bases8):
        neu = bases8.neumann
        modal = to_modal_values(np.full(grid8.shape, 3.7), neu)
        lap = to_phys_values(laplacian_modal(modal, neu), neu)
        assert np.max(np.abs(lap)) < 1e-13

    def test_div_of_constant_velocity(self, grid8, bases8):
        neu, diri = bases8.neumann, bases8.dirichlet
        m1 = to_modal_values(np.full(grid8.shape, 2.0), neu)
        m2 = to_modal_values(np.full(grid8.shape, -1.0), neu)
        mw = to_modal_values(np.zeros(grid8.shape), diri)
        d = to_phys_values(div_modal(m1, m2, mw, bases8), neu)
        assert np.max(np.abs(d)) < 1e-13

    def test_grad_matches_fourth_order_fd(self, grid16, bases16):
        """FD oracle on a refined sampling of the closed-form field."""
        f, vals = trig_field(grid16)
        g = derivs(to_modal_values(vals, bases16.neumann), bases16.neumann)
        h = 1e-2
        X = grid16.x[:, None, None]
        Y = grid16.y[None, :, None]
        Z = grid16.z[None, None, :]

        def fd(fun, axis):
            def shift(delta):
                if axis == 0:
                    return fun(X + delta, Y, Z)
                if axis == 1:
                    return fun(X, Y + delta, Z)
                return fun(X, Y, Z + delta)
            return (-shift(2 * h) + 8 * shift(h) - 8 * shift(-h) + shift(-2 * h)) / (12 * h)

        # 4th-order truncation constant: |err| <= h^4 max|f^(5)| / 30, and the
        # largest fifth derivative here is (2 pi)^5 from the k=2 modes
        scale = np.max(np.abs(vals))
        tol = 400.0 * h**4 * scale
        assert np.max(np.abs(g["x"] - fd(f, 0))) < tol
        assert np.max(np.abs(g["y"] - fd(f, 1))) < tol
        assert np.max(np.abs(g["z"] - fd(f, 2))) < tol

    def test_dz_maps_between_bases(self, grid8, bases8):
        neu = bases8.neumann
        vals = np.broadcast_to(np.cos(2 * np.pi * grid8.z), grid8.shape).copy()
        out = to_phys_values(dz_modal(to_modal_values(vals, neu), neu), neu.other)
        expected = -2 * np.pi * np.sin(2 * np.pi * grid8.z)
        assert np.allclose(out, np.broadcast_to(expected, grid8.shape),
                           atol=1e-12)
        # walls exactly zero (sine series)
        assert np.all(out[:, :, 0] == 0.0)


class TestHelmholtz:
    def test_identity_at_zero_coefficient(self, grid8, bases8):
        neu = bases8.neumann
        vals = random_band_limited(grid8, bases8, seed=1)
        out = to_phys_values(helmholtz_modal(vals, 0.0, neu), neu)
        assert np.allclose(out, vals, atol=1e-13)

    def test_eigenfunction_division(self, grid8, bases8):
        neu = bases8.neumann
        vals = np.broadcast_to(np.cos(np.pi * grid8.z), grid8.shape).copy()
        out = to_phys_values(helmholtz_modal(vals, 1.0, neu), neu)
        assert np.allclose(out, vals / (1.0 + np.pi**2), atol=1e-13)

    def test_residual_via_forward_operator(self, grid8, bases8):
        neu = bases8.neumann
        vals = random_band_limited(grid8, bases8, seed=2)
        a = 0.37
        sol = to_phys_values(helmholtz_modal(vals, a, neu), neu)
        lap = to_phys_values(laplacian_modal(to_modal_values(sol, neu), neu), neu)
        residual = sol - a * lap - vals
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(vals)

    def test_negative_coefficient_rejected(self, grid8, bases8):
        with pytest.raises(ValueError):
            helmholtz_modal(np.zeros(grid8.shape), -1.0, bases8.neumann)


class TestVectorHelmholtz:
    def _random_vec(self, grid, bases, seed):
        return (random_band_limited(grid, bases, seed=seed),
                random_band_limited(grid, bases, seed=seed + 1),
                random_band_limited(grid, bases, kind=DIRICHLET, seed=seed + 2))

    def test_identity_at_zero(self, grid8, bases8):
        neu, diri = bases8.neumann, bases8.dirichlet
        G = self._random_vec(grid8, bases8, 10)
        u = vector_helmholtz_modal(*G, 0.0, 0.0, bases8)
        for m, b, g in zip(u, (neu, neu, diri), G):
            assert np.allclose(to_phys_values(m, b), g, atol=1e-13)

    def test_divergence_free_mode_reduces_to_scalar(self, grid8, bases8):
        # u = (-dy psi, dx psi, 0) is divergence free
        neu = bases8.neumann
        psi = random_band_limited(grid8, bases8, seed=20)
        gpsi = derivs(to_modal_values(psi, neu), neu)
        G = (-gpsi["y"], gpsi["x"], np.zeros(grid8.shape))
        a_mu = 0.25
        u1, u2, _ = vector_helmholtz_modal(*G, a_mu, 0.4, bases8)
        expected1 = to_phys_values(helmholtz_modal(G[0], a_mu, neu), neu)
        expected2 = to_phys_values(helmholtz_modal(G[1], a_mu, neu), neu)
        assert np.allclose(to_phys_values(u1, neu), expected1, atol=1e-12)
        assert np.allclose(to_phys_values(u2, neu), expected2, atol=1e-12)

    def test_residual_via_forward_operator(self, grid8, bases8):
        neu, diri = bases8.neumann, bases8.dirichlet
        G = self._random_vec(grid8, bases8, 30)
        a_mu, a_ml = 0.2, 0.15
        u = [to_phys_values(m, b) for m, b in
             zip(vector_helmholtz_modal(*G, a_mu, a_ml, bases8), (neu, neu, diri))]
        m = [to_modal_values(uc, b) for uc, b in zip(u, (neu, neu, diri))]
        div_u = to_phys_values(div_modal(*m, bases8), neu)
        gd = derivs(to_modal_values(div_u, neu), neu)
        laps = [to_phys_values(laplacian_modal(mc, b), b)
                for mc, b in zip(m, (neu, neu, diri))]
        scale = max(np.linalg.norm(c) for c in G)
        for uc, gc, lap, gdc in zip(u, G, laps, (gd["x"], gd["y"], gd["z"])):
            res = uc - a_mu * lap - a_ml * gdc - gc
            assert np.linalg.norm(res) <= 1e-10 * scale

    def test_ill_posed_coefficients_rejected(self, grid8, bases8):
        G = (np.zeros(grid8.shape),) * 3
        with pytest.raises(ValueError, match="ill-posed"):
            vector_helmholtz_modal(*G, 0.1, -0.5, bases8)


@pytest.mark.parametrize("solve, match", [
    (lambda g, b: helmholtz_modal(g, np.nan, b.neumann), "nonnegative"),
    (lambda g, b: vector_helmholtz_modal(g, g, g, np.nan, 0.0, b), "ill-posed"),
    (lambda g, b: vector_helmholtz_modal(g, g, g, 0.1, np.nan, b), "ill-posed")],
    ids=["a", "a_mu", "a_mulam"])
def test_nan_coefficient_rejected(grid8, bases8, solve, match):
    """A NaN coefficient is rejected as a negative one is, not solved into
    all-NaN coefficients."""
    with pytest.raises(ValueError, match=match):
        solve(np.ones(grid8.shape), bases8)


class TestAdjointness:
    def test_grad_div_duality(self, grid16, bases16):
        """Discrete integration by parts: <grad f, u> = -<f, div u> for
        no-penetration u and periodic horizontals."""
        neu, diri = bases16.neumann, bases16.dirichlet
        f_vals = random_band_limited(grid16, bases16, seed=40, max_mode=4)
        u = (random_band_limited(grid16, bases16, seed=41, max_mode=4),
             random_band_limited(grid16, bases16, seed=42, max_mode=4),
             random_band_limited(grid16, bases16, kind=DIRICHLET, seed=43, max_mode=4))
        gf = derivs(to_modal_values(f_vals, neu), neu)
        m = [to_modal_values(uc, b) for uc, b in zip(u, (neu, neu, diri))]
        dv = to_phys_values(div_modal(*m, bases16), neu)
        w = grid16.quad_weights()
        lhs = float(np.sum((gf["x"] * u[0] + gf["y"] * u[1] + gf["z"] * u[2]) * w))
        rhs = -float(np.sum(f_vals * dv * w))
        scale = abs(lhs) + abs(rhs) + 1e-300
        assert abs(lhs - rhs) / scale < 1e-11


class TestDenseReference:
    """Both transforms against explicit Fourier x cosine and Fourier x sine
    series sums: a field is sum_{k1,k2,m} a exp(i pi (k1 x + k2 y)) Z_m(z)
    with Z_m = cos(m pi z) or sin(m pi z), over the rfft half-plane in k2."""

    @staticmethod
    def series(grid, kind):
        nx, ny, nz = grid.nx, grid.ny, grid.nz
        ex = np.exp(1j * np.pi * np.outer(np.fft.fftfreq(nx, 1.0 / nx), grid.x))
        k2 = np.fft.rfftfreq(ny, 1.0 / ny)
        ey = np.exp(1j * np.pi * np.outer(k2, grid.y))
        mult = np.where((k2 == 0) | (k2 == ny // 2), 1.0, 2.0)
        phase = np.pi * np.outer(np.arange(nz), grid.z)
        ends = np.ones(nz)
        ends[[0, -1]] = 2.0
        if kind == NEUMANN:
            synth = np.cos(phase)
            # DCT-I inverse: trapezoid weights in z, halved end modes
            anal = np.cos(phase) * (2.0 / ends)[None, :] / ((nz - 1) * ends[:, None])
        else:
            synth = np.sin(phase)
            synth[[0, -1], :] = 0.0          # the sine wall modes are not stored
            anal = 2.0 * synth / (nz - 1)
            anal[:, [0, -1]] = 0.0
        return ex, ey, mult, synth, anal

    @pytest.mark.parametrize("shape", [(8, 8, 9), (6, 10, 7)])
    @pytest.mark.parametrize("kind", [NEUMANN, DIRICHLET])
    def test_transforms_match_series(self, shape, kind):
        grid = mf.make_grid(*shape)
        bases = mf.make_bases(grid)
        basis = bases.neumann if kind == NEUMANN else bases.dirichlet
        ex, ey, mult, synth, anal = self.series(grid, kind)
        rng = np.random.default_rng(7)

        vals = rng.standard_normal(grid.shape)
        want = np.einsum("ijk,pi,qj,mk->pqm", vals, ex.conj(), ey.conj(), anal,
                         optimize=True) / (grid.nx * grid.ny)
        assert np.max(np.abs(to_modal_values(vals, basis) - want)) < 1e-13

        modal = (rng.standard_normal(want.shape)
                 + 1j * rng.standard_normal(want.shape))
        if kind == DIRICHLET:
            modal[..., [0, -1]] = 0.0
        want = np.einsum("pqm,q,pi,qj,mk->ijk", modal, mult, ex, ey, synth,
                         optimize=True).real
        assert np.max(np.abs(to_phys_values(modal, basis) - want)) < 1e-13


class TestParsevalNorms:
    def test_constant_l2(self, grid8, bases8):
        modal = to_modal_values(np.ones(grid8.shape), bases8.neumann)
        assert np.sqrt(modal_sobolev_sqs(modal, bases8.neumann, 0)[0]) == pytest.approx(2.0)

    def test_matches_quadrature_for_band_limited(self, grid16, bases16):
        vals = random_band_limited(grid16, bases16, seed=50, max_mode=4)
        modal = to_modal_values(vals, bases16.neumann)
        l2_parseval = np.sqrt(modal_sobolev_sqs(modal, bases16.neumann, 0)[0])
        l2_quad = np.sqrt(np.sum(vals**2 * grid16.quad_weights()))
        assert l2_parseval == pytest.approx(l2_quad, rel=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16, 17), (6, 10, 7)])
    @pytest.mark.parametrize("kind", [NEUMANN, DIRICHLET])
    def test_weights_match_the_per_multi_index_sums(self, shape, kind):
        """The weight-matrix product equals the Parseval sum written out
        one multi-index at a time, to rounding."""
        grid = mf.make_grid(*shape)
        basis = mf.make_bases(grid).neumann
        basis = basis if kind == NEUMANN else basis.other
        rng = np.random.default_rng(3)
        modal = to_modal_values(rng.standard_normal(grid.shape), basis)
        cw = np.where(np.arange(grid.nz) == 0, 1.0, 0.5)
        sw = np.where(np.isin(np.arange(grid.nz), (0, grid.nz - 1)), 0.0, 0.5)
        w_even, w_odd = (cw, sw) if kind == NEUMANN else (sw, cw)
        a2 = np.abs(modal) ** 2 * basis.ky_multiplicity
        kx2, ky2, kz2 = basis.kappa_x ** 2, basis.kappa_y ** 2, basis.kappa_z ** 2
        terms = [(w_even, 1.0), (w_even, kx2), (w_even, ky2), (w_odd, kz2),
                 (w_even, kx2 * kx2), (w_even, ky2 * ky2), (w_even, kz2 * kz2),
                 (w_even, kx2 * ky2), (w_odd, kx2 * kz2), (w_odd, ky2 * kz2)]
        sums = [4.0 * np.sum(a2 * w * f) for w, f in terms]
        want = (sums[0], sum(sums[:4]), sum(sums))
        got = mf.spectral_ops.modal_sobolev_sqs(modal, basis)
        assert got == pytest.approx(want, rel=1e-13)
        assert mf.spectral_ops.modal_sobolev_sqs(modal, basis, 1) == \
            pytest.approx(want[:2], rel=1e-13)


class TestDealias:
    def test_mask_removes_high_modes(self, grid8, bases8):
        basis = bases8.neumann
        vals = np.random.default_rng(5).standard_normal(grid8.shape)
        full = to_modal_values(vals, basis)
        out = to_modal_values(vals, basis, dealias=True)
        assert out.shape == (grid8.nx, basis.ky_keep, basis.mz_keep)
        assert full[grid8.nx // 2, 0, 0] != 0.0 and full[0, 0, grid8.nz - 1] != 0.0
        assert out[grid8.nx // 2, 0, 0] == 0.0        # x Nyquist
        assert basis.mz_keep < grid8.nz                # z Nyquist: outside the block
        assert out[0, 0, 0] == pytest.approx(full[0, 0, 0], abs=1e-15)
        assert out[1, 1, 1] == pytest.approx(full[1, 1, 1], abs=1e-15)


# the last: nx and ny not multiples of 3, and ny odd, so that no ky Nyquist
# column exists; make_grid refuses odd sizes, the transforms do not
GRIDS = [(8, 8, 9), (16, 16, 17), (10, 7, 9)]


def transform_grid(nx, ny, nz):
    return Grid(nx, ny, nz, x=np.arange(nx) * (2.0 / nx),
                y=np.arange(ny) * (2.0 / ny), z=np.arange(nz) / (nz - 1))


@pytest.fixture(params=[(shape, kind) for shape in GRIDS for kind in (NEUMANN, DIRICHLET)],
                ids=lambda p: f"{'x'.join(map(str, p[0]))}-{p[1]}")
def basis_data(request):
    """A basis, random values and random coefficients, the sine wall rows
    zero, with every mode in play."""
    shape, kind = request.param
    basis = mf.make_bases(transform_grid(*shape)).neumann
    basis = basis if kind == NEUMANN else basis.other
    rng = np.random.default_rng(17)
    vals = rng.standard_normal(shape)
    mshape = (shape[0], shape[1] // 2 + 1, shape[2])
    modal = rng.standard_normal(mshape) + 1j * rng.standard_normal(mshape)
    if kind == DIRICHLET:
        modal[..., [0, -1]] = 0.0
    return basis, vals, modal


class TestBlockTransforms:
    """The 2/3 rule acts inside the transforms: a dealiased transform runs
    its passes on the kept block only, and equals the whole-array
    transform composed with ``dealias_mask`` to rounding."""

    def test_mask_is_the_two_thirds_cut(self, basis_data):
        """|kx| <= nx//3, ky <= ny//3, m <= 2(nz-1)//3, and the block is
        the mask's extent in ky and z."""
        basis = basis_data[0]
        nx, ny, nz = basis.grid.shape
        kx = np.abs(np.fft.fftfreq(nx, 1.0 / nx))[:, None, None]
        ky = np.fft.rfftfreq(ny, 1.0 / ny)[None, :, None]
        m = np.arange(nz)[None, None, :]
        want = (kx <= nx // 3) & (ky <= ny // 3) & (m <= 2 * (nz - 1) // 3)
        assert np.array_equal(dealias_mask(basis), want)
        assert not np.any(want[:, basis.ky_keep:]) and np.all(want[0, :basis.ky_keep, 0])
        assert not np.any(want[..., basis.mz_keep:]) and np.all(want[0, 0, :basis.mz_keep])

    def test_inverse_matches_masked_inverse(self, basis_data):
        basis, _, modal = basis_data
        want = scipy_inverse(modal * dealias_mask(basis), basis)
        got = to_phys_values(modal, basis, dealias=True)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_forward_matches_masked_forward(self, basis_data):
        """The dealiased forward is the kept block alone, its dropped kx
        rows exactly 0."""
        basis, vals, _ = basis_data
        full = to_modal_values(vals, basis)
        got = to_modal_values(vals, basis, dealias=True)
        kept = (slice(None), slice(basis.ky_keep), slice(basis.mz_keep))
        assert got.shape == (basis.grid.nx, basis.ky_keep, basis.mz_keep)
        assert np.all(got[~dealias_mask(basis)[kept]] == 0.0)
        want = (full * dealias_mask(basis))[kept]
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_y_constant_field_has_only_ky_zero(self, basis_data, dealias):
        """A field constant in y but not in x and z has its ky >= 1
        columns exactly 0, whatever the rounding of the y-pass matrix."""
        basis = basis_data[0]
        g = basis.grid
        xz = (np.cos(np.pi * g.x)[:, None] * np.cos(np.pi * g.z)[None, :]
              + 0.3 * np.sin(2 * np.pi * g.x)[:, None] * g.z[None, :] ** 2)
        vals = np.broadcast_to(xz[:, None, :], g.shape).copy()
        modal = to_modal_values(vals, basis, dealias)
        assert np.all(modal[:, 1:] == 0.0)
        assert np.any(modal[:, 0] != 0.0)

    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16, 32])
    def test_what_stays_exact_of_constant_data(self, n):
        """On n x n x 9 grids: data constant in y have their ky >= 1
        columns exactly 0 in both bases, whatever n; a constant field's
        cosine coefficients are exactly its value in the mean and 0
        elsewhere where nx is a power of two (at nx = 10, 12, 14 or 20 the
        x-fft of a constant line leaves rounding)."""
        g = mf.make_grid(n, n, 9)
        neu = mf.make_bases(g).neumann
        vals = np.broadcast_to(np.random.default_rng(n).standard_normal((n, 1, 9)),
                               g.shape).copy()
        assert np.all(to_modal_values(vals, neu)[:, 1:] == 0.0)
        vals[..., [0, -1]] = 0.0
        assert np.all(to_modal_values(vals, neu.other)[:, 1:] == 0.0)
        if n & (n - 1) == 0:
            c = 1.2345678901234567
            modal = to_modal_values(np.full(g.shape, c), neu)
            assert modal[0, 0, 0] == c
            modal[0, 0, 0] = 0.0
            assert not np.any(modal)

    @pytest.mark.parametrize("shape", GRIDS)
    def test_z_constant_neumann_column_is_mode_zero(self, shape):
        g = transform_grid(*shape)
        basis = mf.make_bases(g).neumann
        xy = np.cos(np.pi * g.x)[:, None] + 0.3 * np.sin(2 * np.pi * g.y)[None, :]
        vals = np.broadcast_to(xy[:, :, None], g.shape).copy()
        modal = to_modal_values(vals, basis, dealias=True)
        assert np.all(modal[..., 1:] == 0.0)
        assert np.any(modal[..., 0] != 0.0)

    def test_bits_independent_of_input_order(self, basis_data):
        """As test_transforms_independent_of_memory_layout, for the block."""
        basis, vals, modal = basis_data
        assert np.array_equal(to_modal_values(np.asfortranarray(vals), basis, True),
                              to_modal_values(vals, basis, True))
        assert np.array_equal(to_phys_values(np.asfortranarray(modal), basis, True),
                              to_phys_values(modal, basis, True))

    def test_whole_array_path_matches_rfft2(self, basis_data):
        """The forward passes over y and x equal rfft2 of the z-product,
        and the whole-array inverse equals irfft2 and the z-series, to
        rounding."""
        basis, vals, modal = basis_data
        if basis.kind == NEUMANN:
            zt = (vals - vals[..., :1]) @ basis.z_fwd
            zt[..., :1] += vals[..., :1]
        else:
            zt = vals @ basis.z_fwd
        want = rfft2(zt, axes=(0, 1), norm="forward")
        got = to_modal_values(vals, basis)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        want = scipy_inverse(modal, basis)
        got = to_phys_values(modal, basis)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def scipy_inverse(modal, basis):
    """The reference inverse transform: irfft2 over x and y, then the
    product with the basis' z-series."""
    g = basis.grid
    xy = irfft2(modal, s=(g.nx, g.ny), axes=(0, 1), norm="forward")
    return _z_product(xy, basis.z_inv)


def multiplier_then_inverse(modal, basis, key, dealias):
    """The per-output formula ``derivs`` replaced: each derivative's modal
    multipliers, then the reference inverse of the masked product."""
    m, b = modal, basis
    for axis in key:
        if axis == "x":
            m = mf.spectral_ops.dx_modal(m, b)
        elif axis == "y":
            m = mf.spectral_ops.dy_modal(m, b)
        else:
            m, b = mf.spectral_ops.dz_modal(m, b), b.other
    if dealias:
        m = m * dealias_mask(b)
    return scipy_inverse(m, b)


def padded(block, basis):
    """``block`` in the leading extent of a zero (nx, ny//2+1, nz) array."""
    g = basis.grid
    out = np.zeros((g.nx, g.ny // 2 + 1, g.nz), dtype=complex)
    out[:, :block.shape[1], :block.shape[2]] = block
    return out


def whole_representable(modal, basis):
    """``representable`` as a formula over the whole array."""
    out = modal.copy()
    nx, ny = basis.grid.nx, basis.grid.ny
    flip = (-np.arange(nx)) % nx
    for j in ((0, ny // 2) if ny % 2 == 0 else (0,)):
        out[:, j] = 0.5 * (modal[:, j] + np.conj(modal[flip, j]))
    if basis.kind == DIRICHLET:
        out[..., [0, -1]] = 0.0
    return out


def assert_leading_block(got, want, basis, dealias):
    """``got`` is ``want`` bitwise: all of it, or with ``dealias`` its kept
    (nx, ky_keep, mz_keep) block, outside which ``want`` is exactly 0."""
    if dealias:
        nky, nmz = basis.ky_keep, basis.mz_keep
        assert got.shape == (basis.grid.nx, nky, nmz)
        assert np.all(padded(got, basis)[~dealias_mask(basis)] == 0.0)
        assert np.all(want[~dealias_mask(basis)] == 0.0)
        want = want[:, :nky, :nmz]
    assert got.shape == want.shape and np.array_equal(got, want)


class TestBlockSolves:
    """The solves divide, split and project on what the forward transform
    returns, and return it: the kept block when dealiased.  Their bits are
    those of the whole-array formulas applied to the padded forward, on the
    leading block of the result."""

    @pytest.mark.parametrize("dealias", [False, True])
    def test_scalar_solve(self, basis_data, dealias):
        basis, vals, _ = basis_data
        a = 0.37
        got = mf.spectral_ops.helmholtz_modal(vals, a, basis, dealias)
        m = padded(to_modal_values(vals, basis, dealias), basis)
        want = whole_representable(m / (1.0 + a * basis.eigenvalues), basis)
        assert_leading_block(got, want, basis, dealias)

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_vector_split(self, shape, dealias):
        bases = mf.make_bases(transform_grid(*shape))
        neu, diri = bases.neumann, bases.dirichlet
        rng = np.random.default_rng(23)
        g1, g2, g3 = (rng.standard_normal(shape) for _ in range(3))
        a_mu, a_mulam = 0.21, 0.13
        got = mf.spectral_ops.vector_helmholtz_modal(g1, g2, g3, a_mu, a_mulam,
                                                     bases, dealias)
        m1, m2 = (padded(to_modal_values(v, neu, dealias), neu) for v in (g1, g2))
        m3 = padded(to_modal_values(g3, diri, dealias), diri)
        # the whole-array split, the Neumann sine-Nyquist row of dz included
        kz = neu.kappa_z
        d = ((m1 * (1j * neu.kappa_x) + m2 * (1j * neu.kappa_y) + kz * m3)
             / (1.0 + (a_mu + a_mulam) * neu.eigenvalues))
        dz_d = -kz * d
        dz_d[..., -1] = 0.0
        denom = 1.0 + a_mu * neu.eigenvalues
        want = (whole_representable((m1 + a_mulam * (d * (1j * neu.kappa_x))) / denom, neu),
                whole_representable((m2 + a_mulam * (d * (1j * neu.kappa_y))) / denom, neu),
                whole_representable((m3 + a_mulam * dz_d)
                                    / (1.0 + a_mu * diri.eigenvalues), diri))
        for u, w, basis in zip(got, want, (neu, neu, diri)):
            assert_leading_block(u, w, basis, dealias)


class TestDerivativeSets:
    """``derivs`` shares the passes of a derivative set; each output equals
    its multipliers followed by an inverse transform, to rounding."""

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_multiplier_then_inverse(self, basis_data, order, dealias):
        basis, _, modal = basis_data
        got = mf.spectral_ops.derivs(modal, basis, order, dealias)
        assert list(got) == (["x", "y", "z"] if order == 1 else
                             ["x", "y", "z", "xx", "yy", "zz", "xy", "xz", "yz"])
        for key, vals in got.items():
            want = multiplier_then_inverse(modal, basis, key, dealias)
            assert vals.shape == basis.grid.shape and vals.flags.c_contiguous
            assert np.max(np.abs(vals - want)) <= 1e-14 * np.max(np.abs(want)), key

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_z_constant_neumann_field(self, shape, dealias):
        """z-derivatives of a field constant in z are exactly 0, and its
        horizontal derivatives are exactly constant in z; every derivative
        of the coefficients of a constant is exactly 0."""
        g = transform_grid(*shape)
        basis = mf.make_bases(g).neumann
        xy = np.cos(np.pi * g.x)[:, None] + 0.3 * np.sin(2 * np.pi * g.y)[None, :]
        vals = np.broadcast_to(xy[:, :, None], g.shape).copy()
        d = mf.spectral_ops.derivs(to_modal_values(vals, basis), basis, 2, dealias)
        for key, out in d.items():
            if "z" in key:
                assert np.all(out == 0.0), key
            else:
                assert np.all(out == out[..., :1]), key
        assert np.any(d["x"] != 0.0) and np.any(d["y"] != 0.0)
        const = np.zeros((g.nx, g.ny // 2 + 1, g.nz), dtype=complex)
        const[0, 0, 0] = 2.5
        for key, out in mf.spectral_ops.derivs(const, basis, 2, dealias).items():
            assert np.all(out == 0.0), key

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_neumann_dz_walls_exactly_zero(self, shape, dealias):
        """Odd z-derivatives of a cosine series are sine series: exactly 0
        at the walls."""
        basis = mf.make_bases(transform_grid(*shape)).neumann
        rng = np.random.default_rng(9)
        mshape = (shape[0], shape[1] // 2 + 1, shape[2])
        modal = rng.standard_normal(mshape) + 1j * rng.standard_normal(mshape)
        d = mf.spectral_ops.derivs(modal, basis, 2, dealias)
        for key in ("z", "xz", "yz"):
            assert np.all(d[key][..., [0, -1]] == 0.0), key
        assert np.all(d["zz"][..., [0, -1]] != 0.0)

    @pytest.mark.parametrize("kind", [NEUMANN, DIRICHLET])
    def test_ky_nyquist_uses_only_the_real_part(self, kind):
        """On an even ny the whole extent's Nyquist column enters as irfft
        has it: only the real part of each multiplied column counts.  A
        purely imaginary Nyquist column at kx = 0 has an exactly zero value
        and x, z, xx, yy, zz, xz derivatives; its y and yz derivatives are
        those of the multiplier-then-inverse formula."""
        basis = mf.make_bases(transform_grid(8, 8, 9)).neumann
        basis = basis if kind == NEUMANN else basis.other
        nky = basis.grid.ny // 2 + 1
        y = basis.inverse_matrices(False)[1]
        assert np.all(y[0, :, 2 * nky - 1] == 0.0)          # its sine column
        assert np.all(y[0, :, nky - 1] == np.cos(np.pi * np.arange(8)))
        modal = np.zeros((8, nky, 9), dtype=complex)
        modal[0, -1] = 1j * np.random.default_rng(4).standard_normal(9)
        if kind == DIRICHLET:
            modal[..., [0, -1]] = 0.0
        assert np.all(to_phys_values(modal, basis) == 0.0)
        d = mf.spectral_ops.derivs(modal, basis, 2)
        for key, vals in d.items():
            if key in ("y", "yz"):
                want = multiplier_then_inverse(modal, basis, key, False)
                assert np.any(want != 0.0)
                assert np.max(np.abs(vals - want)) <= 1e-14 * np.max(np.abs(want))
            else:
                assert np.all(vals == 0.0), key
