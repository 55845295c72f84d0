import weakref

import numpy as np
import pytest
from scipy.fft import irfft2, rfft2

import moistflow as mf
from moistflow.fields import Grid, ScalarField, VectorField
from moistflow.spectral_ops import (NEUMANN, DIRICHLET, _z_product,
                                    modal_sobolev_sq, to_modal_values,
                                    to_phys_values)

from conftest import dealias_mask, random_band_limited


def field(grid, vals):
    return ScalarField(grid, vals)


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
        vals = np.broadcast_to(np.cos(np.pi * grid8.z), grid8.shape).copy()
        lap = mf.laplacian(field(grid8, vals), bases8.neumann)
        assert np.allclose(lap.values, -np.pi**2 * vals, atol=1e-12)

    def test_laplacian_of_constant_exact_zero(self, grid8, bases8):
        lap = mf.laplacian(ScalarField.full(grid8, 3.7), bases8.neumann)
        assert np.max(np.abs(lap.values)) < 1e-13

    def test_div_of_constant_velocity(self, grid8, bases8):
        u = VectorField(ScalarField.full(grid8, 2.0), ScalarField.full(grid8, -1.0),
                        ScalarField.zeros(grid8))
        d = mf.div(u, bases8)
        assert np.max(np.abs(d.values)) < 1e-13

    def test_grad_matches_fourth_order_fd(self, grid16, bases16):
        """FD oracle on a refined sampling of the closed-form field."""
        f, vals = trig_field(grid16)
        g = mf.grad(field(grid16, vals), bases16)
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
        assert np.max(np.abs(g.v1.values - fd(f, 0))) < tol
        assert np.max(np.abs(g.v2.values - fd(f, 1))) < tol
        assert np.max(np.abs(g.w.values - fd(f, 2))) < tol

    def test_dz_maps_between_bases(self, grid8, bases8):
        vals = np.broadcast_to(np.cos(2 * np.pi * grid8.z), grid8.shape).copy()
        out = mf.dz(field(grid8, vals), bases8.neumann)
        expected = -2 * np.pi * np.sin(2 * np.pi * grid8.z)
        assert np.allclose(out.values, np.broadcast_to(expected, grid8.shape),
                           atol=1e-12)
        # walls exactly zero (sine series)
        assert np.all(out.values[:, :, 0] == 0.0)


class TestHelmholtz:
    def test_identity_at_zero_coefficient(self, grid8, bases8):
        vals = random_band_limited(grid8, bases8, seed=1)
        out = mf.helmholtz_solve(field(grid8, vals), 0.0, bases8.neumann)
        assert np.allclose(out.values, vals, atol=1e-13)

    def test_eigenfunction_division(self, grid8, bases8):
        vals = np.broadcast_to(np.cos(np.pi * grid8.z), grid8.shape).copy()
        out = mf.helmholtz_solve(field(grid8, vals), 1.0, bases8.neumann)
        assert np.allclose(out.values, vals / (1.0 + np.pi**2), atol=1e-13)

    def test_residual_via_forward_operator(self, grid8, bases8):
        vals = random_band_limited(grid8, bases8, seed=2)
        a = 0.37
        sol = mf.helmholtz_solve(field(grid8, vals), a, bases8.neumann)
        residual = (sol.values - a * mf.laplacian(sol, bases8.neumann).values
                    - vals)
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(vals)

    def test_negative_coefficient_rejected(self, grid8, bases8):
        with pytest.raises(ValueError):
            mf.helmholtz_solve(ScalarField.zeros(grid8), -1.0, bases8.neumann)


class TestVectorHelmholtz:
    def _random_vec(self, grid, bases, seed):
        return VectorField(
            field(grid, random_band_limited(grid, bases, seed=seed)),
            field(grid, random_band_limited(grid, bases, seed=seed + 1)),
            field(grid, random_band_limited(grid, bases, kind=DIRICHLET,
                                            seed=seed + 2)))

    def test_identity_at_zero(self, grid8, bases8):
        G = self._random_vec(grid8, bases8, 10)
        u = mf.vector_helmholtz_solve(G, 0.0, 0.0, bases8)
        for a, b in zip(u.components(), G.components()):
            assert np.allclose(a.values, b.values, atol=1e-13)

    def test_divergence_free_mode_reduces_to_scalar(self, grid8, bases8):
        # u = (-dy psi, dx psi, 0) is divergence free
        psi = random_band_limited(grid8, bases8, seed=20)
        gpsi = mf.grad(field(grid8, psi), bases8)
        G = VectorField(field(grid8, -gpsi.v2.values), field(grid8, gpsi.v1.values),
                        ScalarField.zeros(grid8))
        a_mu = 0.25
        u = mf.vector_helmholtz_solve(G, a_mu, 0.4, bases8)
        expected1 = mf.helmholtz_solve(G.v1, a_mu, bases8.neumann)
        expected2 = mf.helmholtz_solve(G.v2, a_mu, bases8.neumann)
        assert np.allclose(u.v1.values, expected1.values, atol=1e-12)
        assert np.allclose(u.v2.values, expected2.values, atol=1e-12)

    def test_residual_via_forward_operator(self, grid8, bases8):
        G = self._random_vec(grid8, bases8, 30)
        a_mu, a_ml = 0.2, 0.15
        u = mf.vector_helmholtz_solve(G, a_mu, a_ml, bases8)
        gd = mf.grad(mf.div(u, bases8), bases8)
        laps = (mf.laplacian(u.v1, bases8.neumann).values,
                mf.laplacian(u.v2, bases8.neumann).values,
                mf.laplacian(u.w, bases8.dirichlet).values)
        scale = max(np.linalg.norm(c.values) for c in G.components())
        for i, (uc, gc, gdc) in enumerate(zip(u.components(), G.components(),
                                              gd.components())):
            res = uc.values - a_mu * laps[i] - a_ml * gdc.values - gc.values
            assert np.linalg.norm(res) <= 1e-10 * scale

    def test_ill_posed_coefficients_rejected(self, grid8, bases8):
        G = VectorField.zeros(grid8)
        with pytest.raises(ValueError, match="ill-posed"):
            mf.vector_helmholtz_solve(G, 0.1, -0.5, bases8)


class TestAdjointness:
    def test_grad_div_duality(self, grid16, bases16):
        """Discrete integration by parts: <grad f, u> = -<f, div u> for
        no-penetration u and periodic horizontals."""
        f_vals = random_band_limited(grid16, bases16, seed=40, max_mode=4)
        u = VectorField(
            field(grid16, random_band_limited(grid16, bases16, seed=41, max_mode=4)),
            field(grid16, random_band_limited(grid16, bases16, seed=42, max_mode=4)),
            field(grid16, random_band_limited(grid16, bases16, kind=DIRICHLET,
                                              seed=43, max_mode=4)))
        gf = mf.grad(field(grid16, f_vals), bases16)
        dv = mf.div(u, bases16)
        w = grid16.quad_weights()
        lhs = float(np.sum((gf.v1.values * u.v1.values + gf.v2.values * u.v2.values
                            + gf.w.values * u.w.values) * w))
        rhs = -float(np.sum(f_vals * dv.values * w))
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
        assert np.sqrt(modal_sobolev_sq(modal, bases8.neumann, 0)) == pytest.approx(2.0)

    def test_matches_quadrature_for_band_limited(self, grid16, bases16):
        vals = random_band_limited(grid16, bases16, seed=50, max_mode=4)
        modal = to_modal_values(vals, bases16.neumann)
        l2_parseval = np.sqrt(modal_sobolev_sq(modal, bases16.neumann, 0))
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


class TestBlockSolves:
    """The solves divide, split and project on what the forward transform
    returns, the kept block when dealiased, and pad once; their bits are
    those of the whole-array formulas applied to the padded forward."""

    @pytest.mark.parametrize("dealias", [False, True])
    def test_scalar_solve(self, basis_data, dealias):
        basis, vals, _ = basis_data
        a = 0.37
        got = mf.spectral_ops.helmholtz_modal(vals, a, basis, dealias)
        m = padded(to_modal_values(vals, basis, dealias), basis)
        want = whole_representable(m / (1.0 + a * basis.eigenvalues), basis)
        assert got.shape == m.shape and np.array_equal(got, want)

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
        for u, w in zip(got, want):
            assert u.shape == w.shape and np.array_equal(u, w)


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
