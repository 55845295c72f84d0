import csv

import numpy as np
import pytest

import moistflow as mf
from moistflow.diagnostics import COLUMNS, _negative_l2, compute_row, with_coefficients
from moistflow.fields import ScalarField

from conftest import random_band_limited


class TestSobolevNorm:
    def test_constant_is_sqrt_volume(self, grid8, bases8):
        f = ScalarField.full(grid8, 1.0)
        assert mf.sobolev_norm(f, 0, bases8) == pytest.approx(2.0)

    def test_single_mode_h1_identity(self, grid16, bases16):
        vals = np.broadcast_to(np.sin(np.pi * grid16.x)[:, None, None],
                               grid16.shape).copy()
        f = ScalarField(grid16, vals)
        l2 = mf.sobolev_norm(f, 0, bases16)
        h1 = mf.sobolev_norm(f, 1, bases16)
        assert h1**2 == pytest.approx(l2**2 * (1.0 + np.pi**2), rel=1e-12)

    def test_matches_fd_quadrature_oracle(self):
        """Independent oracle: 4th-order finite differences of the
        closed-form field on a refined grid, integrated by quadrature."""
        grid = mf.make_grid(16, 16, 17)
        bases = mf.make_bases(grid)

        def f(x, y, z):
            return (np.cos(np.pi * x) * np.cos(np.pi * z)
                    + 0.5 * np.sin(np.pi * y) * np.cos(2 * np.pi * z))

        X, Y, Z = (grid.x[:, None, None], grid.y[None, :, None],
                   grid.z[None, None, :])
        field = ScalarField(grid, f(X, Y, Z) * np.ones(grid.shape))
        got = mf.sobolev_norm(field, 1, bases)

        h = 1e-3

        def fd(axis):
            def at(d):
                if axis == 0:
                    return f(X + d, Y, Z)
                if axis == 1:
                    return f(X, Y + d, Z)
                return f(X, Y, Z + d)
            return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)

        w = grid.quad_weights()
        h1_sq = np.sum((f(X, Y, Z)**2 + fd(0)**2 + fd(1)**2 + fd(2)**2)
                       * np.ones(grid.shape) * w)
        assert got == pytest.approx(np.sqrt(h1_sq), rel=1e-6)

    def test_unsupported_order_rejected(self, grid8, bases8):
        with pytest.raises(ValueError):
            mf.sobolev_norm(ScalarField.zeros(grid8), 3, bases8)


class TestNegativityMonitor:
    def _factors(self, grid):
        return mf.build_factors(mf.BoundarySpec(), grid)

    def _state(self, grid, T_vals):
        state, _ = mf.preset_initial("equilibrium", grid,
                                     mf.PhysConstants.nondimensional())
        state.frak_T = ScalarField(grid, T_vals)
        return state

    def test_nonnegative_fields_give_zero(self, grid8, bases8, nondim):
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        factors = mf.build_factors(bspec, grid8)
        out = mf.negativity_monitor(state, factors, bases8)
        assert all(v == 0.0 for v in out)

    def test_constant_negative_temperature(self, grid8, bases8):
        state = self._state(grid8, np.full(grid8.shape, -1.0))
        out = mf.negativity_monitor(state, self._factors(grid8), bases8)
        assert out[0] == pytest.approx(2.0)  # sqrt(volume 4)

    def test_mixed_sign_matches_decomposition_oracle(self, grid8, bases8):
        vals = random_band_limited(grid8, bases8, seed=12)
        state = self._state(grid8, vals)
        out = mf.negativity_monitor(state, self._factors(grid8), bases8)
        neg = mf.negative_part(ScalarField(grid8, vals)).values
        expected = np.sqrt(np.sum(neg**2 * grid8.quad_weights()))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_negative_l2_nonfinite(self, grid8, bases8):
        """The squared negative part is min(f, 0)^2, bitwise ((|f| - f)/2)^2;
        a NaN or a -inf makes the norm non-finite, and a +inf, whose
        negative part is 0, makes the row's norms of that field so."""
        w = grid8.quad_weights()
        vals = random_band_limited(grid8, bases8, seed=12)
        vals[0, 0, 0] = -0.0
        old = (np.abs(vals) - vals) * 0.5
        assert _negative_l2(vals, w) == float(np.sqrt(np.sum(old * old * w)))
        for bad, finite in ((np.nan, False), (-np.inf, False), (np.inf, True)):
            vals[1, 2, 3] = bad
            assert np.isfinite(_negative_l2(vals, w)) == finite, bad
            row = compute_row(self._state(grid8, vals), self._factors(grid8), bases8, step=0)
            assert not all(np.isfinite(row.norms["T"])), bad

    def test_row_reports_the_monitor(self, grid8, bases8):
        """The neg_* values of a diagnostics row are the monitor's, bitwise."""
        state = self._state(grid8, random_band_limited(grid8, bases8, seed=12))
        factors = self._factors(grid8)
        row = compute_row(state, factors, bases8, step=0)
        assert tuple(row.negative_norms[n] for n in ("T", "qv", "qc", "qr")) \
            == mf.negativity_monitor(state, factors, bases8)
        assert row.negative_norms["T"] > 0.0


class TestComputeRow:
    def test_bare_state_row_equals_row_with_coefficients(self, grid8, bases8, nondim):
        """A row of a state without coefficients is bitwise the row of
        ``with_coefficients`` of it, in every CSV value."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        state = mf.perturb_state(state, bases8, field="frak_T", amplitude=1e-2, seed=3)
        factors = mf.build_factors(bspec, grid8)
        assert state.modal is None
        bare = compute_row(state, factors, bases8, step=4)
        carried = compute_row(with_coefficients(state, bases8), factors, bases8, step=4)
        assert bare.csv_values() == carried.csv_values()
        assert state.modal is None


class TestEmit:
    def _row(self, grid, bases, step):
        state, bspec = mf.preset_initial("thermal_bubble", grid,
                                         mf.PhysConstants.nondimensional())
        factors = mf.build_factors(bspec, grid)
        return compute_row(state, factors, bases, step=step)

    def test_header_and_row(self, tmp_path, grid8, bases8):
        path = tmp_path / "d.csv"
        w = mf.DiagnosticsWriter(path)
        w.emit(self._row(grid8, bases8, 0))
        w.close()
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 2

    def test_stable_column_count(self, tmp_path, grid8, bases8):
        path = tmp_path / "d.csv"
        w = mf.DiagnosticsWriter(path)
        row = self._row(grid8, bases8, 0)
        w.emit(row)
        w.emit(self._row(grid8, bases8, 1))
        w.close()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == len(COLUMNS) for r in rows)

    def test_many_rows_reparse_cleanly(self, tmp_path, grid8, bases8):
        """Reparse audit: strict CSV reader, numeric columns, no NaN."""
        path = tmp_path / "d.csv"
        w = mf.DiagnosticsWriter(path)
        row = self._row(grid8, bases8, 0)
        for k in range(1000):
            row.step = k
            w.emit(row)
        w.close()
        with open(path, newline="") as fh:
            reader = csv.reader(fh, strict=True)
            header = next(reader)
            count = 0
            for r in reader:
                count += 1
                for col, val in zip(header, r):
                    x = float(val)
                    assert np.isfinite(x), col
        assert count == 1000


class TestStabilityProbe:
    def _run(self, grid, nondim, perturb_amp, seed=0, steps=30):
        state, bspec = mf.preset_initial("thermal_bubble", grid, nondim)
        bases = mf.make_bases(grid)
        if perturb_amp:
            state = mf.perturb_state(state, bases, amplitude=perturb_amp, seed=seed)
        cfg = mf.SolverConfig(dt=1e-3, t_end=steps * 1e-3, mode="direct",
                              record_states_every=1)
        sim = mf.Simulation(grid, nondim, bspec, cfg)
        return sim.run(state)

    def test_identical_runs_are_bit_identical(self, grid8, nondim, bases8):
        a = self._run(grid8, nondim, 1e-6, seed=1)
        b = self._run(grid8, nondim, 1e-6, seed=1)
        rep = mf.stability_probe(a, b, bases8)
        assert np.max(rep.delta_fields) <= 1e-13
        assert np.max(rep.delta_rho) <= 1e-13

    def test_perturbation_halving_halves_differences(self, grid8, nondim, bases8):
        base = self._run(grid8, nondim, 0.0)
        p1 = self._run(grid8, nondim, 1e-6, seed=2)
        p2 = self._run(grid8, nondim, 5e-7, seed=2)
        r1 = mf.stability_probe(base, p1, bases8)
        r2 = mf.stability_probe(base, p2, bases8)
        early = slice(1, 10)
        ratio = r2.delta_fields[early] / r1.delta_fields[early]
        assert np.all(np.abs(ratio - 0.5) < 0.1)

    def test_growth_fit_finite_and_bounded(self, grid8, nondim, bases8):
        base = self._run(grid8, nondim, 0.0)
        pert = self._run(grid8, nondim, 1e-6, seed=3)
        rep = mf.stability_probe(base, pert, bases8)
        assert np.isfinite(rep.growth_rate)
        assert np.isfinite(rep.envelope_coef)
        assert np.all(rep.delta_fields <= 1.001 * rep.envelope_coef
                      * np.exp(rep.growth_rate * rep.times) * rep.initial_delta)

    def test_mismatched_configs_rejected(self, grid8, nondim, bases8):
        a = self._run(grid8, nondim, 1e-6, steps=10)
        b = self._run(grid8, nondim, 1e-6, steps=20)
        with pytest.raises(ValueError):
            mf.stability_probe(a, b, bases8)
