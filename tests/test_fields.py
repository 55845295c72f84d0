import math
import os
import re

import numpy as np
import pytest

import moistflow as mf
from moistflow.fields import (MODAL_FILE, MODAL_NAMES, ScalarField, State,
                              VectorField, positive_values, save_field)
from moistflow.spectral_ops import to_modal_values, to_phys_values

from conftest import random_band_limited


class TestMakeGrid:
    def test_spacing_and_endpoints(self):
        g = mf.make_grid(8, 8, 9)
        assert g.dx == pytest.approx(0.25)
        assert g.dy == pytest.approx(0.25)
        assert g.z[0] == 0.0 and g.z[-1] == 1.0
        assert g.z.shape == (9,)

    def test_smallest_legal_grid(self):
        g = mf.make_grid(4, 4, 4)
        assert g.shape == (4, 4, 4)

    def test_odd_nx_rejected(self):
        with pytest.raises(ValueError, match="even"):
            mf.make_grid(7, 8, 9)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            mf.make_grid(2, 8, 9)
        with pytest.raises(ValueError, match="nz"):
            mf.make_grid(8, 8, 3)

    def test_volume_and_weights(self, grid8):
        assert grid8.volume == pytest.approx(4.0)
        w = grid8.quad_weights()
        assert np.sum(np.broadcast_to(w, grid8.shape)) == pytest.approx(4.0)


class TestSignParts:
    def test_constant_negative(self, grid8):
        f = ScalarField.full(grid8, -3.0)
        assert np.all(mf.positive_part(f).values == 0.0)
        assert np.all(mf.negative_part(f).values == 3.0)

    def test_zero(self, grid8):
        f = ScalarField.zeros(grid8)
        assert np.all(mf.positive_part(f).values == 0.0)
        assert np.all(mf.negative_part(f).values == 0.0)

    def test_complementarity_sine(self, grid8):
        vals = np.sin(np.pi * grid8.x)[:, None, None] * np.ones(grid8.shape)
        f = ScalarField(grid8, vals)
        prod = mf.positive_part(f).values * mf.negative_part(f).values
        assert np.all(prod == 0.0)

    def test_positive_values_nonfinite_and_signed_zero(self):
        """positive_values is max(a, 0): bitwise (|a| + a)/2 wherever that
        does not overflow, +0.0 for -0.0, and NaN and +inf kept, so that
        they reach the finite checks (the raw value carries a -inf there,
        whose positive part is 0)."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4000) * 10.0 ** rng.integers(-320, 300, 4000)
        a = np.concatenate([a, [-0.0, 0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]])
        got = positive_values(a)
        assert np.isnan(got[-3]) and got[-2] == np.inf and got[-1] == 0.0
        assert not np.any(np.signbit(got[:-3]))
        assert got[:-3].tobytes() == ((np.abs(a[:-3]) + a[:-3]) * 0.5).tobytes()

    def test_decomposition_exact(self, grid8, bases8):
        vals = random_band_limited(grid8, bases8, seed=3)
        f = ScalarField(grid8, vals)
        recomposed = mf.positive_part(f).values - mf.negative_part(f).values
        assert np.array_equal(recomposed, vals)


def _state_with_log_rho(grid, vals):
    return State(ScalarField(grid, vals), VectorField.zeros(grid),
                 ScalarField.zeros(grid), ScalarField.zeros(grid),
                 ScalarField.zeros(grid), ScalarField.zeros(grid))


class TestRhoD:
    def test_zero_log_gives_unit_density(self, grid8):
        s = _state_with_log_rho(grid8, np.zeros(grid8.shape))
        assert np.all(mf.rho_d(s).values == 1.0)

    def test_log_two(self, grid8):
        s = _state_with_log_rho(grid8, np.full(grid8.shape, math.log(2.0)))
        assert mf.rho_d(s).values == pytest.approx(2.0)

    def test_random_against_scalar_exponential(self, grid8, bases8):
        vals = 0.3 * random_band_limited(grid8, bases8, seed=7)
        s = _state_with_log_rho(grid8, vals)
        got = mf.rho_d(s).values
        # independent elementwise oracle via math.exp
        flat = vals.ravel()
        expected = np.array([math.exp(v) for v in flat]).reshape(vals.shape)
        assert np.allclose(got, expected, rtol=1e-15, atol=0.0)
        assert np.all(got > 0.0)

    def test_non_finite_rejected(self, grid8):
        vals = np.zeros(grid8.shape)
        s = _state_with_log_rho(grid8, vals)
        s.log_rho_d.values[0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            mf.rho_d(s)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["neumann_z", "dirichlet_z"])
    def test_band_limited_round_trip(self, grid16, bases16, kind):
        vals = random_band_limited(grid16, bases16, kind=kind, seed=11)
        basis = bases16.neumann if kind == "neumann_z" else bases16.dirichlet
        back = to_phys_values(to_modal_values(vals, basis), basis)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(back - vals)) <= 1e-12 * scale


class TestSnapshotIO:
    def test_field_round_trip(self, tmp_path, grid8, bases8):
        vals = random_band_limited(grid8, bases8, seed=5)
        f = ScalarField(grid8, vals)
        path = tmp_path / "field.dat"
        mf.save_field(path, f, "frak_T", 0.125)
        loaded, name, time = mf.load_field(path)
        assert name == "frak_T" and time == 0.125
        assert np.array_equal(loaded.values, vals)

    def test_header_format(self, tmp_path, grid8):
        path = tmp_path / "f.dat"
        mf.save_field(path, ScalarField.zeros(grid8), "u_x", 1.5)
        with open(path, "rb") as fh:
            header = fh.readline().decode("utf-8")
        assert header == "MOISTFLOW1 8 8 9 1.5 u_x\n"

    def test_payload_is_little_endian_z_fastest(self, tmp_path, grid8):
        vals = np.arange(np.prod(grid8.shape), dtype=float).reshape(grid8.shape)
        path = tmp_path / "f.dat"
        mf.save_field(path, ScalarField(grid8, vals), "x", 0.0)
        with open(path, "rb") as fh:
            fh.readline()
            raw = np.frombuffer(fh.read(), dtype="<f8")
        # z-fastest: the first nz entries are the first column of values
        assert np.array_equal(raw[:grid8.nz], vals[0, 0, :])

    def test_state_round_trip(self, tmp_path, grid8, bases8, nondim):
        state, _ = mf.preset_initial("manufactured", grid8, nondim)
        mf.save_state(tmp_path / "ckpt", state)
        loaded = mf.load_state(tmp_path / "ckpt")
        assert loaded.time == state.time
        assert np.array_equal(loaded.log_rho_d.values, state.log_rho_d.values)
        assert np.array_equal(loaded.u.w.values, state.u.w.values)
        assert np.array_equal(loaded.frak_q_r.values, state.frak_q_r.values)

    def test_mixed_state_times_rejected(self, tmp_path, grid8, nondim):
        """A checkpoint directory holding fields of two different states
        (say, a crash while overwriting it) must not load silently."""
        state, _ = mf.preset_initial("manufactured", grid8, nondim)
        mf.save_state(tmp_path / "ckpt", state)
        mf.save_field(tmp_path / "ckpt" / "frak_T.dat", state.frak_T, "frak_T",
                      state.time + 1e-3)
        with pytest.raises(ValueError, match="frak_T"):
            mf.load_state(tmp_path / "ckpt")


class TestCoefficientFile:
    @pytest.fixture
    def ckpt(self, tmp_path, grid8, nondim):
        """A checkpoint of a solver-built state, holding its coefficients."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=1e-3, checkpoint_every=1))
        state = sim.run(state, out_dir=str(tmp_path)).final_state
        return tmp_path / "checkpoints" / "step_000001", state

    def test_coefficients_restored_bitwise(self, ckpt):
        path, state = ckpt
        loaded = mf.load_state(path)
        assert list(loaded.modal) == list(MODAL_NAMES)
        for name in MODAL_NAMES:
            assert np.array_equal(loaded.modal[name], state.modal[name])

    def test_checkpoint_without_coefficient_file_loads(self, ckpt):
        path, state = ckpt
        os.remove(path / MODAL_FILE)
        loaded = mf.load_state(path)
        assert loaded.modal is None
        assert np.array_equal(loaded.frak_T.values, state.frak_T.values)

    @pytest.mark.parametrize("key, value, match", [
        ("time", 0.5, "time 0.5"), ("grid", np.array([8, 8, 17]), "grid")])
    def test_mismatched_coefficient_file_rejected(self, ckpt, key, value, match):
        path, state = ckpt
        with np.load(path / MODAL_FILE) as npz:
            arrays = dict(npz)
        arrays[key] = value
        with open(path / MODAL_FILE, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=match):
            mf.load_state(path)

    @pytest.mark.parametrize("key, change, match", [
        ("u1", lambda a: a[:, :, :5], r"'u1' are complex128 of shape \(8, 5, 5\)"),
        ("w", lambda a: a.real.copy(), "'w' are float64"),
        ("T", None, "no coefficients 'T'")], ids=["shape", "real", "missing"])
    def test_malformed_coefficient_array_rejected(self, ckpt, key, change, match):
        """Each coefficient array must be present, complex and of the shape
        the grid's transforms give, (nx, ny//2+1, nz)."""
        path, state = ckpt
        with np.load(path / MODAL_FILE) as npz:
            arrays = dict(npz)
        if change is None:
            del arrays[key]
        else:
            arrays[key] = change(arrays[key])
        with open(path / MODAL_FILE, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=re.escape(str(path / MODAL_FILE)) + ".*" + match):
            mf.load_state(path)


class TestAtomicWrite:
    def test_failed_write_leaves_old_directory(self, tmp_path, grid8, nondim,
                                               monkeypatch):
        """A checkpoint write that fails part-way leaves the directory it
        would have replaced as it was, and no half-written sibling."""
        state, bspec = mf.preset_initial("thermal_bubble", grid8, nondim)
        cfg = mf.SolverConfig(dt=1e-3, t_end=4e-3, mode="direct", checkpoint_every=2)
        mf.Simulation(grid8, nondim, bspec, cfg).run(state, out_dir=str(tmp_path))
        ckpts = tmp_path / "checkpoints"
        before = {p.name: p.read_bytes() for p in (ckpts / "step_000002").iterdir()}

        calls = []

        def failing(path, *args):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            return save_field(path, *args)

        monkeypatch.setattr(mf.fields, "save_field", failing)
        other = mf.perturb_state(state, mf.make_bases(grid8), amplitude=1e-3)
        with pytest.raises(OSError, match="disk full"):
            mf.Simulation(grid8, nondim, bspec, cfg).run(other, out_dir=str(tmp_path))
        assert len(calls) == 3
        assert sorted(os.listdir(ckpts)) == ["step_000002", "step_000004"]
        after = {p.name: p.read_bytes() for p in (ckpts / "step_000002").iterdir()}
        assert after == before
