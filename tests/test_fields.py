import math
import os
import re

import numpy as np
import pytest

import moistflow as mf
from moistflow.fields import (MODAL_FILE, MODAL_NAMES, ScalarField, State,
                              positive_values, save_field)
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
        a = np.full(grid8.shape, -3.0)
        assert np.all(positive_values(a) == 0.0)
        assert np.all(positive_values(-a) == 3.0)

    def test_zero(self, grid8):
        a = np.zeros(grid8.shape)
        assert np.all(positive_values(a) == 0.0)
        assert np.all(positive_values(-a) == 0.0)

    def test_complementarity_sine(self, grid8):
        vals = np.sin(np.pi * grid8.x)[:, None, None] * np.ones(grid8.shape)
        prod = positive_values(vals) * positive_values(-vals)
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

    def test_negative_part_nonfinite_and_overflow(self, grid8):
        """The negative part (-f)+: bitwise (|f| - f)/2 on finite values below
        half the largest double, +inf maps to 0 and NaN stays NaN, and a
        negative value beyond half the largest double maps to its magnitude
        where (|f| - f)/2 overflowed to inf."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal(grid8.shape) * 10.0 ** rng.integers(-320, 300, grid8.shape)
        got = positive_values(-a)
        assert not np.any(np.signbit(got))
        assert got.tobytes() == ((np.abs(a) - a) * 0.5).tobytes()
        big = np.finfo(float).max
        special = [np.inf, -np.inf, np.nan, -big, big, -0.0, 0.0]
        a.flat[:7] = special
        got = positive_values(-a).flat[:7]
        assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])
        assert got[3] == big and got[4] == 0.0
        assert got[5] == 0.0 and got[6] == 0.0 and not np.any(np.signbit(got[5:]))

    def test_decomposition_exact(self, grid8, bases8):
        vals = random_band_limited(grid8, bases8, seed=3)
        recomposed = positive_values(vals) - positive_values(-vals)
        assert np.array_equal(recomposed, vals)


def _state_with_log_rho(grid, vals):
    return State(ScalarField(grid, vals), *(ScalarField.zeros(grid) for _ in range(7)))


class TestPhysConstants:
    @pytest.mark.parametrize("T_ref", [1e300, 1.4e154, 1e154, float("inf")])
    def test_T_ref_without_finite_square_rejected(self, T_ref):
        """The default saturation closure forms 2 T_ref^2: a value for which
        that overflows is a ValueError naming the constant, not an
        OverflowError or a non-finite right-hand side at the first step."""
        with pytest.raises(ValueError, match="T_ref"):
            mf.PhysConstants(T_ref=T_ref)

    def test_largest_T_ref_with_finite_square_accepted(self):
        """The largest T_ref whose 2 T_ref^2 is finite is accepted, and the
        next float up is not."""
        T_ref = float(np.sqrt(np.finfo(float).max / 2.0))
        assert np.isfinite(2.0 * mf.PhysConstants(T_ref=T_ref).T_ref ** 2)
        with pytest.raises(ValueError, match="T_ref"):
            mf.PhysConstants(T_ref=float(np.nextafter(T_ref, np.inf)))


    @pytest.mark.parametrize("name, match", [
        ("q_vs_star", "^q_vs_star must be nonnegative$"),
        ("g", "^gravity g must be nonnegative$")])
    def test_nan_constant_rejected(self, name, match):
        """A NaN fails the range check of its constant, with its message."""
        with pytest.raises(ValueError, match=match):
            mf.PhysConstants(**{name: float("nan")})


class TestRhoD:
    def test_zero_log_gives_unit_density(self, grid8):
        s = _state_with_log_rho(grid8, np.zeros(grid8.shape))
        assert np.all(np.exp(s.log_rho_d.values) == 1.0)

    def test_log_two(self, grid8):
        s = _state_with_log_rho(grid8, np.full(grid8.shape, math.log(2.0)))
        assert np.exp(s.log_rho_d.values) == pytest.approx(2.0)

    def test_random_against_scalar_exponential(self, grid8, bases8):
        vals = 0.3 * random_band_limited(grid8, bases8, seed=7)
        s = _state_with_log_rho(grid8, vals)
        got = np.exp(s.log_rho_d.values)
        # independent elementwise oracle via math.exp
        flat = vals.ravel()
        expected = np.array([math.exp(v) for v in flat]).reshape(vals.shape)
        assert np.allclose(got, expected, rtol=1e-15, atol=0.0)
        assert np.all(got > 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_state(self, grid8, bad):
        """A State is not built on a non-finite log rho_d, so exp of it is
        finite and positive wherever it does not overflow."""
        vals = np.zeros(grid8.shape)
        vals[0, 0, 0] = bad
        with pytest.raises(FloatingPointError, match="log_rho_d"):
            _state_with_log_rho(grid8, vals)


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
        assert np.array_equal(loaded.w.values, state.w.values)
        assert np.array_equal(loaded.frak_q_r.values, state.frak_q_r.values)

    @pytest.mark.parametrize("name", ["log_rho_d", "frak_q_v"])
    def test_non_finite_field_rejected(self, tmp_path, grid8, nondim, name):
        """A NaN in any field file is a ValueError naming that file, so that
        a resume stops before it writes anything."""
        state, _ = mf.preset_initial("manufactured", grid8, nondim)
        mf.save_state(tmp_path / "ckpt", state)
        path = tmp_path / "ckpt" / f"{name}.dat"
        f, _, t = mf.load_field(path)
        f.values[1, 2, 3] = np.nan
        mf.save_field(path, f, name, t)
        with pytest.raises(ValueError, match=re.escape(str(path)) + f": field {name} "):
            mf.load_state(tmp_path / "ckpt")

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
        ("u1", lambda a: a[:, :, :5], r"'u1' are complex128 of shape \(8, 3, 5\), not "
                                      r"complex of shape \(8, 5, 9\) or \(8, 3, 6\)"),
        ("T", lambda a: np.zeros((8, 5, 6), complex), r"'T' are complex128 of shape \(8, 5, 6\)"),
        ("qv", lambda a: a[:4], r"'qv' are complex128 of shape \(4, 3, 6\)"),
        ("w", lambda a: a.real.copy(), "'w' are float64"),
        ("T", None, "no coefficients 'T'"),
        ("log_rho_d", lambda a: a[:, :3, :6].copy(),
         r"'log_rho_d' are complex128 of shape \(8, 3, 6\), not complex of shape "
         r"\(8, 5, 9\)$"),
        ("qv", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7, np.nan, a),
         "'qv' hold a non-finite value")],
        ids=["shape", "mixed-extent", "x-cut", "real", "missing", "kept-log-rho",
             "nan"])
    def test_malformed_coefficient_array_rejected(self, ckpt, key, change, match):
        """Each coefficient array must be present, finite, complex and of
        one of the extents the grid's transforms give: the whole
        (nx, ny//2+1, nz) array or the kept (nx, ky_keep, mz_keep) block of
        the 2/3 rule, which log rho_d may not be, since the density step
        reads all of it."""
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


    @pytest.mark.parametrize("mode", ["direct", "picard"])
    def test_whole_extent_checkpoint_resumes_bitwise(self, tmp_path, grid8, nondim, mode):
        """A checkpoint whose modal.npz holds every array at the whole
        (nx, ny//2+1, nz) extent, the kept blocks padded with zeros, as
        earlier versions wrote it, loads those arrays and resumes to the
        bits of the uninterrupted run, whose states carry the blocks: the
        final fields and coefficients, and every row after the checkpoint's
        own."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        cfg = mf.SolverConfig(dt=1e-3, t_end=3e-3, mode=mode, checkpoint_every=1)
        full = mf.Simulation(grid8, nondim, bspec, cfg).run(state, out_dir=str(tmp_path))
        path = tmp_path / "checkpoints" / "step_000001"
        whole = (grid8.nx, grid8.ny // 2 + 1, grid8.nz)
        with np.load(path / MODAL_FILE) as npz:
            arrays = dict(npz)
        assert arrays["u1"].shape == (grid8.nx, *grid8.kept_extent)
        for name in MODAL_NAMES:
            a = arrays[name]
            arrays[name] = np.zeros(whole, complex)
            arrays[name][:, :a.shape[1], :a.shape[2]] = a
        with open(path / MODAL_FILE, "wb") as fh:
            np.savez(fh, **arrays)
        loaded = mf.load_state(path)
        assert all(loaded.modal[name].shape == whole for name in MODAL_NAMES)
        resumed = mf.Simulation(grid8, nondim, bspec, cfg).run(loaded)
        a, b = full.final_state, resumed.final_state
        for name, (va, vb) in zip(MODAL_NAMES[:-1], (
                (a.u1, b.u1), (a.u2, b.u2), (a.w, b.w), (a.frak_T, b.frak_T),
                (a.frak_q_v, b.frak_q_v), (a.frak_q_c, b.frak_q_c), (a.frak_q_r, b.frak_q_r))):
            assert va.values.tobytes() == vb.values.tobytes(), name
        assert a.log_rho_d.values.tobytes() == b.log_rho_d.values.tobytes()
        for name in MODAL_NAMES:
            assert a.modal[name].tobytes() == b.modal[name].tobytes(), name
        assert ([r.csv_values() for r in full.rows[2:]]
                == [r.csv_values() for r in resumed.rows[1:]])


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
