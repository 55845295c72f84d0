import gc
import weakref

import numpy as np
import pytest

import moistflow as mf
from moistflow.microphysics import growth_bound_constant

from conftest import clipped_rates, random_band_limited

C = mf.PhysConstants.nondimensional()


def cf(grid, v):
    return np.full(grid.shape, v)


def rfield(grid, bases, seed, scale=1.0, shift=0.0):
    return shift + scale * random_band_limited(grid, bases, seed=seed)


class TestSaturationClosure:
    def test_nonpositive_temperature_gives_zero(self, grid8):
        closure = mf.SaturationClosure(C)
        p = cf(grid8, 1.0)
        T = cf(grid8, -5.0)
        out = closure(p, T)
        assert np.all(out == 0.0)

    def test_bounds(self, grid8, bases8):
        closure = mf.SaturationClosure(C)
        p = np.abs(3.0 * random_band_limited(grid8, bases8, seed=1)) + 0.01
        T = rfield(grid8, bases8, 2, scale=3.0)
        out = closure(p, T)
        assert np.all(out >= 0.0)
        assert np.all(out <= C.q_vs_star)

    def test_lipschitz_on_lattice(self):
        """Dense-sampling oracle: finite difference quotients bounded by the
        documented Lipschitz constants."""
        closure = mf.SaturationClosure(C)
        L_p, L_T = closure.lipschitz_bounds()
        p = np.linspace(0.01, 5.0, 401)
        T = np.linspace(-1.0, 5.0, 401)
        P, TT = np.meshgrid(p, T, indexing="ij")
        q = closure(P, TT)
        dq_dp = np.abs(np.diff(q, axis=0)) / np.diff(p)[:, None]
        dq_dT = np.abs(np.diff(q, axis=1)) / np.diff(T)[None, :]
        assert dq_dp.max() <= L_p * (1.0 + 1e-9)
        assert dq_dT.max() <= L_T * (1.0 + 1e-9)

    def test_default_closure_free_without_garbage_collector(self):
        """No reference cycle: dropping a default closure frees it at once."""
        closure = mf.SaturationClosure(C)
        assert closure(np.array([1.0]), np.array([-1.0]))[0] == 0.0
        ref = weakref.ref(closure)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del closure
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_plugged_closure_evaluated_and_audited(self):
        """A closure given as func is audited once, on 400 samples, and is
        the one evaluated; the removed kind= selector is an error."""
        calls = []

        def f(p, T):
            calls.append(np.size(p))
            return np.where(np.asarray(T) > 0.0, 0.01, 0.0)

        closure = mf.SaturationClosure(C, func=f)
        assert calls == [400]
        assert closure(np.array([1.0]), np.array([1.0]))[0] == 0.01
        assert mf.SaturationClosure(C)(np.array([1.0]), np.array([1.0]))[0] != 0.01
        with pytest.raises(TypeError):
            mf.SaturationClosure(C, kind="user", func=f)

    def test_user_closure_audit_rejects_bound_violation(self):
        with pytest.raises(ValueError, match="q_vs"):
            mf.SaturationClosure(C, func=lambda p, T: np.full_like(p, 1.0))

    def test_user_closure_audit_rejects_nonzero_at_cold(self):
        bad = lambda p, T: np.full_like(np.asarray(p, dtype=float), 0.01)
        with pytest.raises(ValueError, match="vanish"):
            mf.SaturationClosure(C, func=bad)


class TestSources:
    def test_no_rain_kills_evaporation_and_collection(self, grid8):
        b = clipped_rates(cf(grid8, 1.0), cf(grid8, 0.01), cf(grid8, 0.005),
                          cf(grid8, 0.0), cf(grid8, 0.02), C)
        assert np.all(b["S_ev"] == 0.0)
        assert np.all(b["S_cr"] == 0.0)

    def test_saturated_kills_evaporation(self, grid8):
        # q_v >= q_vs everywhere makes the (q_vs - q_v)+ factor vanish
        b = clipped_rates(cf(grid8, 1.0), cf(grid8, 0.03), cf(grid8, 0.0),
                          cf(grid8, 0.001), cf(grid8, 0.02), C)
        assert np.all(b["S_ev"] == 0.0)

    def test_equilibrium_vapor_kills_condensation(self, grid8):
        b = clipped_rates(cf(grid8, 1.0), cf(grid8, 0.02), cf(grid8, 0.001),
                          cf(grid8, 0.0), cf(grid8, 0.02), C)
        assert np.all(b["S_cd"] == 0.0)

    def test_autoconversion_threshold(self, grid8):
        b = clipped_rates(cf(grid8, 1.0), cf(grid8, 0.0), cf(grid8, C.q_ac),
                          cf(grid8, 0.0), cf(grid8, 0.02), C)
        assert np.all(b["S_ac"] == 0.0)
        b2 = clipped_rates(cf(grid8, 1.0), cf(grid8, 0.0), cf(grid8, 2.0 * C.q_ac),
                           cf(grid8, 0.0), cf(grid8, 0.02), C)
        assert b2["S_ac"] == pytest.approx(C.c_ac * C.q_ac)

    def test_clipped_equals_raw_on_nonnegative_inputs(self, grid8, bases8):
        """Elementwise comparison oracle on random nonnegative fields."""
        T = np.abs(rfield(grid8, bases8, 30)) + 0.1
        qv = 0.02 * np.abs(rfield(grid8, bases8, 31))
        qc = 0.01 * np.abs(rfield(grid8, bases8, 32))
        qr = 0.01 * np.abs(rfield(grid8, bases8, 33))
        qvs = 0.02 * np.abs(rfield(grid8, bases8, 34))
        clip = clipped_rates(T, qv, qc, qr, qvs, C)
        raw = mf.source_values(T, qv, qc, qr, qvs, C, qv, qc)
        for name in ("S_ev", "S_cd", "S_ac", "S_cr"):
            assert np.allclose(clip[name], raw[name], rtol=1e-14, atol=0.0), name

    def test_clipped_signs(self, grid8, bases8):
        T = rfield(grid8, bases8, 40, scale=2.0)
        qv = rfield(grid8, bases8, 41, scale=0.05)
        qc = rfield(grid8, bases8, 42, scale=0.05)
        qr = rfield(grid8, bases8, 43, scale=0.05)
        qvs = 0.02 * np.abs(rfield(grid8, bases8, 44))
        b = clipped_rates(T, qv, qc, qr, qvs, C)
        assert np.all(b["S_ev"] >= 0.0)
        assert np.all(b["S_ac"] >= 0.0)
        assert np.all(b["S_cr"] >= 0.0)

    def test_raw_denominator_guard(self, grid8):
        qv, qc = cf(grid8, -2.0), cf(grid8, 0.0)
        with pytest.raises(ValueError, match="denominator"):
            mf.source_values(cf(grid8, 1.0), qv, qc, cf(grid8, 0.0),
                             cf(grid8, 0.02), C, qv, qc)

    def test_quadratic_growth_bound(self, grid8, bases8):
        """Clipped rates obey |S| <= C (1 + max(|T|,|q_v|,|q_c|,|q_r|)^2)."""
        bound = growth_bound_constant(C)
        for seed in range(5):
            T = rfield(grid8, bases8, 200 + seed, scale=3.0)
            qv = rfield(grid8, bases8, 300 + seed, scale=2.0)
            qc = rfield(grid8, bases8, 400 + seed, scale=2.0)
            qr = rfield(grid8, bases8, 500 + seed, scale=2.0)
            qvs = 0.03 * np.abs(rfield(grid8, bases8, 600 + seed))
            b = clipped_rates(T, qv, qc, qr, qvs, C)
            mx = np.maximum.reduce([np.abs(T), np.abs(qv), np.abs(qc), np.abs(qr)])
            envelope = bound * (1.0 + mx ** 2)
            for name in ("S_ev", "S_cd", "S_ac", "S_cr"):
                assert np.all(np.abs(b[name]) <= envelope), name


class TestWaterExchangeResidual:
    def _bundle(self, grid, bases, seed):
        T = rfield(grid, bases, seed, scale=2.0, shift=1.0)
        qv = rfield(grid, bases, seed + 1, scale=0.05)
        qc = rfield(grid, bases, seed + 2, scale=0.05)
        qr = rfield(grid, bases, seed + 3, scale=0.05)
        qvs = 0.02 * np.abs(rfield(grid, bases, seed + 4))
        return clipped_rates(T, qv, qc, qr, qvs, C)

    def test_zero_bundle(self, grid8):
        z = cf(grid8, 0.0)
        b = clipped_rates(z, z, z, z, z, C)
        assert np.all(mf.water_exchange_residual(b) == 0.0)

    def test_telescoping_to_machine_precision(self, grid8, bases8):
        b = self._bundle(grid8, bases8, 50)
        res = mf.water_exchange_residual(b)
        scale = np.maximum.reduce([np.abs(b["S_ev"]), np.abs(b["S_cd"]),
                                   np.abs(b["S_ac"]), np.abs(b["S_cr"])])
        assert np.all(np.abs(res) <= 4.0 * np.finfo(float).eps * (scale + 1e-300))

    def test_against_compensated_summation_oracle(self, grid8, bases8):
        import math
        b = self._bundle(grid8, bases8, 60)
        res = mf.water_exchange_residual(b)
        ev, cd = b["S_ev"].ravel(), b["S_cd"].ravel()
        ac, cr = b["S_ac"].ravel(), b["S_cr"].ravel()
        for i in range(0, ev.size, 37):
            exact = math.fsum([ev[i], -cd[i], cd[i], -ac[i], -cr[i],
                               ac[i], cr[i], -ev[i]])
            scale = max(abs(ev[i]), abs(cd[i]), abs(ac[i]), abs(cr[i]), 1e-300)
            assert abs(res.ravel()[i] - exact) <= 4.0 * np.finfo(float).eps * scale
