import os
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import moistflow as mf
from moistflow import diagnostics as dg
from moistflow.fields import MODAL_NAMES, ScalarField, State
from moistflow.spectral_ops import (derivs, div_modal, to_modal_values, to_phys_values,
                                    dz_modal)

from conftest import (clipped_q_factors, clipped_rates, kernel_outputs,
                      random_band_limited)
from mms import run_mms


def make_sim(grid, constants, preset="equilibrium", mode="picard", dt=1e-3,
             t_end=1e-2, **cfg_kw):
    state, bspec = mf.preset_initial(preset, grid, constants)
    cfg = mf.SolverConfig(dt=dt, t_end=t_end, mode=mode, **cfg_kw)
    return mf.Simulation(grid, constants, bspec, cfg), state


def density_step(sim, state, u, dt):
    """density_step from ``state`` under the frozen velocity ``u``, the
    fields (u1, u2, w), with the inputs built as picard_solve builds them:
    the frozen velocity and the order-2 derivative set of
    ``state.log_rho_d``."""
    state = dg.with_coefficients(state, sim.bases)
    dlog = derivs(state.modal["log_rho_d"], sim.bases.neumann, order=2)
    frozen = dg.with_coefficients(replace(state, u1=u[0], u2=u[1], w=u[2]), sim.bases)
    return sim.density_step(state, sim._frozen_velocity(frozen), dt, dlog)


def linear_step(sim, frozen, current, dt):
    """linear_step with the factors and frozen velocity picard_solve would
    hand it for ``frozen``, which it gives its coefficients."""
    frozen = dg.with_coefficients(frozen, sim.bases)
    return sim.linear_step(frozen, current, dt, sim.factors_at(current.time, dt),
                           sim._frozen_velocity(frozen))


def m_norm_parts(sim, a, b, dt):
    """The increment parts of the Picard metric for the difference of two
    states."""
    return sim._increment_parts(dg.difference_sqs(a, b, sim.bases), dt)


def assemble_rhs(sim, state, factors, terms=None):
    """assemble_rhs on the frozen state ``state``, given its coefficients,
    at t_new = state.time."""
    state = dg.with_coefficients(state, sim.bases)
    return sim.assemble_rhs(state, factors, state.time, sim._frozen_velocity(state),
                            terms)


def count_transforms(monkeypatch, sets: list | None = None) -> dict:
    """Counts of the forward ("fwd") and inverse ("inv") transforms made
    from here on.  A derivative set (``derivs``) shares its passes, and
    each array it returns counts as one inverse; with ``sets`` each set
    also appends its keys there."""
    count = {"fwd": 0, "inv": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_set(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count["inv"] += len(out)
            if sets is not None:
                sets.append(tuple(out))
            return out
        return wrapper

    monkeypatch.setattr(mf.spectral_ops, "to_modal_values",
                        counted("fwd", mf.spectral_ops.to_modal_values))
    monkeypatch.setattr(mf.spectral_ops, "to_phys_values",
                        counted("inv", mf.spectral_ops.to_phys_values))
    monkeypatch.setattr(mf.spectral_ops, "derivs",
                        counted_set(mf.spectral_ops.derivs))
    return count


class TestDensityStep:
    def test_no_flow_leaves_density_alone(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim)
        out = density_step(sim, state, (ScalarField.zeros(grid16),) * 3, 1e-3)
        assert np.array_equal(out.values, state.log_rho_d.values)

    def test_constant_flow_translates(self, grid16, nondim, bases16):
        sim, state = make_sim(grid16, nondim)
        amp, dt = 0.3, 1e-3
        f = lambda x: amp * np.sin(np.pi * x) + 0.1 * np.cos(2 * np.pi * x)
        vals = np.broadcast_to(f(grid16.x)[:, None, None], grid16.shape).copy()
        state.log_rho_d = ScalarField(grid16, vals)
        u = (ScalarField.full(grid16, 1.0), ScalarField.zeros(grid16),
             ScalarField.zeros(grid16))
        out = density_step(sim, state, u, dt)
        expected = np.broadcast_to(f(grid16.x - dt)[:, None, None], grid16.shape)
        # div u = 0 so this is pure advection; departure-point Taylor
        # evaluation is O(dt^3)-accurate here
        assert np.max(np.abs(out.values - expected)) < 1e-8

    def test_mass_conserved_second_order_per_step(self, grid16, nondim, bases16):
        """Step-halving oracle: one-step dry-mass drift shrinks by at least
        the second-order factor."""
        sim, state = make_sim(grid16, nondim)
        u = (ScalarField(grid16, 0.5 * random_band_limited(grid16, bases16, seed=1, max_mode=3)),
             ScalarField(grid16, 0.5 * random_band_limited(grid16, bases16, seed=2, max_mode=3)),
             ScalarField(grid16, 0.5 * random_band_limited(
                 grid16, bases16, kind="dirichlet_z", seed=3, max_mode=3)))
        w = grid16.quad_weights()
        m0 = float(np.sum(np.exp(state.log_rho_d.values) * w))

        def drift(dt):
            out = density_step(sim, state, u, dt)
            return abs(float(np.sum(np.exp(out.values) * w)) - m0)

        d1, d2 = drift(0.02), drift(0.01)
        assert d1 > 1e-13  # above the roundoff floor, so the ratio is meaningful
        assert d2 <= d1 / 3.5

    def test_material_derivative_formed_once(self, grid16, nondim, bases16):
        """The frozen velocity's A_i = u1 dx u_i + u2 dy u_i + w dz u_i
        serve both stages: density_step's midpoint velocity u_i - (dt/2) A_i
        gives log rho_d within 1e-14 relative of the order-1 Taylor value of
        u_i at x - (dt/2) u, formed from the nine derivatives, and the
        momentum advection assemble_rhs records is -M A_i bitwise, with
        the bundle's M = rho Q_m.
        The velocity holds div u and the kept block of its coefficients,
        and grad div u formed from them is bitwise the derivative set of
        the whole-array divergence."""
        sim, state = make_sim(grid16, nondim, preset="saturated_layer")
        state.log_rho_d = ScalarField(grid16, state.log_rho_d.values + 0.3 * random_band_limited(
            grid16, bases16, seed=4, max_mode=3))
        u = tuple(ScalarField(grid16, 0.5 * random_band_limited(
            grid16, bases16, kind=kind, seed=seed, max_mode=3)) for kind, seed in (
                ("neumann_z", 1), ("neumann_z", 2), ("dirichlet_z", 3)))
        dt = 1e-2
        got = density_step(sim, state, u, dt).values

        state = dg.with_coefficients(state, sim.bases)
        frozen = dg.with_coefficients(replace(state, u1=u[0], u2=u[1], w=u[2]), sim.bases)
        velocity = sim._frozen_velocity(frozen)
        neu, diri = sim.bases.neumann, sim.bases.dirichlet
        # the velocity keeps div u and its kept-block coefficients, from
        # which grad div u is formed where it is read
        assert velocity.div_modal.shape == (grid16.nx, *grid16.kept_extent)
        grad_div = derivs(velocity.div_modal, neu, dealias=True)
        div_m = div_modal(frozen.modal["u1"], frozen.modal["u2"], frozen.modal["w"],
                          sim.bases)
        ref = derivs(div_m, neu, dealias=True)
        assert velocity.div.tobytes() == to_phys_values(div_m, neu, True).tobytes()
        for k in "xyz":
            assert grad_div[k].tobytes() == ref[k].tobytes(), k
        d = [derivs(frozen.modal[name], basis, dealias=True)
             for name, basis in (("u1", neu), ("u2", neu), ("w", diri))]
        u1, u2, w = (f.values for f in u)
        z = grid16.z[None, None, :]

        def log_rho_new(um1, um2, umw):
            dx_f, dy_f = -dt * um1, -dt * um2
            dz_f = np.clip(z - dt * umw, 0.0, 1.0) - z
            log = sim._taylor_eval(state.log_rho_d.values, derivs(
                state.modal["log_rho_d"], neu, order=2), dx_f, dy_f, dz_f, order=2)
            return log - dt * sim._taylor_eval(velocity.div, grad_div, 0.5 * dx_f,
                                               0.5 * dy_f, 0.5 * dz_f, order=1)

        hx, hy, hz = -0.5 * dt * u1, -0.5 * dt * u2, -0.5 * dt * w
        ref = log_rho_new(*(v + hx * di["x"] + hy * di["y"] + hz * di["z"]
                            for v, di in zip((u1, u2, w), d)))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale
        # the midpoint correction is far above that tolerance
        assert np.max(np.abs(log_rho_new(u1, u2, w) - ref)) > 1e-8 * scale

        terms = {}
        rhs = assemble_rhs(sim, frozen, sim.factors_at(0.0, dt), terms)
        rQm = rhs.M
        for term, a, di in zip(terms["momentum"]["advection"], velocity.advection, d):
            assert np.array_equal(a, u1 * di["x"] + u2 * di["y"] + w * di["z"])
            assert term.tobytes() == (-rQm * a).tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    def test_taylor_eval_keeps_the_written_order(self, grid8, order):
        """The departure-point evaluator, which sums in place to keep few
        temporaries alive, has the bits of its series written out as one
        left-to-right expression."""
        rng = np.random.default_rng(5)
        vals, dx, dy, dz = (rng.standard_normal(grid8.shape) for _ in range(4))
        d = {k: rng.standard_normal(grid8.shape)
             for k in ("x", "y", "z", "xx", "yy", "zz", "xy", "xz", "yz")}
        want = vals + dx * d["x"] + dy * d["y"] + dz * d["z"]
        if order == 2:
            want = want + 0.5 * (dx * dx * d["xx"] + dy * dy * d["yy"] + dz * dz * d["zz"]) \
                + dx * dy * d["xy"] + dx * dz * d["xz"] + dy * dz * d["yz"]
        got = mf.Simulation._taylor_eval(vals, d, dx, dy, dz, order=order)
        assert got.tobytes() == want.tobytes()

    def test_no_penetration_enforced(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim)
        bad_w = np.ones(grid16.shape)
        u = (ScalarField.zeros(grid16), ScalarField.zeros(grid16),
             ScalarField(grid16, bad_w))
        with pytest.raises(ValueError, match="no-penetration"):
            density_step(sim, state, u, 1e-3)


class TestAssembleRhs:
    def test_rest_state_reduces_to_pressure_and_gravity(self, grid16, nondim, bases16):
        """Uniform rho, rest, zero moisture, pure Neumann walls: only the
        hydrostatic imbalance survives."""
        state, bspec = mf.preset_initial("equilibrium", grid16, nondim)
        # replace the balanced column with a uniform one and perturb T
        state.log_rho_d = ScalarField.zeros(grid16)
        bump = 0.01 * random_band_limited(grid16, bases16, seed=4, max_mode=2)
        state.frak_T = ScalarField(grid16, state.frak_T.values + bump)
        sim = mf.Simulation(grid16, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=1e-3))
        factors = sim.factors_at(0.0)
        rho = np.exp(state.log_rho_d.values)
        terms = {}
        rhs = assemble_rhs(sim, state, factors, terms)

        for name in ("advection", "sedimentation_drag"):
            for comp in terms["momentum"][name]:
                assert np.max(np.abs(comp)) == 0.0
        p = mf.pressure_values(rho, np.zeros(grid16.shape), state.frak_T.values, nondim)
        gp = derivs(to_modal_values(p, bases16.neumann), bases16.neumann)
        tot = rhs.momentum
        assert np.allclose(tot[0], -gp["x"], atol=1e-12)
        assert np.allclose(tot[1], -gp["y"], atol=1e-12)
        assert np.allclose(tot[2], -gp["z"] - rho * nondim.g, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("attr", ["frak_T", "frak_q_r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scalar_rejected(self, grid8, nondim, attr, bad):
        """A NaN or an infinity in T or q_r reaches assemble_rhs's finite
        check, though the clipped q_r+ of -inf is 0."""
        sim, state = make_sim(grid8, nondim, preset="saturated_layer")
        vals = getattr(state, attr).values.copy()
        vals[1, 2, 3] = bad
        state = replace(state, **{attr: ScalarField(grid8, vals)})
        with pytest.raises(mf.StepRejected, match="non-finite RHS"):
            assemble_rhs(sim, state, sim.factors_at(0.0, 1e-3))

    def test_zero_rain_kills_sedimentation_terms(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim, preset="thermal_bubble")
        factors = sim.factors_at(0.0)
        terms = {}
        assemble_rhs(sim, state, factors, terms)
        for comp in terms["momentum"]["sedimentation_drag"]:
            assert np.max(np.abs(comp)) == 0.0
        assert np.max(np.abs(terms["temperature"]["sedimentation"])) == 0.0
        assert np.max(np.abs(terms["rain"]["sedimentation"])) == 0.0

    def test_term_recomposition(self, grid16, nondim):
        """Keeping the named terms does not change the totals, and each
        total is bitwise the left-to-right sum of its terms."""
        sim, state = make_sim(grid16, nondim, preset="saturated_layer")
        factors = sim.factors_at(0.0)
        terms = {}
        named = assemble_rhs(sim, state, factors, terms)
        plain = assemble_rhs(sim, state, factors)
        assert list(terms["momentum"]) == ["pressure_gradient", "advection",
                                           "sedimentation_drag", "gravity"]

        def bits(a):
            return np.asarray(a).tobytes()

        for eq in ("temperature", "vapor", "cloud", "rain", "momentum"):
            def comps(v):
                return v if eq == "momentum" else (v,)
            acc = None
            for v in terms[eq].values():
                acc = ([np.array(x) for x in comps(v)] if acc is None
                       else [a + x for a, x in zip(acc, comps(v))])
            for a, got, ref in zip(acc, comps(getattr(named, eq)),
                                   comps(getattr(plain, eq))):
                assert bits(got) == bits(ref), eq
                assert bits(a) == bits(got), eq

    def test_solver_runs_the_library_kernels(self, grid8, nondim, monkeypatch):
        """The rates, q_vs, Q-factors and pressure that assemble_rhs builds
        are bitwise those of the library functions on the dehomogenized
        fields, so the tests of thermo and microphysics check what runs."""
        sim, state = make_sim(grid8, nondim, preset="saturated_layer", mode="direct")
        state = sim.direct_step(state, 1e-3)
        factors = sim.factors_at(state.time, 1e-3)
        rho = np.exp(state.log_rho_d.values)
        built = kernel_outputs(monkeypatch, sim)
        rhs = assemble_rhs(sim, state, factors)

        T, qv, qc, qr = (mf.dehomogenize(f, factors[var]).values for f, var in (
            (state.frak_T, "T"), (state.frak_q_v, "v"),
            (state.frak_q_c, "c"), (state.frak_q_r, "r")))
        p = mf.pressure_values(rho, qv, T, nondim)
        q_vs = sim.closure(p, T)
        Q_m, Q_th, Q_cp, Q_1, Q_2 = clipped_q_factors(qv, qc, qr, nondim)
        rates = clipped_rates(T, qv, qc, qr, q_vs, nondim)

        assert np.array_equal(built["p"], p)
        assert np.array_equal(rhs.M, rho * Q_m)
        assert np.array_equal(rhs.Q_th, Q_th)
        assert rhs.M.tobytes() == (rho * built["Q_m"]).tobytes()
        assert rhs.Q_th is built["Q_th"]
        assert np.array_equal(built["Q_cp"], Q_cp)
        assert (built["Q_1"], built["Q_2"]) == (Q_1, Q_2)
        assert np.array_equal(built["q_vs"], q_vs)
        for name in ("S_ev", "S_cd", "S_ac", "S_cr"):
            assert np.array_equal(built[name], rates[name]), name
        assert np.any(rates["S_cd"]) and np.any(rates["S_cr"])

    def test_bundle_keeps_no_pressure_or_rates(self, grid8, nondim, monkeypatch):
        """Once assemble_rhs returns, its pressure, q_vs and four rates are
        gone while the bundle is still alive, and so is Q_m; the bundle
        holds the totals, M = rho Q_m and Q_th alone."""
        sim, state = make_sim(grid8, nondim, preset="saturated_layer", mode="direct")
        state = sim.direct_step(state, 1e-3)
        refs = kernel_outputs(monkeypatch, sim, hold=weakref.ref)
        rhs = assemble_rhs(sim, state, sim.factors_at(state.time, 1e-3))
        assert [f.name for f in fields(rhs)] == [
            "momentum", "temperature", "vapor", "cloud", "rain", "M", "Q_th"]
        for name in ("p", "q_vs", "S_ev", "S_cd", "S_ac", "S_cr", "Q_m"):
            assert refs[name]() is None, name
        assert refs["Q_th"]() is rhs.Q_th


class TestLinearStep:
    def test_zero_in_zero_out(self, grid8):
        const = mf.PhysConstants.nondimensional(g=0.0)
        state, bspec = mf.preset_initial("equilibrium", grid8, const,
                                         T0=1.0, rho0=1.0)
        zero = State(*(ScalarField.zeros(grid8) for _ in range(8)))
        sim = mf.Simulation(grid8, const, bspec, mf.SolverConfig(dt=1e-3, t_end=1e-3))
        out = linear_step(sim, zero, zero, 1e-3)
        for f in (out.u1, out.u2, out.w, out.frak_T,
                  out.frak_q_v, out.frak_q_c, out.frak_q_r):
            assert np.max(np.abs(f.values)) < 1e-14

    def test_diffusion_eigenfunction_decay(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim)
        eps, dt = 1e-3, 2e-3
        mode = np.broadcast_to(np.cos(np.pi * grid16.z), grid16.shape).copy()
        state.frak_T = ScalarField(grid16, state.frak_T.values + eps * mode)
        out = linear_step(sim, state, state, dt)
        Qbar = nondim.c_pd / nondim.gamma
        factor = 1.0 / (1.0 + nondim.kappa * dt * np.pi**2 / Qbar)
        T0 = float(state.frak_T.values[0, 0, 0] - eps)  # uniform part survives
        expected = T0 + eps * factor * mode
        assert np.max(np.abs(out.frak_T.values - expected)) < 1e-13

    def test_manufactured_forcing_first_order(self, grid8):
        errs = [run_mms(grid8, dt, t_end=0.02) for dt in (4e-3, 2e-3, 1e-3)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for o in orders:
            assert 0.85 <= o <= 1.15


    @pytest.mark.parametrize("shape", [(8, 8, 9), (6, 10, 7)])
    def test_carried_coefficients_are_those_of_the_fields(self, shape, nondim):
        """The coefficients linear_step attaches to its state, and hands to
        the next iterate, are the modal coefficients of the fields it
        returns."""
        grid = mf.make_grid(*shape)
        sim, state = make_sim(grid, nondim, preset="saturated_layer", mode="direct")
        state = sim.direct_step(state, 1e-3)
        assert_carries_own_coefficients(linear_step(sim, state, state, 1e-3), sim.bases)


class TestPicard:
    def test_equilibrium_is_fixed_point(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim)
        out, rep = sim.picard_solve(state, 1e-3)
        assert rep.converged and rep.iterations == 1
        assert rep.increments[0]["total"] < 1e-12
        assert np.max(np.abs(out.frak_T.values - state.frak_T.values)) < 1e-12
        assert max(np.max(np.abs(c.values)) for c in (out.u1, out.u2, out.w)) < 1e-12

    def test_ratios_small_and_roughly_dt_proportional(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim, preset="thermal_bubble")
        means = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            s, ratios = state, []
            for _ in range(3):
                s, rep = sim.picard_solve(s, dt)
                ratios.extend(rep.ratios)
            means.append(np.mean(ratios))
        assert all(m < 1.0 for m in means)
        assert means[0] > means[1] > means[2]
        # halving dt should roughly halve the contraction factor
        assert 1.4 <= means[0] / means[1] <= 3.0
        assert 1.4 <= means[1] / means[2] <= 3.0

    def test_fixed_point_consistency(self, grid16, nondim):
        """For converged output x*, one more application of the map moves it
        by no more than twice the tolerance times the state size."""
        from dataclasses import replace
        dt = 1e-3
        sim, state = make_sim(grid16, nondim, preset="thermal_bubble",
                              picard_tol=1e-10, picard_max_iters=30)
        out, rep = sim.picard_solve(state, dt)
        assert rep.converged
        log_rho = density_step(sim, state, (out.u1, out.u2, out.w), dt)
        mx = linear_step(sim, replace(out, log_rho_d=log_rho), state, dt)
        delta = m_norm_parts(sim, mx, out, dt)["total"]
        zero = State(out.log_rho_d, *(ScalarField.zeros(grid16) for _ in range(7)),
                     out.time)
        x_norm = m_norm_parts(sim, out, zero, dt)["total"]
        assert delta <= 2.0 * 1e-10 * x_norm

    def test_large_dt_rejected_then_half_succeeds(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim, preset="thermal_bubble",
                              dt=8e-2, picard_tol=1e-5, picard_max_iters=12,
                              t_end=8e-2)
        with pytest.raises(mf.StepRejected):
            sim.picard_solve(state, 8e-2)
        out, rep = sim._advance(state, 8e-2)   # retry policy halves dt
        assert out.time == pytest.approx(8e-2)
        assert rep is not None and rep.converged

    def test_report_invariants(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim, preset="thermal_bubble")
        out, rep = sim.picard_solve(state, 1e-3)
        assert all(np.isfinite(r) for r in rep.ratios)
        assert rep.converged
        incs = [d["total"] for d in rep.increments]
        assert incs[-1] <= 1e-8 * incs[0] * (1.0 + 1e-12)


class TestDirectStep:
    def test_equals_one_picard_iteration_bitwise(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim, preset="saturated_layer", mode="direct")
        a = sim.direct_step(state, 1e-3)
        b, _ = sim.picard_solve(state, 1e-3, max_iters=1)
        for fa, fb in ((a.log_rho_d, b.log_rho_d), (a.u1, b.u1),
                       (a.w, b.w), (a.frak_T, b.frak_T),
                       (a.frak_q_v, b.frak_q_v), (a.frak_q_r, b.frak_q_r)):
            assert np.array_equal(fa.values, fb.values)

    @pytest.mark.parametrize("mode", ["direct", "picard"])
    def test_cfl_warning(self, grid16, nondim, mode):
        sim, state = make_sim(grid16, nondim, mode=mode, t_end=1e-3,
                              max_dt_halvings=0)
        state.u1, state.u2, state.w = (ScalarField.full(grid16, 150.0),
                                       ScalarField.zeros(grid16), ScalarField.zeros(grid16))
        with pytest.warns(UserWarning, match="CFL"):
            try:
                sim.run(state)
            except RuntimeError:    # the step may be rejected after the warning
                pass

    def test_transform_budget(self, grid8, nondim, monkeypatch):
        """Exact transform counts of one direct step from a moving state that
        carries its coefficients, and its 11 derivative sets (grad div u is
        formed twice, by density_step and by linear_step, and div u is a
        single inverse), and of each Picard iteration after the first, so
        that a repeated transform shows."""
        sim, state = make_sim(grid8, nondim, preset="saturated_layer", mode="picard")
        state = sim.direct_step(state, 1e-3)
        assert np.any(state.w.values)
        sets = []
        count = count_transforms(monkeypatch, sets)
        sim.direct_step(state, 1e-3)
        assert count == {"fwd": 9, "inv": 52}
        assert len(sets) == 11
        assert sorted(map(len, sets)) == [3] * 10 + [9]    # 39 of the 52

        ends = []
        linear_step = sim.linear_step

        def marked(*args, **kwargs):
            out = linear_step(*args, **kwargs)
            ends.append((count["fwd"], count["inv"]))
            return out

        monkeypatch.setattr(sim, "linear_step", marked)
        _, rep = sim.picard_solve(state, 1e-3)
        assert rep.iterations >= 3
        per_iteration = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(ends, ends[1:])}
        assert per_iteration == {(9, 43)}

    def test_compute_row_transform_budget(self, grid8, nondim, monkeypatch):
        """The diagnostics row reads the coefficients a state carries: the
        dehomogenized scalars' come from those of frak, with F(B^-1 psi)
        formed on the first row and held by the factors, so that only
        sqrt(rho) is transformed; on a state without coefficients the row
        makes all nine."""
        sim, state = make_sim(grid8, nondim, preset="saturated_layer", mode="direct")
        carried = sim.direct_step(state, 1e-3)
        factors = sim.factors_at(carried.time, 1e-3)
        psi_count = sum(not f.psi.is_zero for f in factors.values())
        assert psi_count > 0
        count = count_transforms(monkeypatch)
        dg.compute_row(carried, factors, sim.bases, step=1)
        assert count == {"fwd": 1 + psi_count, "inv": 0}
        for s, fwd in ((carried, 1), (carried.copy(), 9)):
            count.update(fwd=0, inv=0)
            dg.compute_row(s, factors, sim.bases, step=1)
            assert count == {"fwd": fwd, "inv": 0}

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_compute_row_norms_match_transformed_values(self, grid8, nondim,
                                                        time_dependent):
        """The norms of the dehomogenized T, q_v, q_c, q_r taken from the
        carried coefficients equal those of the forward transforms of their
        values, on a saturated layer (psi != 0) and with boundary data that
        vary in time and along the wall."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        if time_dependent:
            for var, a in (("T", 0.05), ("v", 1e-3)):
                vb = bspec[var]
                vb.data_bottom = lambda t, b=vb.data_bottom, a=a: {
                    (0, 0): b + a * (1.0 + t), (1, 2): a * np.cos(t), (-1, -2): a * np.cos(t)}
        cfg = mf.SolverConfig(dt=1e-3, t_end=1e-2, mode="direct")
        sim = mf.Simulation(grid8, nondim, bspec, cfg)
        assert bspec.time_dependent == time_dependent
        carried = sim.direct_step(sim.direct_step(state, 1e-3), 1e-3)
        factors = sim.factors_at(carried.time, 1e-3)
        neu = sim.bases.neumann
        assert not factors["T"].psi.is_zero
        assert factors["v"].psi.is_zero != time_dependent
        row = dg.compute_row(carried, factors, sim.bases, step=2)
        for attr, var, name in (("frak_T", "T", "T"), ("frak_q_v", "v", "qv"),
                                ("frak_q_c", "c", "qc"), ("frak_q_r", "r", "qr")):
            fac = factors[var]
            vals = mf.dehomogenize(getattr(carried, attr), fac).values
            want = dg._norm_triplet(to_modal_values(vals, neu), neu)
            assert row.norms[name] == pytest.approx(want, rel=1e-12, abs=0.0), name

    def test_step_halving_richardson_first_order(self, grid16, nondim):
        sim, state = make_sim(grid16, nondim, preset="thermal_bubble", mode="direct")

        def halving_gap(dt):
            full = sim.direct_step(state, dt)
            half = sim.direct_step(sim.direct_step(state, dt / 2), dt / 2)
            return m_norm_parts(sim, full, half, dt)["total"]

        g1, g2 = halving_gap(2e-3), halving_gap(1e-3)
        # over one interval the full-vs-two-halves gap scales like the local
        # truncation error O(dt^2) of a first-order method: factor ~ 4
        assert 3.0 <= g1 / g2 <= 6.0


class TestWorkingSet:
    def test_uniform_wall_data_cache_z_profiles(self, grid16, nondim):
        """After a step and its row on the saturated layer, whose wall data
        are uniform along the walls (psi != 0 for T, 0 for the moisture),
        every array an extension has cached depends on z alone, and so
        does the F(B^-1 psi) the row's factors keep."""
        sim, state = make_sim(grid16, nondim, preset="saturated_layer", mode="direct",
                              t_end=1e-3)
        sim.run(state)
        factors = sim.factors_at(1e-3, 1e-3)
        assert not factors["T"].psi.is_zero
        assert factors["T"].psi._cache
        for var, fac in factors.items():
            for key, arr in fac.psi._cache.items():
                assert arr.shape == (1, 1, grid16.nz), (var, key)
            assert fac.psi._profile0 is None or fac.psi._profile0.shape[:2] == (1, 1)
        assert factors["T"]._binv_modal[1].shape == (1, 1, grid16.nz)

    @pytest.mark.parametrize("n, bound", [(16, 26.8), (32, 25.5)])
    def test_direct_step_peak_memory(self, nondim, n, bound):
        """A direct step from a carried state, with what is built once
        already built, allocates at most ``bound`` field arrays above its
        start at its peak (traced): its measured peak, 25.8 arrays at
        16x16x17 and 24.6 at 32x32x33, plus one."""
        grid = mf.make_grid(n, n, n + 1)
        sim, state = make_sim(grid, nondim, preset="saturated_layer", mode="direct")
        carried = sim.direct_step(state, 1e-3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sim.direct_step(carried, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * np.prod(grid.shape)) <= bound

    def test_carried_coefficients_size(self, nondim):
        """A carried 32x32x33 state holds at most 1.2 MB of coefficients:
        seven kept blocks and the whole log rho_d array (the whole arrays
        would take 2.3 MB)."""
        grid = mf.make_grid(32, 32, 33)
        sim, state = make_sim(grid, nondim, preset="saturated_layer", mode="direct")
        carried = sim.direct_step(state, 1e-3)
        assert sum(m.nbytes for m in carried.modal.values()) <= 1.2e6


def assert_carries_own_coefficients(state, bases):
    """state.modal holds the forward transforms of its fields, to rounding,
    each array on its own extent: the whole array, or the kept block of
    the 2/3 rule, outside which the transform is 0 to rounding."""
    assert state.modal is not None and list(state.modal) == list(MODAL_NAMES)
    values = dict(dg.iterated_values(state), log_rho_d=state.log_rho_d.values)
    g = state.grid
    for name in MODAL_NAMES:
        a = state.modal[name]
        ref = to_modal_values(values[name], dg.iterated_basis(name, bases))
        assert a.shape in (ref.shape, (g.nx, *g.kept_extent)), name
        lead = (slice(None), slice(a.shape[1]), slice(a.shape[2]))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(a - ref[lead])) <= 1e-13 * scale, name
        ref[lead] = 0.0
        assert np.max(np.abs(ref)) <= 1e-13 * scale, name


class TestCarriedCoefficients:
    """``State.modal`` holds the coefficients of the state's own fields on
    every state the solver builds, and on no other state."""

    @pytest.fixture
    def moving(self, grid8, nondim):
        sim, state = make_sim(grid8, nondim, preset="saturated_layer",
                              mode="direct", t_end=3e-3)
        return sim, sim.direct_step(state, 1e-3)

    def test_direct_and_picard_states(self, moving):
        sim, state = moving
        assert_carries_own_coefficients(state, sim.bases)
        before = dict(state.modal)
        assert_carries_own_coefficients(sim.direct_step(state, 1e-3), sim.bases)
        out, rep = sim.picard_solve(state, 1e-3)
        assert rep.iterations >= 3
        assert_carries_own_coefficients(out, sim.bases)
        # a retry at half dt must still find the input state's coefficients
        assert all(state.modal[k] is before[k] for k in MODAL_NAMES)

    def test_carried_coefficients_vanish_outside_the_kept_block(self, moving):
        """After a dealiased direct step and a Picard step, every iterated
        coefficient array is the kept (nx, ky_keep, mz_keep) block of the
        2/3 rule, nothing outside it is stored, and the kx rows the rule
        drops are exactly 0; log rho_d keeps the whole array.  The block
        inverse ignores the dropped rows, so the fields would not show a
        solve that leaked into them."""
        sim, state = moving
        out, rep = sim.picard_solve(state, 1e-3)
        assert rep.iterations >= 3
        g, neu = state.grid, sim.bases.neumann
        for s in (state, sim.direct_step(state, 1e-3), out):
            for name in dg.ITERATED:
                m = s.modal[name]
                assert m.shape == (g.nx, *g.kept_extent), name
                assert np.all(m[~neu.kx_keep] == 0.0), name
                assert np.any(m[neu.kx_keep] != 0.0), name
            assert s.modal["log_rho_d"].shape == (g.nx, g.ny // 2 + 1, g.nz)

    def test_state_after_a_halved_step(self, moving, monkeypatch):
        sim, state = moving
        picard_solve = sim.picard_solve

        def reject_full_dt(s, dt, max_iters=None):
            if dt == 1e-3:
                raise mf.StepRejected("forced")
            return picard_solve(s, dt, max_iters)

        monkeypatch.setattr(sim, "picard_solve", reject_full_dt)
        out, _ = sim._advance(state, 1e-3)
        assert sim._rejections == 1
        assert out.time == pytest.approx(state.time + 1e-3)
        assert_carries_own_coefficients(out, sim.bases)

    def test_run_final_state_and_checkpoint(self, tmp_path, grid8, nondim,
                                            monkeypatch):
        sim, state = make_sim(grid8, nondim, preset="saturated_layer",
                              mode="direct", t_end=3e-3, checkpoint_every=3)
        written = []
        checkpoint = mf.solver.RunRecorder._checkpoint
        monkeypatch.setattr(mf.solver.RunRecorder, "_checkpoint", lambda rec, name, s:
                            written.append(name) or checkpoint(rec, name, s))
        traj = sim.run(state, out_dir=str(tmp_path))
        # the last step is checkpointed once
        assert written == [os.path.join("checkpoints", "step_000003")]
        assert_carries_own_coefficients(traj.final_state, sim.bases)
        loaded = mf.load_state(tmp_path / "checkpoints" / "step_000003")
        for name in MODAL_NAMES:
            assert np.array_equal(loaded.modal[name], traj.final_state.modal[name])
        assert_carries_own_coefficients(loaded, sim.bases)

    def test_with_coefficients(self, moving):
        """with_coefficients returns a state that carries coefficients
        itself; of a bare state, a copy with the same fields that carries
        the forward transform of each field in its basis, bitwise, while
        the input stays bare."""
        sim, state = moving
        assert dg.with_coefficients(state, sim.bases) is state
        bare = state.copy()
        out = dg.with_coefficients(bare, sim.bases)
        assert bare.modal is None and out is not bare
        assert list(out.modal) == list(MODAL_NAMES)
        assert out.time == bare.time
        assert all(getattr(out, f) is getattr(bare, f) for f in (
            "log_rho_d", "u1", "u2", "w", "frak_T", "frak_q_v", "frak_q_c", "frak_q_r"))
        values = dict(dg.iterated_values(bare), log_rho_d=bare.log_rho_d.values)
        for name in MODAL_NAMES:
            assert np.array_equal(out.modal[name], to_modal_values(
                values[name], dg.iterated_basis(name, sim.bases))), name

    def test_states_built_otherwise_carry_none(self, moving, grid8, nondim):
        sim, state = moving
        assert replace(state, time=state.time).modal is None
        assert state.copy().modal is None
        assert mf.perturb_state(state, sim.bases, amplitude=1e-6).modal is None
        for name in ("frak_T", "u1", "u2", "w"):
            reassigned = sim.direct_step(state, 1e-3)
            setattr(reassigned, name, getattr(reassigned, name).copy())
            assert reassigned.modal is None, name

    def test_fixer_keeps_the_coefficients_it_does_not_touch(self, moving, grid8):
        """The positivity fixer hands on the carried coefficients of every
        field it leaves alone, and the forward transforms of those it fixes."""
        sim, state = moving
        dry = sim.direct_step(replace(state, frak_q_r=ScalarField(
            grid8, state.frak_q_r.values - 1e-3)), 1e-3)
        fixed = sim._apply_positivity_fix(dry, sim.factors_at(dry.time))
        assert sim._positivity_fixes > 0 and fixed.frak_q_r is not dry.frak_q_r
        assert list(fixed.modal) == list(MODAL_NAMES)
        values = dict(dg.iterated_values(fixed), log_rho_d=fixed.log_rho_d.values)
        for name, attr in zip(MODAL_NAMES[4:7], ("frak_q_v", "frak_q_c", "frak_q_r")):
            if getattr(fixed, attr) is not getattr(dry, attr):
                assert np.array_equal(fixed.modal[name], to_modal_values(
                    values[name], sim.bases.neumann)), name
            else:
                assert fixed.modal[name] is dry.modal[name], name
        for name in MODAL_NAMES[:4] + MODAL_NAMES[7:]:
            assert fixed.modal[name] is dry.modal[name], name

    def test_fixer_transforms_only_the_fields_it_fixes(self, grid8, nondim, monkeypatch):
        """A 4-step run whose fixer acts on 3, 2, 2 and 1 fields makes one
        forward transform per fixed field more than the same run without the
        fixer."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        state.frak_q_r.values[0, 0, 2] -= 2e-4
        count = count_transforms(monkeypatch)
        fwd = {}
        for strict in (False, True):
            sim = mf.Simulation(grid8, nondim, bspec, mf.SolverConfig(
                dt=1e-3, t_end=4e-3, mode="direct", strict_positivity=strict))
            before = count["fwd"]
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                sim.run(state)
            fwd[strict] = count["fwd"] - before
        assert [str(w.message) for w in rec] == ["positivity fixer active on 8 field updates"]
        assert fwd[True] == fwd[False] + 8

    def test_nonfinite_total_names_first_term_in_order(self, moving):
        """A non-finite total is traced to the first non-finite term, in
        the order temperature, vapor, cloud, rain, momentum."""
        sim, state = moving

        def spoiled(value, index):
            def fn(t):
                out = np.zeros(state.frak_T.values.shape)
                out[index] = value
                return out
            return fn

        forcing = {"qv": spoiled(np.nan, (0, 0, 1)), "qr": spoiled(np.inf, (1, 0, 1)),
                   "w": spoiled(-np.inf, (0, 0, 3))}
        for extra, first in (({}, "vapor"), ({"T": spoiled(np.nan, (2, 1, 1))},
                                             "temperature")):
            bad = mf.Simulation(sim.grid, sim.constants, sim.bspec, sim.config,
                                forcing={**forcing, **extra})
            with pytest.raises(mf.StepRejected, match=rf"term {first}\.forcing$"):
                linear_step(bad, state, state, 1e-3)

class TestSedimentationForm:
    def test_expanded_equals_conservative_form(self, nondim):
        """The expanded rain-transport terms equal (1/rho) dz(rho q V): the
        two discretizations of the same flux agree up to the series
        truncation of the non-band-limited product and converge together."""
        def gap(nz):
            grid = mf.make_grid(8, 8, nz)
            bases = mf.make_bases(grid)
            neu, diri = bases.neumann, bases.dirichlet
            Z = grid.z[None, None, :]
            X = grid.x[:, None, None]
            s = 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Z) * np.ones(grid.shape)
            rho = np.exp(s)
            q = 0.01 * (1.5 + np.cos(np.pi * X) * np.cos(2 * np.pi * Z)) \
                * np.ones(grid.shape)
            vr = 1.0 + Z**2 * (1.0 - Z)**2
            dvr = 2 * Z * (1 - Z)**2 - 2 * Z**2 * (1 - Z)

            def dz_of(vals):
                return to_phys_values(dz_modal(to_modal_values(vals, neu), neu),
                                      diri)

            expanded = vr * dz_of(q) + q * dvr + q * vr * dz_of(s)
            conservative = dz_of(rho * q * vr) / rho
            return (np.max(np.abs(expanded - conservative)),
                    np.max(np.abs(conservative)))

        g17, scale = gap(17)
        g33, _ = gap(33)
        assert g17 < 1e-3 * scale
        assert g33 < g17 / 4.0


class TestSolverConfig:
    def test_t_end_must_be_whole_number_of_steps(self):
        with pytest.raises(ValueError, match="whole number of steps"):
            mf.SolverConfig(dt=0.003, t_end=0.01)

    @pytest.mark.parametrize("t_end,dt", [(0.15, 1e-3), (0.02, 4e-3), (0.0, 1e-3)])
    def test_whole_step_horizons_accepted(self, t_end, dt):
        mf.SolverConfig(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("name", ["checkpoint_every", "snapshot_every",
                                      "record_states_every", "max_dt_halvings"])
    def test_negative_cadences_rejected(self, name):
        mf.SolverConfig(**{name: 0})
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            mf.SolverConfig(**{name: -3})

    def test_upward_rain_fall_speed_rejected(self):
        mf.SolverConfig(v_r_scale=0.0)
        with pytest.raises(ValueError, match="v_r_scale must be nonnegative"):
            mf.SolverConfig(v_r_scale=-1.0)

    @pytest.mark.parametrize("name, match", [
        ("dt", "^dt must be positive$"), ("t_end", "^t_end must be nonnegative$"),
        ("picard_tol", "^picard_tol must be positive$"),
        ("picard_max_iters", "^picard_max_iters must be >= 1$"),
        ("v_r_scale", "^v_r_scale must be nonnegative")])
    def test_nan_rejected_by_name(self, name, match):
        """A NaN fails the range check of its field, with its message."""
        with pytest.raises(ValueError, match=match):
            mf.SolverConfig(**{name: float("nan")})


class TestRun:
    def test_non_finite_rhs_goes_through_retry_ladder(self, grid8, nondim):
        """At dt = 0.5 the tenth step of the saturated layer blows up: its
        density step takes log rho_d past both ends of exp's range, and the
        pressure kernel rejects the underflowed rho_d = 0 before the
        right-hand side is found non-finite.  The step must be retried at
        half dt before the run gives up, and the cause must survive in the
        message."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec, mf.SolverConfig(dt=0.5, t_end=5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError, match="positive dry-air density") as info:
                sim.run(state)
        assert isinstance(info.value.__cause__, mf.StepRejected)
        assert sim._rejections >= 1

    def test_initial_state_on_another_grid_rejected(self, tmp_path, grid8, nondim):
        """A state on another grid than the simulation's is a ValueError
        naming both grids, raised before the run directory is made."""
        _, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        state, _ = mf.preset_initial("saturated_layer", mf.make_grid(16, 8, 9), nondim)
        sim = mf.Simulation(grid8, nondim, bspec, mf.SolverConfig(dt=1e-3, t_end=2e-3))
        with pytest.raises(ValueError, match=r"\(16, 8, 9\).*\(8, 8, 9\)"):
            sim.run(state, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_failed_run_leaves_both_csv_files_complete(self, tmp_path, grid8,
                                                       nondim):
        """The run above fails at t = 4.5; both CSV files must hold their
        header and the ten rows before the failure while the exception is
        still alive."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec, mf.SolverConfig(dt=0.5, t_end=5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError) as info:
                sim.run(state, out_dir=str(tmp_path))
        assert "t=4.5" in str(info.value)
        for name, header in (("diagnostics.csv", "step,time,"),
                             ("timings.csv", "step,wall_seconds")):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            assert len(lines) == 11, name
            assert lines[0].startswith(header)
        steps = [line.split(",")[0] for line in lines[1:]]
        assert steps == [str(i) for i in range(10)]

    def test_zero_horizon_echoes_initial_state(self, grid8, nondim):
        state, bspec = mf.preset_initial("equilibrium", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=0.0))
        traj = sim.run(state)
        assert traj.steps == 0
        assert len(traj.rows) == 1
        assert np.array_equal(traj.final_state.frak_T.values, state.frak_T.values)

    def test_start_off_the_step_grid_or_past_t_end_rejected(self, tmp_path, grid8,
                                                            nondim):
        """Rows are numbered from initial.time / dt, so a start between two
        steps or past t_end is an error, raised before any file is written;
        a start at t_end, as a resume of final_state/, runs 0 steps."""
        state, bspec = mf.preset_initial("equilibrium", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec, mf.SolverConfig(dt=1e-3, t_end=0.02))
        for t, match in ((0.0105, "initial time 0.0105 is not a whole number"),
                         (0.021, "past t_end")):
            with pytest.raises(ValueError, match=match):
                sim.run(replace(state, time=t), out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()
        traj = sim.run(replace(state, time=0.02 * (1.0 + 1e-12)))
        assert traj.steps == 20 and len(traj.rows) == 1
        traj = sim.run(replace(state, time=0.015))
        assert traj.steps == 20 and len(traj.rows) == 6

    def test_equilibrium_ten_steps_static(self, grid8, nondim):
        state, bspec = mf.preset_initial("equilibrium", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=1e-2, mode="picard"))
        traj = sim.run(state)
        assert traj.steps == 10
        r0 = traj.rows[0]
        for row in traj.rows[1:]:
            for name in ("u", "T", "qv", "qc", "qr", "sqrt_rho", "log_rho"):
                for a, b in zip(row.norms[name], r0.norms[name]):
                    assert abs(a - b) < 1e-12
            assert abs(row.dry_mass - r0.dry_mass) < 1e-12 * r0.dry_mass

    def test_smoke_run_conserves_mass(self, grid16, nondim):
        state, bspec = mf.preset_initial("saturated_layer", grid16, nondim)
        sim = mf.Simulation(grid16, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=0.1, mode="direct"))
        traj = sim.run(state)
        assert traj.steps == 100
        m0 = traj.rows[0].dry_mass
        for row in traj.rows:
            assert abs(row.dry_mass - m0) / m0 <= 1e-6

    def test_bare_initial_state_transformed_once(self, grid8, nondim, monkeypatch):
        """A run attaches the coefficients of a bare initial state once, for
        its first row and its first step: a 1-step run from it makes one
        forward transform per field more than from the same state with its
        coefficients."""
        sim, state = make_sim(grid8, nondim, preset="saturated_layer",
                              mode="direct", t_end=1e-3)
        carried = dg.with_coefficients(state, sim.bases)
        count = count_transforms(monkeypatch)
        fwd = []
        for initial in (carried, state):
            before = count["fwd"]
            sim = make_sim(grid8, nondim, preset="saturated_layer",
                           mode="direct", t_end=1e-3)[0]
            sim.run(initial)
            fwd.append(count["fwd"] - before)
        assert fwd[1] - fwd[0] == len(MODAL_NAMES)

    def test_fixed_states_checkpoint_their_coefficients(self, tmp_path, grid8, nondim):
        """A run whose positivity fixer acts on every step writes modal.npz
        in every checkpoint, and a resume from one repeats the uninterrupted
        run's later rows and final state bitwise."""
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        state.frak_q_r.values[0, 0, 2] -= 2e-4
        cfg = mf.SolverConfig(dt=1e-3, t_end=4e-3, mode="direct",
                              strict_positivity=True, checkpoint_every=1)
        full = tmp_path / "full"
        with pytest.warns(UserWarning, match="positivity fixer active on 8 field"):
            traj = mf.Simulation(grid8, nondim, bspec, cfg).run(state, out_dir=str(full))
        names = [f"step_{n:06d}" for n in range(1, 5)]
        assert sorted(os.listdir(full / "checkpoints")) == names
        for name in names:
            assert (full / "checkpoints" / name / "modal.npz").exists(), name
        resumed, report, _, _ = mf.solver.read_checkpoint(full / "checkpoints" / names[1])
        assert resumed.modal is not None
        with pytest.warns(UserWarning, match="positivity fixer active"):
            res = mf.Simulation(grid8, nondim, bspec, cfg).run(
                resumed, initial_report=report)
        assert ([row.csv_values() for row in res.rows]
                == [row.csv_values() for row in traj.rows[2:]])
        for name in MODAL_NAMES:
            assert np.array_equal(res.final_state.modal[name],
                                  traj.final_state.modal[name]), name
        for a, b in zip(dg.iterated_values(res.final_state).values(),
                        dg.iterated_values(traj.final_state).values()):
            assert np.array_equal(a, b)
        assert np.array_equal(res.final_state.log_rho_d.values,
                              traj.final_state.log_rho_d.values)

    def test_factors_built_once_per_time_level(self, grid8, nondim, monkeypatch):
        """With wall data that vary in time, the row of a step and the step
        after it share the factors of one (t, dt): 5 steps build 6 sets, and
        the rows are those of a build on every call.  Static data are built
        once, at construction."""
        def simulation(data_top):
            state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
            bspec["T"].data_top = data_top
            cfg = mf.SolverConfig(dt=1e-3, t_end=5e-3)
            return mf.Simulation(grid8, nondim, bspec, cfg), state

        built = []
        build = mf.solver.build_factors
        monkeypatch.setattr(mf.solver, "build_factors", lambda spec, grid, t, dt=None:
                            built.append((t, dt)) or build(spec, grid, t, dt))
        sim, state = simulation(lambda t: 1.0 + 0.1 * t)
        rows = sim.run(state).rows
        assert len(built) == len(set(built)) == 6
        assert built[0] == (0.0, 1e-3)

        sim, state = simulation(lambda t: 1.0 + 0.1 * t)
        monkeypatch.setattr(sim, "factors_at", lambda t, dt=None:
                            build(sim.bspec, sim.grid, t, dt))
        assert ([row.csv_values() for row in sim.run(state).rows]
                == [row.csv_values() for row in rows])

        built.clear()
        sim, state = simulation(1.0)
        sim.run(state)
        assert built == [(0.0, 1e-3)]

    def test_outputs_written(self, tmp_path, grid8, nondim):
        state, bspec = mf.preset_initial("thermal_bubble", grid8, nondim)
        sim = mf.Simulation(grid8, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=5e-3, mode="direct",
                                            checkpoint_every=2, snapshot_every=2))
        traj = sim.run(state, out_dir=str(tmp_path))
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        assert (tmp_path / "checkpoints" / "step_000002").exists()
        assert (tmp_path / "snapshot_000004").exists()
        loaded = mf.load_state(tmp_path / "checkpoints" / "step_000005")
        assert loaded.time == pytest.approx(traj.final_state.time)

    def test_strict_positivity_fixer(self, grid8, nondim):
        state, bspec = mf.preset_initial("saturated_layer", grid8, nondim)
        # inject a small negative region into rain
        state.frak_q_r.values[0, 0, 2] -= 2e-4
        sim = mf.Simulation(grid8, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=2e-3, mode="direct",
                                            strict_positivity=True))
        for _ in range(2):      # each run counts its own fixes
            with pytest.warns(UserWarning, match="positivity fixer active on 5 field"):
                traj = sim.run(state)
            assert traj.rows[-1].minima["qr"] >= 0.0


class TestRainFallSpeedProfile:
    @pytest.mark.parametrize("nz", [17, 33])
    def test_bump_derivative_matches_central_difference(self, nondim, nz):
        """Central differences of v_r have error h^2 |v_r'''| / 6 <= 2 h^2
        per unit scale for the bump 1 + z^2 (1 - z)^2."""
        grid = mf.make_grid(8, 8, nz)
        scale = 2.5
        sim, _ = make_sim(grid, nondim, v_r_profile="bump", v_r_scale=scale)
        v, dv = sim.v_r[0, 0], sim.dz_v_r[0, 0]
        h = grid.z[1] - grid.z[0]
        fd = (v[2:] - v[:-2]) / (2.0 * h)
        err = np.max(np.abs(fd - dv[1:-1]))
        assert 0.0 < err <= 2.0 * scale * h**2
        assert np.ptp(v) == pytest.approx(scale / 16.0)

    def test_bump_run_finite_and_nonnegative(self, grid16, nondim):
        """20 direct steps of the saturated layer with the bump profile keep
        every diagnostics value finite and the minima within criterion 01's
        tolerance of -1e-8 times each field's initial maximum."""
        sim, state = make_sim(grid16, nondim, preset="saturated_layer",
                              mode="direct", t_end=2e-2, v_r_profile="bump")
        factors = sim.factors_at(0.0)
        init_max = {name: float(np.max(mf.dehomogenize(getattr(state, attr),
                                                       factors[var]).values))
                    for attr, var, name in (("frak_T", "T", "T"),
                                            ("frak_q_v", "v", "qv"),
                                            ("frak_q_c", "c", "qc"),
                                            ("frak_q_r", "r", "qr"))}
        traj = sim.run(state)
        assert traj.steps == 20
        for row in traj.rows:
            assert np.all(np.isfinite([float(v) for v in row.csv_values()]))
            for name, top in init_max.items():
                assert row.minima[name] >= -1e-8 * top
