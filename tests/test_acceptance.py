"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (pytest fails the run otherwise).  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion report."""

from pathlib import Path

import numpy as np
import pytest

import moistflow as mf
from moistflow.boundary import build_extension
from moistflow.cli import main, parse_config
from moistflow.fields import ScalarField
from moistflow.spectral_ops import to_modal_values, to_phys_values, dz_modal

from conftest import random_band_limited
from mms import run_mms


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def nondim():
    return mf.PhysConstants.nondimensional()


@pytest.fixture(scope="module")
def saturated_run(nondim):
    """Shared production run for criteria 1 and 2: saturated_layer at
    32x32x33, dt = 1e-3, 1000 steps, alpha = (-1, 1) on every variable."""
    grid = mf.make_grid(32, 32, 33)
    state, bspec = mf.preset_initial("saturated_layer", grid, nondim)
    assert all(bspec[v].alpha_bottom == -1.0 and bspec[v].alpha_top == 1.0
               for v in ("T", "v", "c", "r"))
    factors = mf.build_factors(bspec, grid)
    init_max = {}
    for attr, var, name in (("frak_T", "T", "T"), ("frak_q_v", "v", "qv"),
                            ("frak_q_c", "c", "qc"), ("frak_q_r", "r", "qr")):
        phys = mf.dehomogenize(getattr(state, attr), factors[var]).values
        init_max[name] = float(np.max(phys))
    cfg = mf.SolverConfig(dt=1e-3, t_end=1.0, mode="direct")
    sim = mf.Simulation(grid, nondim, bspec, cfg)
    traj = sim.run(state)
    assert traj.steps == 1000
    return traj, init_max


def test_criterion_01_non_negativity(saturated_run):
    traj, init_max = saturated_run
    worst = {}
    for name in ("T", "qv", "qc", "qr"):
        minimum = min(row.minima[name] for row in traj.rows)
        tol = -1e-8 * init_max[name]
        worst[name] = (minimum, tol)
    ok = all(mn >= tol for mn, tol in worst.values())
    detail = "; ".join(f"min {k}={mn:.2e} (tol {tol:.1e})"
                       for k, (mn, tol) in worst.items())
    detail += f"; wall {traj.wall_time:.0f}s"
    report(1, ok and traj.wall_time < 300.0, detail)


def test_criterion_02_dry_mass_conservation(saturated_run):
    traj, _ = saturated_run
    m0 = traj.rows[0].dry_mass
    drift = max(abs(row.dry_mass - m0) / m0 for row in traj.rows)
    report(2, drift <= 1e-6, f"max relative dry-mass drift {drift:.3e}")


def test_criterion_03_water_exchange_closure(nondim):
    grid = mf.make_grid(32, 32, 33)          # > 1e4 pointwise bundles per draw
    bases = mf.make_bases(grid)
    eps = np.finfo(float).eps
    worst = 0.0
    for seed in (0, 1, 2):
        T = ScalarField(grid, 1.0 + random_band_limited(grid, bases, seed=seed))
        qv = ScalarField(grid, 0.05 * random_band_limited(grid, bases, seed=seed + 10))
        qc = ScalarField(grid, 0.05 * random_band_limited(grid, bases, seed=seed + 20))
        qr = ScalarField(grid, 0.05 * random_band_limited(grid, bases, seed=seed + 30))
        qvs = ScalarField(grid, 0.02 * np.abs(random_band_limited(grid, bases,
                                                                  seed=seed + 40)))
        b = mf.sources(T, qv, qc, qr, qvs, nondim, clipped=True)
        res = np.abs(mf.water_exchange_residual(b).values)
        scale = np.maximum.reduce([np.abs(b.S_ev.values), np.abs(b.S_cd.values),
                                   np.abs(b.S_ac.values), np.abs(b.S_cr.values),
                                   np.full(grid.shape, 1e-300)])
        worst = max(worst, float(np.max(res / (eps * scale))))
    report(3, worst <= 4.0, f"worst residual {worst:.2f} ulp over 3x33792 bundles")


def test_criterion_04_picard_contraction(nondim):
    grid = mf.make_grid(16, 16, 17)
    state, bspec = mf.preset_initial("thermal_bubble", grid, nondim)
    cfg = mf.SolverConfig(dt=1e-3, t_end=1e-3, mode="picard",
                          picard_tol=1e-8, picard_max_iters=30)
    sim = mf.Simulation(grid, nondim, bspec, cfg)
    sweep = (4e-3, 2e-3, 1e-3, 5e-4)
    means = []
    for dt in sweep:
        s, ratios = state, []
        for _ in range(25):
            s, rep = sim.picard_solve(s, dt)
            ratios.extend(rep.ratios)
        means.append(float(np.mean(ratios)))
    finite = all(np.isfinite(m) for m in means)
    below_one = means[-1] < 1.0 and means[-2] < 1.0
    nonincreasing = all(means[i + 1] <= means[i] for i in range(len(means) - 1))
    hard = means[-1] < 0.9
    half_note = "<= 0.5" if means[-1] <= 0.5 else "> 0.5 (informational)"
    detail = ("mean ratios " + ", ".join(f"{dt:g}:{m:.4f}"
                                         for dt, m in zip(sweep, means))
              + f"; smallest-dt ratio {half_note}")
    report(4, finite and below_one and nonincreasing and hard, detail)


def test_criterion_05_extension_lemma():
    worst = 0.0
    rng = np.random.default_rng(42)
    for nz in (17, 33):
        grid = mf.make_grid(16, 16, nz)
        for _ in range(100):
            hb = rng.standard_normal((16, 16))
            ht = rng.standard_normal((16, 16))
            ext = build_extension(hb, ht, grid)
            dz = ext.dz_values()
            rb = np.linalg.norm(dz[:, :, 0] - hb) / np.linalg.norm(hb)
            rt = np.linalg.norm(dz[:, :, -1] - ht) / np.linalg.norm(ht)
            worst = max(worst, rb, rt)
    report(5, worst <= 1e-10,
           f"worst wall-derivative residual {worst:.2e} over 200 pairs")


def test_criterion_06_homogenization_equivalence():
    grid = mf.make_grid(16, 16, 33)
    bases = mf.make_bases(grid)
    spec = mf.BoundarySpec()
    spec.variables["T"] = mf.VariableBoundary(-1.0, 1.0, 1.3, 0.8)
    fac = mf.build_factors(spec, grid)["T"]

    # round trip
    vals = 1.0 + 0.3 * random_band_limited(grid, bases, seed=3)
    f = ScalarField(grid, vals)
    back = mf.dehomogenize(mf.homogenize(f, fac), fac)
    rt_err = np.max(np.abs(back.values - vals)) / np.max(np.abs(vals))

    # Robin-compatible field -> homogeneous Neumann, measured through the
    # analytic chain-rule oracle at the walls
    G = random_band_limited(grid, bases, seed=4)
    psi = fac.psi.values()
    F = fac.binv_profile * (G + psi)
    dzG = to_phys_values(dz_modal(to_modal_values(G, bases.neumann),
                                  bases.neumann), bases.dirichlet)
    dzF = fac.binv_profile * (dzG + fac.psi.dz_values() - fac.dz_log_b * (G + psi))
    wall = fac.b_profile * (dzF + fac.dz_log_b * F) - fac.psi.dz_values()
    h1 = np.sqrt(mf.spectral_ops.modal_sobolev_sq(
        to_modal_values(G, bases.neumann), bases.neumann, 1))
    wall_res = max(np.max(np.abs(wall[:, :, 0])), np.max(np.abs(wall[:, :, -1]))) / h1

    report(6, rt_err <= 1e-13 and wall_res <= 1e-9,
           f"round trip {rt_err:.2e}; wall derivative {wall_res:.2e} (rel H1)")


def test_criterion_07_thermodynamic_identities(nondim):
    grid = mf.make_grid(32, 32, 33)          # > 1e4 pointwise inputs per draw
    bases = mf.make_bases(grid)
    c = nondim
    worst = 0.0
    for seed in (5, 6):
        qv = ScalarField(grid, 0.05 * np.abs(random_band_limited(grid, bases, seed=seed)))
        qc = ScalarField(grid, 0.05 * np.abs(random_band_limited(grid, bases, seed=seed + 1)))
        qr = ScalarField(grid, 0.05 * np.abs(random_band_limited(grid, bases, seed=seed + 2)))
        qf = mf.q_factors(qv, qc, qr, c, clipped=False)
        sigma = mf.mixed_gas_constant(qv, qc, qr, c).values
        c_nu = mf.mixed_heat_capacity(qv, qc, qr, c).values
        e1 = np.max(np.abs(qf.Q_cp.values - (sigma - c.R_d / c.c_pd * c_nu))
                    / np.abs(qf.Q_cp.values))
        e2 = np.max(np.abs(qf.Q_th.values - (c_nu / c.gamma + sigma))
                    / np.abs(qf.Q_th.values))
        q1_long = (c.R_v / (c.R_d + c.R_v * qv.values)
                   * (sigma - c.R_d / c.c_pd * c_nu) + c.c_pv - c.c_l)
        e3 = np.max(np.abs(q1_long - qf.Q_1) / abs(qf.Q_1))
        worst = max(worst, e1, e2, e3)
    report(7, worst <= 1e-12, f"worst identity residual {worst:.2e} (relative)")


def test_criterion_08_manufactured_convergence():
    # temporal: three dt halvings through the production stepping path
    grid = mf.make_grid(16, 16, 17)
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    errs = [run_mms(grid, dt) for dt in dts]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(3)]
    order_ok = all(abs(o - 1.0) <= 0.15 for o in orders)

    # spatial: spectral accuracy of the implicit solve on an analytic,
    # non-band-limited solution
    def helmholtz_error(n):
        g = mf.make_grid(n, n, n + 1)
        b = mf.make_bases(g)
        X, Y, Z = g.x[:, None, None], g.y[None, :, None], g.z[None, None, :]
        phi = 0.3 * np.sin(np.pi * X) + 0.2 * np.cos(np.pi * Y) + 0.4 * np.cos(np.pi * Z)
        f = np.exp(phi) * np.ones(g.shape)
        gphi2 = ((0.3 * np.pi * np.cos(np.pi * X)) ** 2
                 + (0.2 * np.pi * np.sin(np.pi * Y)) ** 2
                 + (0.4 * np.pi * np.sin(np.pi * Z)) ** 2)
        lap_f = f * (gphi2 - np.pi**2 * phi)
        a = 0.1
        rhs = ScalarField(g, f - a * lap_f)
        sol = mf.helmholtz_solve(rhs, a, b.neumann)
        return float(np.max(np.abs(sol.values - f)) / np.max(np.abs(f)))

    e_coarse, e_fine = helmholtz_error(16), helmholtz_error(32)
    spatial_ok = e_fine <= 1e-8 and e_fine < e_coarse
    report(8, order_ok and spatial_ok,
           f"temporal orders {[f'{o:.3f}' for o in orders]}; "
           f"spatial error {e_coarse:.1e} -> {e_fine:.1e}")


def test_criterion_09_continuous_dependence(nondim):
    grid = mf.make_grid(16, 16, 17)
    bases = mf.make_bases(grid)
    base_state, bspec = mf.preset_initial("thermal_bubble", grid, nondim)
    cfg = mf.SolverConfig(dt=1e-3, t_end=0.5, mode="direct", record_states_every=5)

    def run(delta, seed=7):
        state = base_state
        if delta:
            state = mf.perturb_state(base_state, bases, amplitude=delta, seed=seed)
        sim = mf.Simulation(grid, nondim, bspec, cfg)
        return sim.run(state)

    base = run(0.0)
    pert = run(1e-6)
    half = run(5e-7)
    rep = mf.stability_probe(base, pert, bases)
    rep_half = mf.stability_probe(base, half, bases)

    envelope_ok = (np.isfinite(rep.growth_rate) and np.isfinite(rep.envelope_coef)
                   and np.all(rep.delta_fields <= 1.001 * rep.envelope_coef
                              * np.exp(rep.growth_rate * rep.times)
                              * rep.initial_delta))
    early = slice(1, 12)
    ratios = rep_half.delta_fields[early] / rep.delta_fields[early]
    halving_ok = np.all(np.abs(ratios - 0.5) <= 0.1)

    # norm-boundedness on the perturbed-equilibrium scenario: every
    # monitored norm with a nonzero start stays below 10x its initial value
    rows = run(1e-6, seed=8).rows
    bounded = True
    for name in ("T", "qv", "qc", "qr", "sqrt_rho", "log_rho", "u"):
        init = rows[0].norms[name]
        for row in rows:
            for a, b in zip(row.norms[name], init):
                if not np.isfinite(a):
                    bounded = False
                elif b > 1e-12 and a > 10.0 * b:
                    bounded = False
    report(9, envelope_ok and halving_ok and bounded,
           f"fitted C={rep.growth_rate:.3f}, envelope c={rep.envelope_coef:.3f}, "
           f"halving ratios {ratios.min():.3f}..{ratios.max():.3f}")


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 17\n"
        "constants.set = nondimensional\n"
        "solver.dt = 1e-3\nsolver.t_end = 2e-2\nsolver.mode = direct\n"
        "ic.preset = saturated_layer\n")
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", str(cfg), "--out", out1]) == 0
    assert main(["run", str(cfg), "--out", out2]) == 0
    a = Path(out1, "diagnostics.csv").read_bytes()
    b = Path(out2, "diagnostics.csv").read_bytes()
    report(10, a == b, f"diagnostics CSV identical ({len(a)} bytes)")
