"""Manufactured diffusion-reaction problem driven through the real solver.

The vapor equation is isolated: a constant (plugged) saturation value makes
the nucleation term an exact linear reaction r (q_v - q0) on the
supersaturated branch, phase-heat feedback is nulled by choosing constants
with c_pv = c_l and L_ref = R_v T0, gravity is off so the base density is
uniform, and analytic forcing cancels the pressure gradient induced by the
vapor anomaly.  The exact solution is

    q_v*(x, z, t) = qv0 + eps exp(-t) cos(pi z) (1 + 0.5 cos(pi x)).
"""

import numpy as np

import moistflow as mf

Q0 = 0.01          # constant saturation value
EPS = 1.0e-3       # anomaly amplitude
T0 = 1.0


def mms_constants():
    return mf.PhysConstants.nondimensional(c_pv=8.0, c_l=8.0, L_ref=1.6, g=0.0)


def mms_closure(constants):
    return mf.SaturationClosure(
        constants, func=lambda p, T: np.where(np.asarray(T) > 0.0, Q0, 0.0))


def exact_qv(grid, t):
    X = grid.x[:, None, None]
    Z = grid.z[None, None, :]
    phi = np.cos(np.pi * Z) * (1.0 + 0.5 * np.cos(np.pi * X))
    qv0 = Q0 + 4.0 * EPS
    return np.broadcast_to(qv0 + EPS * np.exp(-t) * phi, grid.shape).copy()


def build_mms_problem(grid, dt, t_end):
    constants = mms_constants()
    closure = mms_closure(constants)
    state, bspec = mf.preset_initial("equilibrium", grid, constants,
                                     T0=T0, rho0=1.0)
    state.frak_q_v = mf.ScalarField(grid, exact_qv(grid, 0.0))

    X = grid.x[:, None, None]
    Z = grid.z[None, None, :]
    phi = np.cos(np.pi * Z) * (1.0 + 0.5 * np.cos(np.pi * X))
    lap_phi = -(np.pi ** 2) * np.cos(np.pi * Z) \
        - 2.0 * np.pi ** 2 * 0.5 * np.cos(np.pi * X) * np.cos(np.pi * Z)
    dx_phi = -0.5 * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Z)
    dz_phi = -np.pi * np.sin(np.pi * Z) * (1.0 + 0.5 * np.cos(np.pi * X))
    r = constants.c_cn * constants.q_cn
    qv0 = Q0 + 4.0 * EPS
    rho0 = 1.0
    shape = grid.shape

    def f_qv(t):
        e = EPS * np.exp(-t)
        return np.broadcast_to(
            -e * phi - e * lap_phi + r * (qv0 - Q0) + r * e * phi, shape).copy()

    def f_qc(t):
        e = EPS * np.exp(-t)
        return np.broadcast_to(-(r * (qv0 - Q0) + r * e * phi), shape).copy()

    def f_u1(t):
        return np.broadcast_to(
            rho0 * constants.R_v * T0 * EPS * np.exp(-t) * dx_phi, shape).copy()

    def f_w(t):
        return np.broadcast_to(
            rho0 * constants.R_v * T0 * EPS * np.exp(-t) * dz_phi, shape).copy()

    cfg = mf.SolverConfig(dt=dt, t_end=t_end, mode="direct")
    sim = mf.Simulation(grid, constants, bspec, cfg, closure=closure,
                        forcing={"qv": f_qv, "qc": f_qc, "u1": f_u1, "w": f_w})
    return sim, state


def run_mms(grid, dt, t_end=0.04):
    """Time-step the manufactured problem; returns the L2 error of q_v."""
    sim, state = build_mms_problem(grid, dt, t_end)
    traj = sim.run(state)
    err = traj.final_state.frak_q_v.values - exact_qv(grid, traj.final_state.time)
    w = grid.quad_weights()
    return float(np.sqrt(np.sum(err * err * w)))
