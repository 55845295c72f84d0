"""Initial-condition presets.

Every preset satisfies the discrete wall conditions of the scheme: scalar
anomalies are trig polynomials of cos(pi z) (zero spectral wall-normal
derivative), the vertical velocity is a sine series, and the base density
solves the *discrete* hydrostatic balance, so the equilibrium preset is a
machine-precision fixed point of the time stepper.
"""

from __future__ import annotations

import numpy as np

from .boundary import BoundarySpec, VariableBoundary, build_factors, homogenize
from .fields import Grid, PhysConstants, ScalarField, State, VectorField
from .microphysics import SaturationClosure
from . import spectral_ops as sp

PRESET_NAMES = ("equilibrium", "thermal_bubble", "saturated_layer", "manufactured")


def discrete_hydrostatic_rho(grid: Grid, constants: PhysConstants, T0: float,
                             rho0: float) -> np.ndarray:
    """Column density rho(z) whose discrete spectral pressure gradient
    balances gravity exactly: the sine projection of
    R_d T0 dz(rho) + g rho vanishes on every resolved mode.

    The square linear system pins rho(0) = rho0 and a zero cosine-Nyquist
    coefficient (the one direction the sine projection cannot see).
    """
    nz = grid.nz
    neu = sp.Basis(grid, sp.NEUMANN)
    diri = neu.other
    # row j: the solver's z-derivative of the unit sample e_j, then the sine
    # coefficients of the hydrostatic residual R_d T0 dz(e_j) + g e_j
    dz = (neu.z_fwd * -(np.pi * np.arange(nz))) @ diri.z_inv
    balance = (constants.R_d * T0 * dz + constants.g * np.eye(nz)) @ diri.z_fwd
    A = np.zeros((nz, nz))
    A[:nz - 2] = balance[:, 1:nz - 1].T
    A[nz - 1] = neu.z_fwd[:, -1]                 # cosine Nyquist coefficient
    A[nz - 2, 0] = 1.0                           # rho at z = 0
    rhs = np.zeros(nz)
    rhs[nz - 2] = rho0
    rho = np.linalg.solve(A, rhs)
    residual = np.max(np.abs(A @ rho - rhs))
    scale = max(np.max(np.abs(A)) * np.max(np.abs(rho)), rho0, 1.0)
    if residual > 1e-9 * scale:
        raise RuntimeError(f"hydrostatic solve residual too large: {residual:.3e}")
    if np.any(rho <= 0.0):
        raise RuntimeError("discrete hydrostatic density is not positive; "
                           "reduce g / R_d T0 or refine nz")
    return rho


def _bump_x(x: np.ndarray, center: float = 1.0) -> np.ndarray:
    """Band-limited periodic bump, modes <= 2, range [0, 1]."""
    return ((1.0 + np.cos(np.pi * (x - center))) / 2.0) ** 2


def _bump_z(z: np.ndarray, power: int = 2) -> np.ndarray:
    """Vertical bump vanishing at both walls with zero wall derivative;
    a trig polynomial of cos(2 pi z), modes <= 2 * power."""
    return ((1.0 - np.cos(2.0 * np.pi * z)) / 2.0) ** power


def _default_alphas(name: str) -> dict:
    if name == "saturated_layer":
        return {v: (-1.0, 1.0) for v in ("T", "v", "c", "r")}
    return {v: (0.0, 0.0) for v in ("T", "v", "c", "r")}


def preset_initial(name: str, grid: Grid, constants: PhysConstants,
                   alphas: dict | None = None, params: dict | None = None):
    """Build an initial state and its matching boundary specification.

    Returns (State, BoundarySpec): boundary data values are chosen to match
    the wall traces of the initial fields so the state satisfies the
    discrete Robin conditions for the given alpha coefficients.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    params = dict(params or {})
    sat_ratio = float(params.get("sat_ratio", 1.1))
    if sat_ratio < 0.0:
        raise ValueError("sat_ratio must be nonnegative")
    alphas = alphas if alphas is not None else _default_alphas(name)

    T0 = float(params.get("T0") or constants.T_ref)
    rho0 = float(params.get("rho0") or constants.p_ref / (constants.R_d * T0))

    X = grid.x[:, None, None]
    Y = grid.y[None, :, None]
    Z = grid.z[None, None, :]
    shape = grid.shape

    rho_col = discrete_hydrostatic_rho(grid, constants, T0, rho0)
    log_rho = ScalarField(grid, np.broadcast_to(np.log(rho_col), shape).copy())
    u = VectorField.zeros(grid)

    T_vals = np.full(shape, T0)
    qv = np.zeros(shape)
    qc = np.zeros(shape)
    qr = np.zeros(shape)

    if name == "thermal_bubble":
        amp = float(params.get("amplitude", 0.01 * T0))
        T_vals = np.broadcast_to(
            T_vals + amp * _bump_x(X) * _bump_x(Y) * _bump_z(Z), shape).copy()
    elif name == "saturated_layer":
        closure = params.get("closure") or SaturationClosure(constants)
        p_mid = rho_col[(grid.nz - 1) // 2] * constants.R_d * T0
        q_vs_mid = float(closure(np.array([p_mid]), np.array([T0]))[0])
        band = _bump_z(Z, power=3)
        hmod = 0.8 + 0.2 * _bump_x(X) * _bump_x(Y)
        qv = np.broadcast_to(sat_ratio * q_vs_mid * band * hmod, shape).copy()
        qc = np.broadcast_to(
            float(params.get("qc_seed", 2.0e-3)) * band * _bump_x(X) * _bump_x(Y),
            shape).copy()
        qr = np.broadcast_to(
            float(params.get("qr_seed", 5.0e-4)) * band
            * ((1.0 + np.sin(np.pi * X)) / 2.0) ** 2, shape).copy()
    elif name == "manufactured":
        a_r = float(params.get("a_r", 0.05))
        a_u = float(params.get("a_u", 0.1))
        a_T = float(params.get("a_T", 0.02))
        a_q = float(params.get("a_q", 1.0e-3))
        log_rho = ScalarField(grid, log_rho.values
                              + a_r * np.cos(np.pi * X) * np.cos(np.pi * Z))
        u = VectorField(
            ScalarField(grid, a_u * np.sin(np.pi * X) * np.cos(np.pi * Z)
                        * np.ones_like(Y)),
            ScalarField(grid, a_u * np.cos(np.pi * Y) * np.cos(2 * np.pi * Z)
                        * np.ones_like(X)),
            ScalarField(grid, a_u * np.cos(np.pi * X) * np.sin(np.pi * Z)
                        * np.ones_like(Y)))
        T_vals = T0 * (1.0 + a_T * np.cos(np.pi * Y) * np.cos(np.pi * Z)
                       * np.ones_like(X))
        qv = a_q * (1.0 + np.cos(np.pi * X) * np.cos(2 * np.pi * Z)
                    * np.ones_like(Y)) / 2.0
        qc = 0.5 * a_q * (1.0 + np.cos(np.pi * Y) * np.cos(np.pi * Z)
                          * np.ones_like(X)) / 2.0
        qr = 0.25 * a_q * (1.0 + np.sin(np.pi * X) * np.cos(np.pi * Z)
                           * np.ones_like(Y)) / 2.0

    bspec = BoundarySpec({
        "T": VariableBoundary(alphas["T"][0], alphas["T"][1], T0, T0),
        "v": VariableBoundary(alphas["v"][0], alphas["v"][1],
                              float(qv[0, 0, 0]), float(qv[0, 0, -1])),
        "c": VariableBoundary(alphas["c"][0], alphas["c"][1],
                              float(qc[0, 0, 0]), float(qc[0, 0, -1])),
        "r": VariableBoundary(alphas["r"][0], alphas["r"][1],
                              float(qr[0, 0, 0]), float(qr[0, 0, -1])),
    })
    factors = build_factors(bspec, grid)

    state = State(
        log_rho_d=log_rho,
        u=u,
        frak_T=homogenize(ScalarField(grid, T_vals), factors["T"]),
        frak_q_v=homogenize(ScalarField(grid, qv), factors["v"]),
        frak_q_c=homogenize(ScalarField(grid, qc), factors["c"]),
        frak_q_r=homogenize(ScalarField(grid, qr), factors["r"]),
        time=0.0,
    )
    return state, bspec


def perturb_state(state: State, bases: sp.BasisPair, field: str = "frak_T",
                  amplitude: float = 1.0e-6, seed: int = 0,
                  max_mode: int = 3) -> State:
    """Add a deterministic band-limited random perturbation (Neumann
    compatible) of the given L2 norm to one prognostic field."""
    grid = state.grid
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.shape)
    neu = bases.neumann
    modal = sp.to_modal_values(raw, neu)
    keep = ((np.abs(neu.kappa_x) <= np.pi * max_mode)
            & (np.abs(neu.kappa_y) <= np.pi * max_mode)
            & (neu.kappa_z <= np.pi * max_mode))
    vals = sp.to_phys_values(modal * keep, neu)
    norm = np.sqrt(sp.modal_sobolev_sq(sp.to_modal_values(vals, neu), neu, 0))
    vals *= amplitude / norm
    out = state.copy()
    target = getattr(out, field)
    setattr(out, field, ScalarField(grid, target.values + vals))
    return out
