"""Constitutive and thermodynamic closures for moist air.

All operations are pure, pointwise, and thread-safe, and take and return
plain arrays.  The Q-factors are the coefficient fields multiplying time
derivatives, compression, and phase-heat terms in the temperature and
momentum equations; in clipped form every mixing-ratio argument passes
through its nonnegative part, which makes the momentum mass factor bounded
below by one.
"""

from __future__ import annotations

import numpy as np

from .fields import PhysConstants


def mixed_heat_capacity(q_v: np.ndarray, q_c: np.ndarray, q_r: np.ndarray,
                        constants: PhysConstants) -> np.ndarray:
    """c_nu = c_pd + c_pv q_v + c_l (q_c + q_r) on plain arrays."""
    return constants.c_pd + constants.c_pv * q_v + constants.c_l * (q_c + q_r)


def mixed_gas_constant(q_v: np.ndarray, q_c: np.ndarray, q_r: np.ndarray,
                       constants: PhysConstants) -> np.ndarray:
    """sigma = ((c_pv/c_pd) R_d - R_v) q_v + (c_l/c_pd) R_d (q_c + q_r) on
    plain arrays."""
    c = constants
    return ((c.c_pv / c.c_pd * c.R_d - c.R_v) * q_v
            + (c.c_l / c.c_pd) * c.R_d * (q_c + q_r))


def latent_heat(T: np.ndarray, constants: PhysConstants) -> np.ndarray:
    """L(T) = L_ref + (c_pv - c_l)(T - T_ref) on plain arrays."""
    c = constants
    return c.L_ref + (c.c_pv - c.c_l) * (T - c.T_ref)


def pressure_values(rho_d: np.ndarray, q_v: np.ndarray, T: np.ndarray,
                    constants: PhysConstants) -> np.ndarray:
    """p = rho_d (R_d + R_v q_v) T on plain arrays; a dry-air density that
    is not positive everywhere raises ValueError."""
    if np.any(rho_d <= 0.0):
        raise ValueError("pressure requires strictly positive dry-air density")
    return rho_d * (constants.R_d + constants.R_v * q_v) * T


def potential_temperature(T: np.ndarray, p: np.ndarray,
                          constants: PhysConstants) -> np.ndarray:
    """theta = T (p_ref / p)^((gamma-1)/gamma) on plain arrays; a pressure
    that is not positive everywhere raises ValueError."""
    if np.any(p <= 0.0):
        raise ValueError("potential temperature requires positive pressure")
    expo = (constants.gamma - 1.0) / constants.gamma
    return T * (constants.p_ref / p) ** expo


def moist_density(rho_d: np.ndarray, q_v: np.ndarray, q_c: np.ndarray,
                  q_r: np.ndarray) -> np.ndarray:
    """rho = rho_d (1 + q_v + q_c + q_r) on plain arrays."""
    return rho_d * (1.0 + q_v + q_c + q_r)


def q_factor_values(q_v: np.ndarray, q_c: np.ndarray, q_r: np.ndarray,
                    constants: PhysConstants) -> tuple:
    """(Q_m, Q_th, Q_cp, Q_1, Q_2) on plain arrays, from the mixing ratios
    given: the clipped form passes their nonnegative parts, which makes
    Q_m >= 1 for any input.  Q_th always uses the c_l/c_pd coefficient
    form; Q_1 and Q_2 are plain numbers, constants by the algebraic
    collapse of the mixed gas constant against the mixed heat capacity.
    """
    c = constants
    gamma = c.gamma

    Q_m = 1.0 + q_v + q_c + q_r
    Q_th = (c.c_pd / gamma
            + (c.c_pv / gamma + c.c_pv / c.c_pd * c.R_d - c.R_v) * q_v
            + (c.c_l / gamma + c.c_l / c.c_pd * c.R_d) * (q_c + q_r))
    Q_cp = -c.R_d - c.R_v * q_v
    Q_1 = c.c_pv - c.c_l - c.R_v
    Q_2 = c.L_ref - (c.c_pv - c.c_l) * c.T_ref
    return Q_m, Q_th, Q_cp, Q_1, Q_2
