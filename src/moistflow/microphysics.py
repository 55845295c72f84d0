"""Warm-rain bulk microphysics: saturation closure and phase-change rates.

The four rates (rain evaporation, condensation, auto-conversion, collection)
come in a raw form and a clipped form.  The clipped form replaces selected
arguments by their nonnegative parts, exactly where the approximation system
places them: the condensation nucleation term and the auto-conversion
threshold deliberately keep unclipped arguments.  Whenever all inputs are
nonnegative the two forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .fields import PhysConstants
from .fields import positive_values as _pos


@dataclass
class SaturationClosure:
    """Saturation mixing ratio q_vs(p, T).

    Any closure must be nonnegative, bounded by q_vs_star, Lipschitz in
    (p, T) with the documented constants, and vanish for T <= 0.  The
    default closure is

        q_vs = q_vs_star * s(T) * p_ref / (p_ref + p+),
        s(T) = clip(2 T^2 / (T^2 + T_ref^2), 0, 1),  s(T) = 0 for T <= 0,

    which satisfies all of the above by construction.  Another closure is
    plugged in as ``func(p, T)``, and is sample-audited here; ``func=None``
    means the default closure.
    """

    constants: PhysConstants
    func: Callable | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        # the default closure keeps func None: a stored bound method would
        # make a reference cycle through the instance
        if self.func is not None:
            self._audit()

    def _default(self, p: np.ndarray, T: np.ndarray) -> np.ndarray:
        c = self.constants
        s = np.where(T > 0.0,
                     np.clip(2.0 * T * T / (T * T + c.T_ref ** 2), 0.0, 1.0),
                     0.0)
        return c.q_vs_star * s * c.p_ref / (c.p_ref + _pos(p))

    def lipschitz_bounds(self) -> tuple:
        """Documented (L_p, L_T) bounds on the partial difference quotients.

        For the default closure |dq/dp| <= q_vs_star / p_ref and
        |dq/dT| <= 1.3 q_vs_star / T_ref (the factor 3*sqrt(3)/4 < 1.3
        bounds the maximum slope of s)."""
        c = self.constants
        return (c.q_vs_star / c.p_ref, 1.3 * c.q_vs_star / c.T_ref)

    def _audit(self):
        """Bound/sign audit of a plugged-in closure on 400 random samples."""
        c = self.constants
        rng = np.random.default_rng(0)
        p = np.abs(rng.normal(scale=3.0 * c.p_ref, size=400))
        T = rng.normal(scale=3.0 * c.T_ref, size=400)
        q = np.asarray(self.func(p, T))
        if np.any(q < 0.0) or np.any(q > c.q_vs_star * (1.0 + 1e-12)):
            raise ValueError("saturation closure violates 0 <= q_vs <= q_vs_star")
        if np.any(q[T <= 0.0] != 0.0):
            raise ValueError("saturation closure must vanish for T <= 0")

    def __call__(self, p: np.ndarray, T: np.ndarray) -> np.ndarray:
        if self.func is None:
            return self._default(p, T)
        return self.func(p, T)


def source_values(T: np.ndarray, q_v: np.ndarray, q_c: np.ndarray,
                  q_r: np.ndarray, q_vs: np.ndarray, constants: PhysConstants,
                  q_v_raw: np.ndarray, q_c_raw: np.ndarray) -> dict:
    """The four phase-change rates on plain arrays, keyed S_ev, S_cd, S_ac,
    S_cr, from the T, q_j given and the unclipped q_v_raw, q_c_raw.

    Raw form:
        S_ev = c_ev T (R_d + R_v q_v)/(1 + q_v + q_c + q_r) (q_vs - q_v)+ q_r
        S_cd = c_cd (q_v - q_vs) q_c + c_cn (q_v - q_vs)+ q_cn
        S_ac = c_ac (q_c - q_ac)+
        S_cr = c_cr q_c q_r
    The clipped form is the same formula with T+, q_j+ in place of T, q_j,
    exactly where the approximation system puts them: the caller passes
    the nonnegative parts as T, q_j.  The nucleation term and S_ac read
    q_v_raw and q_c_raw in both forms.  A moisture denominator
    1 + q_v + q_c + q_r that is not positive everywhere raises ValueError;
    in the clipped form it is at least 1.
    """
    c = constants
    denom = 1.0 + q_v + q_c + q_r
    if np.any(denom <= 0.0):
        raise ValueError("raw sources: moisture denominator 1 + q_v + q_c + q_r <= 0")
    return {
        "S_ev": c.c_ev * T * (c.R_d + c.R_v * q_v) / denom * _pos(q_vs - q_v) * q_r,
        "S_cd": c.c_cd * (q_v - q_vs) * q_c + c.c_cn * _pos(q_v_raw - q_vs) * c.q_cn,
        "S_ac": c.c_ac * _pos(q_c_raw - c.q_ac),
        "S_cr": c.c_cr * q_c * q_r,
    }


def exchange_terms(rates: dict) -> dict:
    """The phase-change term of each moisture equation from the rates
    ``source_values`` returns: vapour S_ev - S_cd (the temperature
    equation's too), cloud S_cd - S_ac - S_cr, rain S_ac + S_cr - S_ev,
    keyed v, c, r."""
    return {"v": rates["S_ev"] - rates["S_cd"],
            "c": rates["S_cd"] - rates["S_ac"] - rates["S_cr"],
            "r": rates["S_ac"] + rates["S_cr"] - rates["S_ev"]}


def water_exchange_residual(rates: dict) -> np.ndarray:
    """Sum of the three moisture exchange terms of ``rates``; telescopes to
    zero, so phase changes conserve total water internally."""
    ex = exchange_terms(rates)
    return ex["v"] + ex["c"] + ex["r"]


def growth_bound_constant(constants: PhysConstants) -> float:
    """Constant C with |S_j| <= C (1 + max(|T|, |q_v|, |q_c|, |q_r|)^2)
    for the clipped rates.

    The evaporation prefactor is bounded by c_ev (R_d + R_v) q_vs_star since
    q_v+/(1 + q_v+) <= 1 and (q_vs - q_v+)+ <= q_vs_star; the remaining rates
    are at most quadratic with the listed coefficients.
    """
    c = constants
    return max(c.c_ev * (c.R_d + c.R_v) * c.q_vs_star,
               c.c_cd * (1.0 + c.q_vs_star),
               c.c_cn * (1.0 + c.q_vs_star) * c.q_cn,
               c.c_ac * (1.0 + c.q_ac),
               c.c_cr)
