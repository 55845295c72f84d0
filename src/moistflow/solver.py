"""Time integration of the homogenized moist-air system.

One step advances density along characteristics of the frozen velocity,
then updates velocity, temperature, and mixing ratios with an implicit
constant-coefficient diffusion solve against an explicit right-hand side
assembled from the frozen state.  Iterating that frozen-coefficient map to
a fixed point is the Picard mode; applying it once is the direct (IMEX)
production mode.  Variable-coefficient mass factors are handled by solving
with their domain mean and lagging the deviation into the explicit side,
so the converged fixed point satisfies the full variable-mass update.
"""

from __future__ import annotations

import contextlib
import csv
import os
import shutil
import time as _time
import warnings
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import spectral_ops as sp
from .boundary import BoundarySpec, build_factors, dehomogenize, homogenize
from .fields import (Grid, PhysConstants, ScalarField, State, VectorField,
                     load_state, positive_values, save_modal, save_state)
from .microphysics import SaturationClosure, exchange_terms, source_values
from .thermo import pressure_values, q_factor_values


class StepRejected(RuntimeError):
    """Raised when a step fails (Picard non-convergence, a non-finite
    right-hand side or state); the caller may retry with a smaller dt."""


V_R_PROFILES = {
    "constant": (lambda z: np.ones_like(z),
                 lambda z: np.zeros_like(z)),
    "bump": (lambda z: 1.0 + z**2 * (1.0 - z)**2,
             lambda z: 2.0 * z * (1.0 - z)**2 - 2.0 * z**2 * (1.0 - z)),
}


def _whole_steps(t: float, dt: float, what: str) -> int:
    """The number of steps of ``dt`` from 0 to ``t``; a ValueError naming
    ``what`` unless it is whole to 1e-9 relative."""
    n = round(t / dt)
    if abs(n * dt - t) > 1.0e-9 * abs(t):
        raise ValueError(f"{what} {t!r} is not a whole number of steps of dt {dt!r}")
    return n


@dataclass
class SolverConfig:
    dt: float = 1.0e-3
    t_end: float = 1.0e-2
    mode: str = "direct"            # "picard" | "direct"
    picard_tol: float = 1.0e-8
    picard_max_iters: int = 12
    v_r_profile: str = "constant"   # terminal rain-fall speed profile
    v_r_scale: float = 1.0
    checkpoint_every: int = 0
    snapshot_every: int = 0
    record_states_every: int = 0
    max_dt_halvings: int = 2
    strict_positivity: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_end >= 0.0:
            raise ValueError("t_end must be nonnegative")
        _whole_steps(self.t_end, self.dt, "t_end")
        if self.mode not in ("picard", "direct"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not self.picard_tol > 0.0:
            raise ValueError("picard_tol must be positive")
        if not self.picard_max_iters >= 1:
            raise ValueError("picard_max_iters must be >= 1")
        if self.v_r_profile not in V_R_PROFILES:
            raise ValueError(f"unknown V_r profile {self.v_r_profile!r}")
        if not self.v_r_scale >= 0.0:
            raise ValueError("v_r_scale must be nonnegative: rain falls downward")
        for name in ("checkpoint_every", "snapshot_every", "record_states_every",
                     "max_dt_halvings"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class PicardReport:
    """Per-step record of the fixed-point iteration in the sup-L2 +
    dt-weighted H1 metric."""

    increments: list = dc_field(default_factory=list)   # per-iteration dicts
    ratios: list = dc_field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    @property
    def final_ratio(self) -> float:
        return self.ratios[-1] if self.ratios else 0.0


@dataclass
class FrozenVelocity:
    """The frozen velocity of one iterate and what the density step and
    the right-hand sides read of the spectral derivatives of its dealiased
    form: each component's derivative along the velocity,
    A_i = u1 dx u_i + u2 dy u_i + w dz u_i, its z-derivative, div u, and
    the coefficients of div u on the kept block of the 2/3 rule.  The
    other six first derivatives are freed once the A_i are formed, and
    grad div u is formed from ``div_modal`` by each stage that reads it
    (``grad_div``)."""

    values: tuple            # values of v1, v2, w
    advection: tuple | None  # A_i of v1, v2, w; None once assemble_rhs has used them
    dz: tuple | None         # dz of v1, v2, w; None once assemble_rhs has used them
    div: np.ndarray | None   # div u; None once assemble_rhs has used it
    div_modal: np.ndarray | None    # its kept-block coefficients; None likewise

    def grad_div(self, bases: sp.BasisPair) -> dict:
        """grad div u, keyed x, y, z: the dealiased order-1 set of
        ``div_modal``, formed anew on each call."""
        return sp.derivs(self.div_modal, bases.neumann, dealias=True)


@dataclass
class RhsBundle:
    """Explicit right-hand sides: each equation's total (the momentum's a
    3-tuple), with the mass factors Q_m and Q_th that ``linear_step``
    divides by.  Named terms: ``assemble_rhs(terms=...)``."""

    momentum: tuple
    temperature: np.ndarray
    vapor: np.ndarray
    cloud: np.ndarray
    rain: np.ndarray
    Q_m: np.ndarray
    Q_th: np.ndarray


@dataclass
class Trajectory:
    """Summary of a run: final state, diagnostics rows, recorded snapshots."""

    final_state: State
    rows: list
    states: list                  # [(step, State)] when recording is on
    steps: int                    # number of the last step (from initial.time)
    rejections: int
    config: SolverConfig
    wall_time: float


class Simulation:
    """One integration context: grid, constants, boundary data, closure.

    A simulation instance is single-writer (run() owns the state); separate
    instances may run concurrently.
    """

    def __init__(self, grid: Grid, constants: PhysConstants,
                 boundary_spec: BoundarySpec, config: SolverConfig,
                 closure: SaturationClosure | None = None,
                 forcing: dict | None = None):
        boundary_spec.validate()
        self.grid = grid
        self.constants = constants
        self.bspec = boundary_spec
        self.config = config
        self.closure = closure or SaturationClosure(constants)
        self.forcing = forcing or {}
        self.bases = sp.make_bases(grid)
        vr_fn, dvr_fn = V_R_PROFILES[config.v_r_profile]
        self.v_r = (config.v_r_scale * vr_fn(grid.z))[None, None, :]
        self.dz_v_r = (config.v_r_scale * dvr_fn(grid.z))[None, None, :]
        self._factors = (None, None)          # (key, factors) of the last build
        if not boundary_spec.time_dependent:
            self.factors_at(0.0)              # static data are built once, here
        self._positivity_fixes = 0
        self._rejections = 0
        self.config_echo = ""         # provenance, set by cli.build_simulation
        self.config_hash = ""

    # -- helpers ----------------------------------------------------------

    def factors_at(self, t: float, dt: float | None = None) -> dict:
        """The homogenization factors at time ``t`` for a step of ``dt``: built
        once for static wall data, else kept for the last (t, dt) asked for."""
        key = (t, dt) if self.bspec.time_dependent else ()
        if key != self._factors[0]:
            self._factors = (key, build_factors(self.bspec, self.grid, t, dt))
        return self._factors[1]

    def _frozen_velocity(self, s: State) -> FrozenVelocity:
        """The velocity of ``s`` with its A_i, dz u_i, div u and the
        coefficients of div u, from the coefficients ``s`` carries.  The 2/3
        rule acts in the inverse transforms: the modal multipliers are
        diagonal, so truncating their products truncates the velocity, and
        the divergence is formed on the kept block alone.  Each component's
        derivative set lives only until its A_i is formed."""
        neu, diri = self.bases.neumann, self.bases.dirichlet
        m1, m2, mw = (s.modal[name] for name in ("u1", "u2", "w"))
        div_m = sp.div_modal(sp.kept_block(m1, neu), sp.kept_block(m2, neu),
                             sp.kept_block(mw, diri), self.bases)
        values = tuple(comp.values for comp in s.u.components())
        u1, u2, w = values
        advection, dz = [], []
        for m, basis in ((m1, neu), (m2, neu), (mw, diri)):
            d = sp.derivs(m, basis, dealias=True)
            advection.append(u1 * d["x"] + u2 * d["y"] + w * d["z"])
            dz.append(d["z"])
            del d       # not alive while the next set is formed
        return FrozenVelocity(values, tuple(advection), tuple(dz),
                              div=sp.to_phys_values(div_m, neu, True), div_modal=div_m)

    @staticmethod
    def _taylor_eval(vals, derivs, dx, dy, dz, order: int = 2):
        """Evaluate a field at displaced points via its Taylor series; the
        departure-point evaluator of the semi-Lagrangian step (displacements
        are a fraction of a cell at the CFL numbers this scheme targets).

        The series is vals + dx f_x + dy f_y + dz f_z, then
        + 0.5 (dx dx f_xx + dy dy f_yy + dz dz f_zz) + dx dy f_xy
        + dx dz f_xz + dy dz f_yz, summed left to right and each product
        formed left to right, in place on two work arrays beside the
        result, so that few temporaries are alive at once."""
        out = vals + dx * derivs["x"]
        work = np.empty_like(out)

        def add(to, key, a, b=None):
            if b is None:
                np.multiply(a, derivs[key], out=work)
            else:
                np.multiply(a, b, out=work)
                np.multiply(work, derivs[key], out=work)
            to += work

        add(out, "y", dy)
        add(out, "z", dz)
        if order >= 2:
            half = dx * dx
            half *= derivs["xx"]
            add(half, "yy", dy, dy)
            add(half, "zz", dz, dz)
            half *= 0.5
            out += half
            del half
            add(out, "xy", dx, dy)
            add(out, "xz", dx, dz)
            add(out, "yz", dy, dz)
        return out

    # -- density transport --------------------------------------------------

    def density_step(self, state: State, velocity: FrozenVelocity, dt: float,
                     dlog: dict) -> ScalarField:
        """Advance the log rho_d of ``state`` along backtracked
        characteristics of the frozen velocity: RK2 midpoint foot,
        second-order Taylor interpolation at the foot, and a midpoint-rule
        quadrature of the divergence integral.  Positivity of rho_d is
        automatic in the log form.

        The midpoint velocity is u_i - (dt/2) A_i, the order-1 Taylor value
        of u_i at the half-step foot x - (dt/2) u, from the A_i of
        ``velocity``: the material derivatives the momentum advects with.
        ``velocity`` is ``_frozen_velocity`` of the frozen iterate; its
        grad div u is formed for the divergence integral, which comes
        first, and freed before log rho_d at the foot is allocated.
        ``dlog`` is the order-2 derivative set of ``state.log_rho_d``, which
        does not depend on the velocity."""
        g = self.grid
        z = g.z[None, None, :]
        u1, u2, w = velocity.values
        wall_w = max(float(np.max(np.abs(w[:, :, 0]))), float(np.max(np.abs(w[:, :, -1]))))
        if wall_w > 1.0e-8 * (1.0 + float(np.max(np.abs(w)))):
            raise ValueError("frozen velocity violates the no-penetration condition")

        # the foot's displacements: -dt times the midpoint velocity
        a1, a2, aw = velocity.advection
        half = 0.5 * dt
        dx_f = -dt * (u1 - half * a1)
        dy_f = -dt * (u2 - half * a2)
        foot = z - dt * (w - half * aw)
        dz_f = np.clip(foot, 0.0, 1.0)
        overshoot = np.max(np.abs(foot - dz_f))
        del foot
        if overshoot > dt * max(float(np.max(np.abs(w))), 1e-300):
            warnings.warn(f"characteristic feet clamped to the channel "
                          f"(overshoot {overshoot:.3e})")
        dz_f -= z

        # the divergence integral first, at the midpoint of the characteristic
        # (the displacements halved in place), so that grad div u is freed
        # before log rho_d at the foot is allocated; halving and doubling are
        # exact, so the foot's displacements come back bitwise
        for d in (dx_f, dy_f, dz_f):
            d *= 0.5
        div_integral = self._taylor_eval(velocity.div, velocity.grad_div(self.bases),
                                         dx_f, dy_f, dz_f, order=1)
        div_integral *= dt
        for d in (dx_f, dy_f, dz_f):
            d *= 2.0
        log_at_foot = self._taylor_eval(state.log_rho_d.values, dlog,
                                        dx_f, dy_f, dz_f, order=2)
        log_at_foot -= div_integral
        return ScalarField(g, log_at_foot)

    # -- explicit right-hand sides ------------------------------------------

    def assemble_rhs(self, frozen: State, rho_vals: np.ndarray, factors: dict,
                     t_new: float, velocity: FrozenVelocity,
                     terms: dict | None = None) -> RhsBundle:
        """Evaluate the frozen-state right-hand sides of the homogenized
        system: advection, sedimentation, pressure gradient, gravity, the
        B/psi lifting corrections, and the clipped phase-change sources.

        The velocity and the lifted scalars are differentiated under the
        2/3 rule, which acts in their inverse transforms; the pressure
        gradient and the log rho_d derivative are not truncated.

        Each term is added to its equation's total as soon as it is formed,
        so a total is the left-to-right sum of its terms in the order below,
        and no term outlives its addition.  A given ``terms`` dict is filled
        with them by name, ``terms[eq][name]`` (for the momentum a tuple of
        components, 0.0 for one that is zero everywhere).  A non-finite
        total raises StepRejected naming the first non-finite term in the
        order temperature, vapor, cloud, rain, momentum, found by assembling
        once more with ``terms``.

        ``velocity`` is ``_frozen_velocity(frozen)``.  Its A_i and dz u_i
        become the momentum advection and drag terms in place, and the
        velocity lets go of them (they are set to None); ``div`` and
        ``div_modal`` stay.  The scalars' and log rho_d's coefficients are
        those ``frozen`` carries.  Each array is freed at its last use:
        each scalar's derivative set after its equation, the pressure once
        its forward transform is formed and that transform once its
        gradient is, the raw q_r before the rates (it is formed again
        where the drag and T's sedimentation read it), q_vs, the clipped
        variables, T_o, q_v and q_c once the rates are, the rates once
        their three combinations are, each combination and Q_cp after the
        terms that read them.  A
        term that is the number 0.0 is recorded but not added.  The bundle
        holds what ``linear_step`` reads."""
        c = self.constants
        neu = self.bases.neumann

        fT, fv, fc, fr = factors["T"], factors["v"], factors["c"], factors["r"]
        u1, u2, w = velocity.values

        # homogenized scalars: the lifted values G = frak + psi up front, for
        # the microphysics; each one's derivatives where its equation uses them
        scalars = {"T": ("T", frozen.frak_T), "v": ("qv", frozen.frak_q_v),
                   "c": ("qc", frozen.frak_q_c), "r": ("qr", frozen.frak_q_r)}
        G = {name: field_.values if factors[name].psi.is_zero
             else field_.values + factors[name].psi.values()
             for name, (_, field_) in scalars.items()}

        def lifted_derivs(name):
            # the order-1 set of G, with psi's own derivatives where nonzero
            d = sp.derivs(frozen.modal[scalars[name][0]], neu, dealias=True)
            psi = factors[name].psi
            if psi.varies_along_walls:
                d["x"] += psi.dx_values()
                d["y"] += psi.dy_values()
            if not psi.is_zero:
                d["z"] += psi.dz_values()
            return d

        # dehomogenized physical variables from the frozen state
        T_o = fT.binv_profile * G["T"]
        q_v, q_c, q_r = (factors[n].binv_profile * G[n] for n in ("v", "c", "r"))

        # both kernels compute with the clipped variables, each clipped once;
        # the nucleation and auto-conversion rates read the raw q_v and q_c.
        # The rates come first, so that the Q-factors are not alive with them.
        try:
            p = pressure_values(rho_vals, q_v, T_o, c)
        except ValueError as exc:   # an underflowed rho_d: a failed step
            raise StepRejected(str(exc)) from exc
        q_vs = self.closure(p, T_o)
        T_c = positive_values(T_o)
        del T_o
        qv_c, qc_c, qr_c = map(positive_values, (q_v, q_c, q_r))
        del q_r     # formed again where the drag and the sedimentation read it
        S = source_values(T_c, qv_c, qc_c, qr_c, q_vs, c, q_v, q_c)
        del T_c, q_vs, q_v, q_c
        exchange = exchange_terms(S)     # S_ev - S_cd shared by T and q_v
        del S
        Q_m, Q_th, Q_cp, Q_1, Q_2 = q_factor_values(qv_c, qc_c, qr_c, c)
        del qv_c, qc_c, qr_c

        forcing = {k: fn(t_new) for k, fn in self.forcing.items()}

        totals = {}

        def add(eq, name, *values):
            # the first term becomes the total (a copy, if it is kept by name)
            if terms is not None:
                terms.setdefault(eq, {})[name] = values if eq == "momentum" else values[0]
            if eq not in totals:
                totals[eq] = [v.copy() if terms is not None else v for v in values]
            else:
                for total, v in zip(totals[eq], values):
                    if not (isinstance(v, float) and v == 0.0):
                        total += v

        # momentum ----------------------------------------------------------
        p_modal = sp.to_modal_values(p, neu)
        del p
        dp = sp.derivs(p_modal, neu)
        del p_modal
        add("momentum", "pressure_gradient", *(np.negative(dp[k], out=dp[k]) for k in "xyz"))
        # nothing below reads the velocity's A_i and dz u_i: their arrays
        # become the advection and drag terms in place
        minus_rQm = -(rho_vals * Q_m)
        for a in velocity.advection:
            a *= minus_rQm
        add("momentum", "advection", *velocity.advection)
        drag = rho_vals * (fr.binv_profile * G["r"]) * self.v_r
        for d in velocity.dz:
            d *= drag
        add("momentum", "sedimentation_drag", *velocity.dz)
        del drag
        velocity.advection = velocity.dz = None
        add("momentum", "gravity", 0.0, 0.0, minus_rQm * c.g)
        del minus_rQm
        if any(k in forcing for k in ("u1", "u2", "w")):
            add("momentum", "forcing", *(forcing.get(k, 0.0) for k in ("u1", "u2", "w")))

        # temperature ---------------------------------------------------------
        lT = lifted_derivs("T")
        G_T, ap_T = G["T"], fT.dz_log_b
        add("temperature", "advection", -Q_th * (u1 * lT["x"] + u2 * lT["y"] + w * lT["z"]))
        add("temperature", "sedimentation",
            c.c_l * (fr.binv_profile * G["r"]) * self.v_r * (lT["z"] - ap_T * G_T))
        lifting = -2.0 * ap_T * lT["z"] + fT.dzz_binv_b * G_T
        del lT
        if not fT.psi.is_zero:
            lifting += fT.psi.laplacian_values()
        add("temperature", "robin_correction", Q_th * w * ap_T * G_T + c.kappa * lifting)
        del lifting
        add("temperature", "compression", Q_cp * G_T * velocity.div)
        del Q_cp
        add("temperature", "phase_heat", -(Q_1 * G_T + Q_2 * fT.b_profile) * exchange["v"])
        if fT.psi_rate is not None:
            add("temperature", "psi_tendency", -Q_th * fT.psi_rate.values())
        if "T" in forcing:
            add("temperature", "forcing", forcing["T"])

        # moisture ------------------------------------------------------------
        for eq, name, fac, fkey in (("vapor", "v", fv, "qv"), ("cloud", "c", fc, "qc"),
                                    ("rain", "r", fr, "qr")):
            l = lifted_derivs(name)
            ap = fac.dz_log_b
            add(eq, "advection", -(u1 * l["x"] + u2 * l["y"] + w * l["z"]))
            robin = w * ap * G[name] - 2.0 * ap * l["z"] + fac.dzz_binv_b * G[name]
            if not fac.psi.is_zero:
                robin += fac.psi.laplacian_values()
            add(eq, "robin_correction", robin)
            del robin
            add(eq, "sources", fac.b_profile * exchange.pop(name))
            if fac.psi_rate is not None:
                add(eq, "psi_tendency", -fac.psi_rate.values())
            if fkey in forcing:
                add(eq, "forcing", forcing[fkey])
            if eq == "rain":    # the rain set also serves the sedimentation
                dz_log_rho = sp.to_phys_values(
                    sp.dz_modal(frozen.modal["log_rho_d"], neu), neu.other)
                add("rain", "sedimentation", self.v_r * l["z"] + G["r"] * (
                    self.dz_v_r + self.v_r * dz_log_rho - self.v_r * fr.dz_log_b))
            del l

        def finite(values):
            return all(np.all(np.isfinite(v)) for v in values)

        order = ("temperature", "vapor", "cloud", "rain", "momentum")
        bad = [eq for eq in order if not finite(totals[eq])]
        if bad:
            if terms is None:   # assemble again by name; that call raises
                terms = {}
                self.assemble_rhs(frozen, rho_vals, factors, t_new,
                                  self._frozen_velocity(frozen), terms)
            for eq in order:
                for tname, value in terms[eq].items():
                    if not finite(value if eq == "momentum" else (value,)):
                        raise StepRejected(f"non-finite RHS term {eq}.{tname}")
            raise StepRejected(f"non-finite RHS total of {bad[0]} (finite terms overflowed)")

        return RhsBundle(tuple(totals["momentum"]), *(totals[eq][0] for eq in order[:4]),
                         Q_m, Q_th)

    # -- one frozen-coefficient update ---------------------------------------

    def linear_step(self, frozen: State, current: State, dt: float,
                    factors: dict, velocity: FrozenVelocity) -> State:
        """Backward-Euler update of the associated linear system: implicit
        constant-coefficient diffusion, explicit frozen right-hand sides,
        mean-coefficient mass factors with the deviation lagged on the
        frozen iterate.  ``frozen`` must already hold the advanced density
        and carry the coefficients of its fields.  The solves' forward
        transforms apply the 2/3 rule, so the new coefficients are 0 outside
        the kept block, and the inverse transforms run on that block alone.

        ``velocity`` is ``_frozen_velocity(frozen)``, which the step uses
        up: ``assemble_rhs`` frees its A_i and dz u_i, and this step lets go
        of div u after ``assemble_rhs`` and of the coefficients of div u
        once it has formed grad div u from them for the momentum data.  The
        returned state carries the coefficients of its fields as
        ``State.modal``: the kept blocks the solves return, with the whole
        array of the frozen log rho_d.  The solves read the totals of
        ``assemble_rhs``, which has checked that they are finite; each total
        is freed after its solve, and each solve's data and coefficient
        fields before the next large allocation."""
        c = self.constants
        g = self.grid
        neu = self.bases.neumann
        rho_vals = np.exp(frozen.log_rho_d.values)
        rhs = self.assemble_rhs(frozen, rho_vals, factors, current.time + dt, velocity)
        velocity.div = None     # read by assemble_rhs alone
        totals = {"qv": rhs.vapor, "qc": rhs.cloud, "qr": rhs.rain, "T": rhs.temperature}
        I, Q_m, Q_th = rhs.momentum, rhs.Q_m, rhs.Q_th
        del rhs

        def lagged_laplacian(name):
            # formed where its solve uses it, so that at most one is in memory;
            # the dealiased inverse reads the kept block alone
            basis = dg.iterated_basis(name, self.bases)
            return sp.to_phys_values(sp.laplacian_modal(
                sp.kept_block(frozen.modal[name], basis), basis), basis, True)

        # moisture first, then temperature, then momentum (declared splitting
        # order; the right-hand sides all come from the same frozen state)
        new = {}
        for key, cur in (("qv", current.frak_q_v), ("qc", current.frak_q_c),
                         ("qr", current.frak_q_r)):
            new[key] = sp.helmholtz_modal(cur.values + dt * totals.pop(key), dt, neu, True)

        # temperature: divide by the mass factor, solve with the domain-mean
        # diffusivity, lag the deviation times the frozen Laplacian
        nu_T = c.kappa / Q_th
        nu_T_bar = float(np.mean(nu_T))
        gT = current.frak_T.values + dt * (
            totals.pop("T") / Q_th
            + (nu_T - nu_T_bar) * lagged_laplacian("T"))
        del nu_T, Q_th
        new["T"] = sp.helmholtz_modal(gT, nu_T_bar * dt, neu, True)
        del gT

        # momentum: same mean-coefficient splitting for both viscous operators
        M = rho_vals * Q_m
        del rho_vals, Q_m
        nu = c.mu / M
        nul = (c.mu + c.lam) / M
        nu_bar = float(np.mean(nu))
        nul_bar = float(np.mean(nul))
        cur_u = (current.u.v1.values, current.u.v2.values, current.u.w.values)
        grad_div = velocity.grad_div(self.bases)
        velocity.div_modal = None
        gu = [cur_u[i] + dt * (I[i] / M
                               + (nu - nu_bar) * lagged_laplacian(name)
                               + (nul - nul_bar) * grad_div.pop(k))
              for i, (name, k) in enumerate(zip(("u1", "u2", "w"), "xyz"))]
        del I, M, nu, nul, grad_div
        new["u1"], new["u2"], new["w"] = sp.vector_helmholtz_modal(
            gu[0], gu[1], gu[2], nu_bar * dt, nul_bar * dt, self.bases, True)
        del gu

        new = {name: new[name] for name in dg.ITERATED}
        vals = {name: sp.to_phys_values(m, dg.iterated_basis(name, self.bases), True)
                for name, m in new.items()}
        for arr in vals.values():
            if not np.all(np.isfinite(arr)):
                raise StepRejected("non-finite fields after linear step")

        u_new = VectorField(ScalarField(g, vals["u1"]), ScalarField(g, vals["u2"]),
                            ScalarField(g, vals["w"]))
        out = State(frozen.log_rho_d, u_new, ScalarField(g, vals["T"]),
                    ScalarField(g, vals["qv"]), ScalarField(g, vals["qc"]),
                    ScalarField(g, vals["qr"]), current.time + dt)
        out.modal = {**new, "log_rho_d": frozen.modal["log_rho_d"]}
        return out

    # -- metric for increments ------------------------------------------------

    @staticmethod
    def _increment_parts(sqs: dict, dt: float) -> dict:
        """Increment size per variable in the sup-L2 + dt-weighted H1 metric
        (the one-step discretization of L-inf(L2) intersect L2(H1)), from the
        squared norms of ``diagnostics.modal_sqs``."""
        entries = {}
        tot_l2 = tot_h1 = 0.0
        for name, (l2s, h1s) in sqs.items():
            entries[name] = np.sqrt(l2s) + np.sqrt(dt * h1s)
            tot_l2 += l2s
            tot_h1 += h1s
        entries["u"] = entries["u1"] + entries["u2"] + entries["w"]
        entries["total"] = float(np.sqrt(tot_l2) + np.sqrt(dt * tot_h1))
        return entries

    def _state_scale(self, s: State) -> float:
        """Cheap size estimate of the iterated fields (floor for the
        convergence test); RMS times the domain-volume factor."""
        vol = np.sqrt(self.grid.volume)
        total = 0.0
        for f in (s.u.v1, s.u.v2, s.u.w, s.frak_T,
                  s.frak_q_v, s.frak_q_c, s.frak_q_r):
            total += float(np.mean(f.values ** 2))
        return vol * np.sqrt(total)

    # -- the solution map and its fixed point ---------------------------------

    def picard_solve(self, state: State, dt: float,
                     max_iters: int | None = None):
        """Iterate the frozen-coefficient map (density transport, RHS
        assembly, linear solves) to its fixed point.  Stops when the metric
        increment drops below picard_tol relative to the first increment;
        raises StepRejected on non-convergence.  With max_iters == 1 this is
        by definition the direct mode: no convergence test is applied and
        the report records no increments.  Warns when the step's advective
        CFL number exceeds 1."""
        cfg = self.config
        umax = max(float(np.max(np.abs(c.values))) for c in state.u.components())
        h = min(self.grid.dx, self.grid.dy, self.grid.dz_spacing)
        if umax * dt / h > 1.0:
            warnings.warn(f"advective CFL {umax * dt / h:.2f} exceeds 1")
        iters = cfg.picard_max_iters if max_iters is None else max_iters
        factors = self.factors_at(state.time, dt)
        report = PicardReport()
        neu = self.bases.neumann
        # the step starts from the coefficients the state carries, or from
        # those of its fields on a copy; after that each iterate gets the
        # coefficients of its fields from the previous solves
        state = dg.with_coefficients(state, self.bases)
        # derivatives of the step's initial log rho_d, shared by all iterates
        dlog = sp.derivs(state.modal["log_rho_d"], neu, order=2)

        x_prev = state
        first = None
        for m in range(1, iters + 1):
            # one set of frozen-velocity derivatives serves the density step,
            # the right-hand sides and the lagged grad div u
            velocity = self._frozen_velocity(x_prev)
            log_rho_new = self.density_step(state, velocity, dt, dlog)
            if m == iters:
                dlog = None     # no later iterate reads it; free it before the solves
            # the frozen iterate: the previous one with the new density, and
            # the coefficients of all eight of its fields
            try:
                frozen = replace(x_prev, log_rho_d=log_rho_new)
            except FloatingPointError as exc:
                raise StepRejected(f"density step at dt={dt:g}: {exc}") from exc
            frozen.modal = {**x_prev.modal,
                            "log_rho_d": sp.to_modal_values(log_rho_new.values, neu)}
            x_new = self.linear_step(frozen, state, dt, factors, velocity)
            report.iterations = m
            if iters == 1:
                # the direct mode: no convergence test, so no increment either
                report.converged = True
                return x_new, report
            # the iterates may carry different extents (the step's input the
            # whole array): the difference is taken on the larger one
            parts = self._increment_parts(dg.modal_sqs(
                {name: sp.extent_sum(x_new.modal[name], x_prev.modal[name], subtract=True)
                 for name in dg.ITERATED}, self.bases), dt)
            inc = parts["total"]
            report.increments.append(parts)
            if m >= 2:
                prev_inc = report.increments[-2]["total"]
                if prev_inc > 0.0:
                    report.ratios.append(inc / prev_inc)
            if first is None:
                first = inc
                floor = 1.0e-14 * (1.0 + self._state_scale(state))
            if inc <= max(cfg.picard_tol * first, floor):
                report.converged = True
                return x_new, report
            if not np.isfinite(inc) or inc > 1.0e3 * max(first, floor):
                raise StepRejected(
                    f"Picard iteration diverging at dt={dt:g} "
                    f"(increment {inc:.3e} after {m} iterations)")
            x_prev = x_new
        raise StepRejected(
            f"Picard iteration did not converge in {iters} iterations at dt={dt:g}")

    def direct_step(self, state: State, dt: float) -> State:
        """Single IMEX update: one application of the frozen-coefficient map
        (identical, bit for bit, to picard_solve with one iteration)."""
        return self.picard_solve(state, dt, max_iters=1)[0]

    # -- positivity fixer (off by default) ------------------------------------

    def _apply_positivity_fix(self, state: State, factors: dict) -> State:
        """``state``, which carries coefficients as every state of a run does,
        with each mixing ratio that has a negative value clipped to its
        nonnegative part, rescaled to keep its dry-air-weighted integral.
        The result carries the coefficients of ``state`` for the fields left
        alone and the forward transforms of the fixed ones (it is ``state``
        itself when nothing needs fixing)."""
        w = self.grid.quad_weights()
        rho = np.exp(state.log_rho_d.values)
        out, modal = {}, {}
        for attr, var, name in (("frak_q_v", "v", "qv"), ("frak_q_c", "c", "qc"),
                                ("frak_q_r", "r", "qr")):
            q = dehomogenize(getattr(state, attr), factors[var]).values
            neg = np.minimum(q, 0.0)
            if not np.any(neg):
                continue
            self._positivity_fixes += 1
            pos = np.maximum(q, 0.0)
            deficit = -float(np.sum(rho * neg * w))
            total_pos = float(np.sum(rho * pos * w))
            scale = 1.0 - deficit / total_pos if total_pos > deficit else 0.0
            fixed = ScalarField(self.grid, pos * scale)
            out[attr] = homogenize(fixed, factors[var])
            modal[name] = sp.to_modal_values(out[attr].values,
                                             dg.iterated_basis(name, self.bases))
        if not out:
            return state
        fixed_state = replace(state, **out)
        fixed_state.modal = {**state.modal, **modal}
        return fixed_state

    # -- run loop --------------------------------------------------------------

    def _advance(self, state: State, dt: float, depth: int = 0):
        try:
            if self.config.mode == "picard":
                return self.picard_solve(state, dt)
            return self.direct_step(state, dt), None
        except StepRejected:
            if depth >= self.config.max_dt_halvings:
                raise
            self._rejections += 1
            half, rep1 = self._advance(state, 0.5 * dt, depth + 1)
            out, rep2 = self._advance(half, 0.5 * dt, depth + 1)
            return out, (rep2 or rep1)

    def run(self, initial: State, out_dir: str | None = None,
            initial_report: PicardReport | None = None) -> Trajectory:
        """Advance to t_end, handing each step's diagnostics row (and the
        initial one) with its state to a ``RunRecorder`` of the run directory
        ``out_dir``, if any.  Rejected steps are retried at half the step
        size.  ``initial_report`` is the report of the step that made
        ``initial``, for the initial row: a resumed run passes its
        checkpoint's (``read_checkpoint``).  ``initial.time`` must be a
        whole number of steps and not past t_end: a ValueError otherwise."""
        cfg = self.config
        t0 = _time.perf_counter()
        # a run resumed from a checkpoint keeps the step numbers of the
        # uninterrupted run
        step = _whole_steps(initial.time, cfg.dt, "initial time")
        n_steps = _whole_steps(cfg.t_end, cfg.dt, "t_end") - step
        if n_steps < 0:
            raise ValueError(f"initial time {initial.time!r} is past t_end "
                             f"{cfg.t_end!r}")
        # every state of the run carries its coefficients: attached here,
        # kept by each step's solves and by the positivity fixer
        state = dg.with_coefficients(initial, self.bases)
        self._rejections = self._positivity_fixes = 0
        with RunRecorder(self, out_dir) as recorder:
            factors = self.factors_at(state.time, cfg.dt)
            recorder.record(state, dg.compute_row(state, factors, self.bases, step=step,
                                                  picard_report=initial_report))
            for _ in range(n_steps):
                tic = _time.perf_counter()
                try:
                    state, report = self._advance(state, cfg.dt)
                except StepRejected as exc:
                    raise RuntimeError(f"unrecoverable step rejection at "
                                       f"t={state.time:g}: {exc}") from exc
                factors = self.factors_at(state.time, cfg.dt)
                if cfg.strict_positivity:
                    state = self._apply_positivity_fix(state, factors)
                step += 1
                recorder.record(state, dg.compute_row(
                    state, factors, self.bases, step=step, picard_report=report,
                    wall_clock=_time.perf_counter() - tic))
            recorder.finish(state)
        if self._positivity_fixes:
            warnings.warn(f"positivity fixer active on {self._positivity_fixes} "
                          f"field updates")
        return Trajectory(state, recorder.rows, recorder.states, step, self._rejections,
                          cfg, _time.perf_counter() - t0)


# -- the run directory -----------------------------------------------------------

# every name in a run directory, each spelled here alone
DIAGNOSTICS_FILE = "diagnostics.csv"
TIMINGS_FILE = "timings.csv"
SNAPSHOT_DIR = "snapshot_{:06d}"
CHECKPOINT_DIR = os.path.join("checkpoints", "step_{:06d}")
FINAL_STATE_DIR = "final_state"
ECHO_FILE = "config.echo"
META_FILE = "meta.txt"


class RunRecorder:
    """The record of one run, handed each row with its state and then the
    last state (``finish``): the rows, the state every ``record_states_every``
    steps, and, given a run directory, every file in it (a state's own files
    through ``fields``): both CSV files (complete up to the last row, also
    when the run fails), the snapshots and checkpoints on their cadences,
    and a checkpoint of the last state.  A simulation with a ``config_echo``
    (the command line's) also writes the echo into the root and each
    checkpoint, and the final state's checkpoint, which ``resume`` reads."""

    def __init__(self, sim: Simulation, out_dir: str | None):
        self.sim, self.dir = sim, out_dir
        self.rows, self.states = [], []         # states: [(step, State)]
        self._files = contextlib.ExitStack()

    def __enter__(self):
        if self.dir is not None:
            os.makedirs(self.dir, exist_ok=True)
            if self.sim.config_echo:
                Path(self.dir, ECHO_FILE).write_text(self.sim.config_echo, encoding="utf-8")
            with contextlib.ExitStack() as files:
                self._csv = files.enter_context(contextlib.closing(
                    dg.DiagnosticsWriter(os.path.join(self.dir, DIAGNOSTICS_FILE))))
                self._timings = files.enter_context(
                    open(os.path.join(self.dir, TIMINGS_FILE), "w", encoding="utf-8"))
                self._timings.write("step,wall_seconds\n")
                self._files = files.pop_all()
        return self

    def __exit__(self, *exc):
        self._files.close()

    def record(self, state: State, row: dg.DiagnosticsRow) -> None:
        cfg, step = self.sim.config, row.step
        self.rows.append(row)
        if cfg.record_states_every and step % cfg.record_states_every == 0:
            self.states.append((step, state.copy()))
        if self.dir is None:
            return
        self._csv.emit(row)
        self._timings.write(f"{step},{row.wall_clock!r}\n")
        if cfg.snapshot_every and step % cfg.snapshot_every == 0:
            save_state(os.path.join(self.dir, SNAPSHOT_DIR.format(step)), state)
        if cfg.checkpoint_every and step > 0 and step % cfg.checkpoint_every == 0:
            self._checkpoint(CHECKPOINT_DIR.format(step), state)

    def finish(self, state: State) -> None:
        if self.dir is None:
            return
        step, every = self.rows[-1].step, self.sim.config.checkpoint_every
        # the last state, unless record() has just checkpointed it
        if every and (step == 0 or step % every):
            self._checkpoint(CHECKPOINT_DIR.format(step), state)
        if self.sim.config_echo:
            self._checkpoint(FINAL_STATE_DIR, state)

    def _checkpoint(self, name: str, state: State) -> None:
        """Write the state directory ``name`` whole: the fields, their
        coefficients, the meta file (with the last row's Picard report, for
        a resumed run's first row) and the echo go into a hidden sibling,
        which then replaces it, or is removed if a write fails."""
        row, sim = self.rows[-1], self.sim
        path = os.path.join(self.dir, name)
        parent, base = os.path.split(path)
        tmp, old = (os.path.join(parent, f".{base}.{tag}") for tag in ("tmp", "old"))
        for p in (tmp, old):
            shutil.rmtree(p, ignore_errors=True)
        os.makedirs(tmp)
        try:
            save_state(tmp, state)
            save_modal(tmp, state)
            Path(tmp, META_FILE).write_text(
                f"time={state.time!r}\nstep={row.step}\nconfig_hash={sim.config_hash}\n"
                f"picard_iterations={row.picard_iterations!r}\n"
                f"picard_final_ratio={row.picard_final_ratio!r}\n", encoding="utf-8")
            if sim.config_echo:
                Path(tmp, ECHO_FILE).write_text(sim.config_echo, encoding="utf-8")
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        # os.replace cannot replace a non-empty directory: move the old one aside
        if os.path.exists(path):
            os.replace(path, old)
        os.replace(tmp, path)
        shutil.rmtree(old, ignore_errors=True)


def read_checkpoint(path) -> tuple:
    """(state, Picard report, config echo path) of the checkpoint directory
    ``path`` that ``RunRecorder`` wrote.  The report is the one the meta
    file kept, its iteration count and final ratio: 0 and 0.0 for a
    checkpoint written without them.  The echo path is where the echo
    would be; a run without a config writes none."""
    with open(os.path.join(path, META_FILE), encoding="utf-8") as fh:
        meta = dict(line.rstrip("\n").partition("=")[::2] for line in fh)
    report = PicardReport(ratios=[float(meta.get("picard_final_ratio", "0.0"))],
                          iterations=int(meta.get("picard_iterations", "0")))
    return load_state(path), report, os.path.join(path, ECHO_FILE)


def export_long(run_dir) -> str:
    """Write the diagnostics of the run directory ``run_dir`` beside them in
    long format, a (time, step, variable, value) line per value; return its path."""
    dst = os.path.join(run_dir, "diagnostics_long.csv")
    with open(os.path.join(run_dir, DIAGNOSTICS_FILE), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "step", "variable", "value"])
        w.writerows([row["time"], row["step"], col, val] for row in rows
                    for col, val in row.items() if col not in ("time", "step"))
    return dst
