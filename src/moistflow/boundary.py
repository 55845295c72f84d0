"""Robin-wall machinery: exponential lifting factors, the smooth cutoff,
the Fourier extension of boundary data, and homogenization of temperature
and mixing ratios.

A Robin condition dz F = alpha (F_b - F) at a wall becomes a homogeneous
Neumann condition for frak_F = B F - psi, where B = exp(A) with a quadratic
A(z) whose endpoint slopes reproduce the alpha coefficients, and psi is an
interior extension whose wall-normal derivative equals alpha B F_b exactly.
Factor construction is pure.  Factors and extensions fill caches on first
use, and an extension releases its deriv-0 profile once every accessor
built from it is cached, so they are not safe to share across threads
until those caches are full; each Simulation builds its own.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Mapping

import numpy as np

from . import spectral_ops as sp
from .fields import Grid, ScalarField

BOUNDARY_VARS = ("T", "v", "c", "r")


# ---------------------------------------------------------------------------
# Smooth cutoff: 1 on (0, 1/4], 0 on [3/4, 1), C-infinity transition between.
# ---------------------------------------------------------------------------

def _phi_all(s):
    """phi(s) = exp(-1/s) for s > 0 (0 otherwise) and its first two
    derivatives."""
    phi, d1, d2 = (np.zeros_like(s, dtype=float) for _ in range(3))
    pos = s > 0.0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        sp = s[pos]
        e = np.exp(-1.0 / sp)
        phi[pos] = e
        d1[pos] = e / sp**2
        d2[pos] = e * (1.0 / sp**4 - 2.0 / sp**3)
    return phi, d1, d2


def _chi0_all(z: np.ndarray):
    """chi0 and its first two z-derivatives; plateau values are exact."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("cutoff argument z must lie in [0, 1]")
    b = (0.75 - z) / 0.5
    p, p1, p2 = _phi_all(b)
    q, q1, q2 = _phi_all(1.0 - b)
    q1 = -q1
    den = p + q

    chi = np.ones_like(z)
    d1 = np.zeros_like(z)
    d2 = np.zeros_like(z)
    mid = (z > 0.25) & (z < 0.75)
    g = p[mid] / den[mid]
    gp = (p1[mid] * q[mid] - p[mid] * q1[mid]) / den[mid] ** 2
    gpp = ((p2[mid] * q[mid] - p[mid] * q2[mid]) / den[mid] ** 2
           - 2.0 * (p1[mid] * q[mid] - p[mid] * q1[mid])
           * (p1[mid] + q1[mid]) / den[mid] ** 3)
    chi[mid] = g
    d1[mid] = -2.0 * gp        # chain rule, db/dz = -2
    d2[mid] = 4.0 * gpp
    chi[z >= 0.75] = 0.0
    return chi, d1, d2


def cutoff_chi0(z):
    """The cutoff itself: 1 on (0, 1/4], 0 on [3/4, 1), smooth monotone
    decreasing in between (exp-based transition, fixed for reproducibility)."""
    scalar = np.isscalar(z)
    chi, _, _ = _chi0_all(np.atleast_1d(np.asarray(z, dtype=float)))
    return float(chi[0]) if scalar else chi


# ---------------------------------------------------------------------------
# Robin lifting profile A, B = exp(A).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobinProfile:
    """Quadratic lifting exponent A(z) = -(ab/2)(1-z)^2 + (at/2) z^2.

    Endpoint slopes are A'(0) = ab and A'(1) = at, which is what converts
    the Robin condition on F into a pure derivative condition on B F.
    """

    alpha_bottom: float
    alpha_top: float

    def A(self, z):
        z = np.asarray(z, dtype=float)
        return (-0.5 * self.alpha_bottom * (1.0 - z) ** 2
                + 0.5 * self.alpha_top * z ** 2)

    def A_prime(self, z):
        z = np.asarray(z, dtype=float)
        return self.alpha_bottom * (1.0 - z) + self.alpha_top * z

    @property
    def A_second(self) -> float:
        return self.alpha_top - self.alpha_bottom

    def B(self, z):
        return np.exp(self.A(z))

    def dzz_Binv_times_B(self, z):
        """(d2/dz2 of B^-1) * B = A'^2 - A''."""
        return self.A_prime(z) ** 2 - self.A_second


def robin_profile(alpha_bottom: float, alpha_top: float,
                  var: str = "") -> RobinProfile:
    """Build the lifting profile; validates the wall sign condition
    (alpha <= 0 at z=0, alpha >= 0 at z=1)."""
    label = f" for variable {var!r}" if var else ""
    if not alpha_bottom <= 0.0:
        raise ValueError(
            f"sign condition violated{label}: alpha_bottom must be <= 0 "
            f"at z=0, got {alpha_bottom}")
    if not alpha_top >= 0.0:
        raise ValueError(
            f"sign condition violated{label}: alpha_top must be >= 0 "
            f"at z=1, got {alpha_top}")
    return RobinProfile(float(alpha_bottom), float(alpha_top))


# ---------------------------------------------------------------------------
# Extension operator: boundary data -> interior field with exact wall slope.
# ---------------------------------------------------------------------------

class BoundaryExtension:
    """Interior extension of wall data pairs.

    Each horizontal Fourier mode k of the bottom data contributes
    -(beta/|k|) e^(i pi k.x) e^(-|k| z) (a linear beta z ramp for the mean
    mode); top data mirrors this with e^(-|k|(1-z)).  The two halves are
    blended with the cutoff, whose plateaus leave the wall-normal
    derivative at each wall exactly equal to that wall's data.  The decay
    rate is the integer magnitude |k| while phases carry pi k, following
    the construction convention; only the wall-derivative identity matters.

    Every array keeps only the axes its data vary along: the modal profiles
    and the accessors' values are built over the modes in ``kmag``, all
    (nx, ny) of them for data that vary along a wall, and the mean mode
    alone for data uniform along both walls, whose arrays are (1, 1, nz)
    z-profiles that broadcast against the grid.  Such an extension has zero
    x- and y-derivatives; callers skip them, and all terms of an extension
    that ``is_zero``, instead of adding arrays of zeros.
    """

    def __init__(self, grid: Grid, beta_bottom: np.ndarray, beta_top: np.ndarray):
        self.grid = grid
        self.beta_bottom = np.asarray(beta_bottom, dtype=complex)
        self.beta_top = np.asarray(beta_top, dtype=complex)
        if self.beta_bottom.shape != (grid.nx, grid.ny):
            raise ValueError("beta arrays must be (nx, ny) coefficient grids")
        self.is_zero = (not np.any(self.beta_bottom)) and (not np.any(self.beta_top))
        # data uniform along the walls hold the mean mode alone: the arrays
        # are then built over that mode, as (1, 1, nz) z-profiles
        self.varies_along_walls = any(np.any(b[1:]) or np.any(b[:, 1:])
                                      for b in (self.beta_bottom, self.beta_top))
        hx, hy = (grid.nx, grid.ny) if self.varies_along_walls else (1, 1)
        # the integer wavenumbers of the modes the arrays are built over
        self.k1 = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)[:hx]
        self.k2 = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny)[:hy]
        self.kmag = np.sqrt(self.k1[:, None] ** 2 + self.k2[None, :] ** 2)
        self._beta = (self.beta_bottom[:hx, :hy], self.beta_top[:hx, :hy])
        self._cache: dict = {}
        self._profile0 = None

    def _wall_profile(self, z, deriv, top):
        """One wall's modal profile, or its deriv-th z-derivative:
        -e^(-|k|z)/|k| at the bottom, e^(-|k|(1-z))/|k| at the top, and the
        ramp z for the mean mode of both, times the wall's coefficients."""
        km = self.kmag[:, :, None]
        signed_km = km if top else -km
        zz = z[None, None, :]
        with np.errstate(under="ignore"):
            decay = np.exp(-km * ((1.0 - zz) if top else zz))
        if deriv == 0:
            prof = np.where(km == 0.0, zz + 0j,
                            decay / np.where(km == 0.0, 1.0, signed_km))
        elif deriv == 1:
            prof = np.where(km == 0.0, 1.0 + 0j, decay)
        else:
            prof = np.where(km == 0.0, 0.0 + 0j, signed_km * decay)
        beta = self._beta[1] if top else self._beta[0]
        return beta[:, :, None] * prof

    def mode_profiles(self, z: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Complex modal profiles of the blended extension (or its z
        derivatives) on an arbitrary node set z, over the modes in ``kmag``."""
        z = np.asarray(z, dtype=float)
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0, 1, or 2")
        chi, chi1, chi2 = (c[None, None, :] for c in _chi0_all(z))
        # each wall's profiles are built where the sum needs them, so few
        # full-size temporaries are alive at once
        b, t = (functools.partial(self._wall_profile, z, top=top)
                for top in (False, True))
        if deriv == 0:
            return chi * b(0) + (1.0 - chi) * t(0)
        if deriv == 1:
            return chi1 * (b(0) - t(0)) + chi * b(1) + (1.0 - chi) * t(1)
        return (chi2 * (b(0) - t(0)) + 2.0 * chi1 * (b(1) - t(1))
                + chi * b(2) + (1.0 - chi) * t(2))

    # the accessors whose modal arrays are built from the deriv-0 profile
    _PROFILE0_KEYS = ("0", "dx", "dy", "lap")

    def _assemble(self, key: str) -> np.ndarray:
        if key in self._cache:
            return self._cache[key]
        z = self.grid.z
        if key in self._PROFILE0_KEYS and self._profile0 is None:
            self._profile0 = self.mode_profiles(z, 0)
        if key == "lap":
            modal = (self.mode_profiles(z, 2)
                     - (np.pi ** 2) * (self.kmag ** 2)[:, :, None] * self._profile0)
        elif key in ("dx", "dy"):
            kap = np.pi * (self.k1[:, None, None] if key == "dx" else self.k2[None, :, None])
            modal = 1j * kap * self._profile0
        elif key == "0":
            modal = self._profile0
        else:
            modal = self.mode_profiles(z, int(key))
        out = np.real(np.fft.ifft2(modal, axes=(0, 1), norm="forward"))
        self._cache[key] = out
        if all(k in self._cache for k in self._PROFILE0_KEYS):
            self._profile0 = None     # built once; no accessor needs it again
        return out

    def values(self) -> np.ndarray:
        return self._assemble("0")

    def dz_values(self) -> np.ndarray:
        return self._assemble("1")

    def dx_values(self) -> np.ndarray:
        return self._assemble("dx")

    def dy_values(self) -> np.ndarray:
        return self._assemble("dy")

    def laplacian_values(self) -> np.ndarray:
        """Analytic Laplacian (horizontal -pi^2 |k|^2 plus exact d2/dz2);
        the extension is not band-limited in z, so this avoids cosine-series
        truncation entirely."""
        return self._assemble("lap")


def _coefficients_from(data, grid: Grid) -> np.ndarray:
    """Normalize boundary data (scalar, coefficient array, or mode table)
    into an (nx, ny) coefficient grid."""
    beta = np.zeros((grid.nx, grid.ny), dtype=complex)
    if data is None:
        return beta
    if np.isscalar(data):
        beta[0, 0] = complex(data)
        return beta
    if isinstance(data, Mapping):
        for (k1, k2), amp in data.items():
            if abs(k1) > grid.nx // 2 or abs(k2) > grid.ny // 2:
                warnings.warn(f"boundary mode ({k1},{k2}) unresolvable on "
                              f"{grid.nx}x{grid.ny} grid; truncated")
                continue
            beta[k1 % grid.nx, k2 % grid.ny] += complex(amp)
        return beta
    arr = np.asarray(data)
    if arr.shape != (grid.nx, grid.ny):
        raise ValueError("boundary data array must be (nx, ny)")
    if np.isrealobj(arr):
        return np.fft.fft2(arr, norm="forward").astype(complex)
    return arr.astype(complex)


def build_extension(h_bottom, h_top, grid: Grid) -> BoundaryExtension:
    """Extension operator on coefficient/scalar/physical data; linear in
    (h_bottom, h_top)."""
    return BoundaryExtension(grid, _coefficients_from(h_bottom, grid),
                             _coefficients_from(h_top, grid))


# ---------------------------------------------------------------------------
# Per-variable boundary specification and homogenization factors.
# ---------------------------------------------------------------------------

@dataclass
class VariableBoundary:
    """Robin coefficients and data for one variable.  Data entries may be
    scalars, coefficient arrays, mode tables, or callables of time; the
    rate of callable data is the step's difference quotient (see
    ``build_factors``)."""

    alpha_bottom: float = 0.0
    alpha_top: float = 0.0
    data_bottom: object = 0.0
    data_top: object = 0.0

    @property
    def time_dependent(self) -> bool:
        return callable(self.data_bottom) or callable(self.data_top)


@dataclass
class BoundarySpec:
    """Robin data for temperature and the three mixing ratios."""

    variables: dict = dc_field(default_factory=lambda: {
        v: VariableBoundary() for v in BOUNDARY_VARS})

    def __getitem__(self, var: str) -> VariableBoundary:
        return self.variables[var]

    def validate(self):
        for var, vb in self.variables.items():
            robin_profile(vb.alpha_bottom, vb.alpha_top, var=var)

    @property
    def time_dependent(self) -> bool:
        return any(vb.time_dependent for vb in self.variables.values())


class HomogenizationFactors:
    """Everything the homogenized equations need for one variable: B and its
    logarithmic derivative on the grid, the psi extension (with analytic
    derivatives), and the psi time derivative.  What ``dehomogenized_modal``
    builds on first use is held here, so it lives as long as the factors."""

    def __init__(self, profile: RobinProfile, grid: Grid,
                 psi: BoundaryExtension, psi_rate: BoundaryExtension | None = None):
        self.grid = grid
        z = grid.z
        self.b_profile = profile.B(z)[None, None, :]
        self.binv_profile = 1.0 / self.b_profile
        self.dz_log_b = profile.A_prime(z)[None, None, :]
        self.dzz_binv_b = profile.dzz_Binv_times_B(z)[None, None, :]
        self.psi = psi
        self.psi_rate = psi_rate
        self._binv_modal = None

    def dehomogenized_modal(self, modal: np.ndarray, basis: sp.Basis) -> np.ndarray:
        """The coefficients of B^-1 (frak_F + psi) in the cosine ``basis``,
        from the coefficients ``modal`` of frak_F, with no transform of the
        field: B^-1 depends on z alone, so F(B^-1 frak_F) is ``modal`` times
        the (nz, nz) matrix z_inv diag(B^-1) z_fwd along z.  F(B^-1 psi)
        (nothing for a zero psi) is added; it and the matrix are formed on
        the first call.  Of F(B^-1 psi) only the (kx, ky) = (0, 0) column is
        kept when the rest is exactly 0, as it is for a z-profile psi unless
        nx has a prime factor above 3, whose x-FFT of a constant leaves
        rounding in the other columns.  For representable ``modal``, this
        equals the forward transform of ``dehomogenize``'s values to
        rounding.  ``modal`` may be the whole array or a leading
        (nky, nmz) extent of it, which takes the leading nmz rows of the
        matrix; the result has all nz rows, on the larger ky extent of
        ``modal`` and F(B^-1 psi)."""
        if self._binv_modal is None:
            binv = self.binv_profile[0, 0]
            psi = None
            if not self.psi.is_zero:
                psi = sp.to_modal_values(np.broadcast_to(
                    self.binv_profile * self.psi.values(), self.grid.shape), basis)
                if not (np.any(psi[1:]) or np.any(psi[:, 1:])):
                    psi = psi[:1, :1].copy()
            self._binv_modal = ((basis.z_inv * binv) @ basis.z_fwd, psi)
        mat, psi = self._binv_modal
        nmz = modal.shape[2]
        out = (modal.reshape(-1, nmz) @ mat[:nmz]).reshape(*modal.shape[:2], -1)
        return out if psi is None else sp.extent_sum(out, psi)


def _eval_data(data, t: float):
    return data(t) if callable(data) else data


def build_factors(spec: BoundarySpec, grid: Grid, t: float = 0.0,
                  dt: float | None = None) -> dict:
    """Build homogenization factors for every variable at time t.

    psi is the extension of alpha * exp(A) * F_b per wall.  For
    time-dependent data, psi_t is (psi(t + dt) - psi(t)) / dt (dt
    required): the rate that makes a step's update of frak_F = B F - psi
    equal to its update of B F.  Static data have no psi_t.
    """
    factors = {}
    for var, vb in spec.variables.items():
        prof = robin_profile(vb.alpha_bottom, vb.alpha_top, var=var)
        scale_b = vb.alpha_bottom * float(prof.B(0.0))
        scale_t = vb.alpha_top * float(prof.B(1.0))

        def lifted(bottom_data, top_data):
            beta_b = scale_b * _coefficients_from(bottom_data, grid)
            beta_t = scale_t * _coefficients_from(top_data, grid)
            return BoundaryExtension(grid, beta_b, beta_t)

        psi = lifted(_eval_data(vb.data_bottom, t), _eval_data(vb.data_top, t))
        psi_rate = None
        if vb.time_dependent:
            if dt is None or dt <= 0.0:
                raise ValueError("time-dependent boundary data requires dt for "
                                 "the finite-difference psi rate")
            psi_next = lifted(_eval_data(vb.data_bottom, t + dt),
                              _eval_data(vb.data_top, t + dt))
            psi_rate = BoundaryExtension(
                grid, (1.0 / dt) * (psi_next.beta_bottom - psi.beta_bottom),
                (1.0 / dt) * (psi_next.beta_top - psi.beta_top))
        factors[var] = HomogenizationFactors(prof, grid, psi, psi_rate)
    return factors


def homogenize(F: ScalarField, factors: HomogenizationFactors) -> ScalarField:
    """frak_F = B F - psi."""
    if F.grid != factors.grid:
        raise ValueError("field grid does not match homogenization factors")
    out = factors.b_profile * F.values
    if not factors.psi.is_zero:
        out -= factors.psi.values()
    return ScalarField(F.grid, out)


def dehomogenize(frak_F: ScalarField, factors: HomogenizationFactors) -> ScalarField:
    """Exact inverse F = B^-1 (frak_F + psi)."""
    if frak_F.grid != factors.grid:
        raise ValueError("field grid does not match homogenization factors")
    if factors.psi.is_zero:
        return ScalarField(frak_F.grid, factors.binv_profile * frak_F.values)
    return ScalarField(frak_F.grid,
                       factors.binv_profile * (frak_F.values + factors.psi.values()))


# ---------------------------------------------------------------------------
# Trace-norm bound check for the extension.
# ---------------------------------------------------------------------------

@dataclass
class TraceEntry:
    norm_psi: float
    norm_data: float
    ratio: float


def _boundary_norm_sq(beta_b: np.ndarray, beta_t: np.ndarray, s: int) -> float:
    nx, ny = beta_b.shape
    k1 = np.fft.fftfreq(nx, d=1.0 / nx)
    k2 = np.fft.fftfreq(ny, d=1.0 / ny)
    w = (1.0 + np.pi ** 2 * (k1[:, None] ** 2 + k2[None, :] ** 2)) ** s
    return 4.0 * float(np.sum(w * (np.abs(beta_b) ** 2 + np.abs(beta_t) ** 2)))


def _psi_integer_norms(ext: BoundaryExtension):
    """(H1, H2) norms of the extension from analytic derivative profiles on
    a Simpson quadrature grid 4 times finer in z than the grid's."""
    g = ext.grid
    nfine = 4 * (g.nz - 1) + 1
    z = np.linspace(0.0, 1.0, nfine)
    h = z[1] - z[0]
    w = np.ones(nfine)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0

    f0 = ext.mode_profiles(z, 0)
    f1 = ext.mode_profiles(z, 1)
    f2 = ext.mode_profiles(z, 2)
    i0 = np.sum(np.abs(f0) ** 2 * w, axis=2)
    i1 = np.sum(np.abs(f1) ** 2 * w, axis=2)
    i2 = np.sum(np.abs(f2) ** 2 * w, axis=2)

    k1 = np.pi * ext.k1[:, None]
    k2 = np.pi * ext.k2[None, :]
    ksq = k1 ** 2 + k2 ** 2
    l2_sq = 4.0 * np.sum(i0)
    h1_sq = l2_sq + 4.0 * np.sum(ksq * i0 + i1)
    h2_sq = h1_sq + 4.0 * np.sum(
        (k1 ** 4 + k2 ** 4 + k1 ** 2 * k2 ** 2) * i0 + ksq * i1 + i2)
    return np.sqrt(h1_sq), np.sqrt(h2_sq)


def trace_norm_check(psi: BoundaryExtension, h_bottom, h_top) -> dict:
    """Empirical constants in the trace-lifting bound: the ratio of the
    extension's H^(s+3/2) norm to the data's H^s boundary norm, as a
    ``TraceEntry`` for each s in {0, 1}.

    Half-integer norms are the empirical functionals
    H^(3/2) = sqrt(H1 * H2) and H^(5/2) = H2 * sqrt(H2 / H1) (log-linear
    interpolation/extrapolation in the order); the report is meant for
    finiteness and resolution-stability checks, not sharp constants.
    """
    g = psi.grid
    beta_b = _coefficients_from(h_bottom, g)
    beta_t = _coefficients_from(h_top, g)
    psi_norm = {0: 0.0, 1: 0.0}
    if not psi.is_zero:
        h1, h2 = _psi_integer_norms(psi)
        psi_norm = {0: np.sqrt(h1 * h2), 1: h2 * np.sqrt(h2 / h1)}
    entries = {}
    for s in (0, 1):
        nd = np.sqrt(_boundary_norm_sq(beta_b, beta_t, s))
        ratio = psi_norm[s] / nd if nd > 0.0 else 0.0
        entries[s] = TraceEntry(float(psi_norm[s]), float(nd), float(ratio))
    return entries
