"""Grid, field containers, physical constants, and the prognostic state.

The computational domain is a horizontally periodic box of period 2 in x
and y with a wall-bounded vertical channel (0, 1).  Fields are stored as
C-ordered ``(nx, ny, nz)`` float64 arrays, so z is the fastest-varying
index.  Vertical nodes are uniformly spaced and include both walls, which
makes boundary traces plain array reads (``values[:, :, 0]`` and
``values[:, :, -1]``) and matches the collocation points of the vertical
cosine/sine series used throughout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

import numpy as np

SNAPSHOT_MAGIC = "MOISTFLOW1"


@dataclass(frozen=True)
class PhysConstants:
    """Model constants.

    Defaults are standard-atmosphere magnitudes so that test regimes stay
    physically plausible; they are configuration, not ground truth, and
    every value can be overridden (see the config schema in the cli
    module).  ``nondimensional()`` gives an O(1) set used by the desk-scale
    verification scenarios.
    """

    R_d: float = 287.0          # dry-air gas constant [J/(kg K)]
    R_v: float = 461.5          # water-vapor gas constant [J/(kg K)]
    c_pd: float = 1004.0        # dry-air heat capacity [J/(kg K)]
    c_pv: float = 1885.0        # vapor heat capacity [J/(kg K)]
    c_l: float = 4186.0         # liquid-water heat capacity [J/(kg K)]
    c_ev: float = 1.0           # rain evaporation rate constant
    c_cd: float = 1.0           # condensation rate constant
    c_cn: float = 1.0           # cloud nucleation rate constant
    c_ac: float = 1.0           # auto-conversion rate constant
    c_cr: float = 1.0           # collection rate constant
    p_ref: float = 1.0e5        # reference pressure [Pa]
    L_ref: float = 2.5e6        # reference latent heat [J/kg]
    T_ref: float = 273.15       # reference temperature [K]
    q_vs_star: float = 0.04     # saturation mixing-ratio cap
    q_ac: float = 1.0e-3        # auto-conversion threshold
    q_cn: float = 1.0e-3        # nucleation mixing-ratio constant
    mu: float = 1.0             # shear viscosity [Pa s]
    lam: float = 0.0            # bulk viscosity [Pa s]
    kappa: float = 1.0          # heat conductivity
    g: float = 9.81             # gravity [m/s^2]

    def __post_init__(self):
        rates = {
            "R_d": self.R_d, "R_v": self.R_v, "c_pd": self.c_pd,
            "c_pv": self.c_pv, "c_l": self.c_l, "c_ev": self.c_ev,
            "c_cd": self.c_cd, "c_cn": self.c_cn, "c_ac": self.c_ac,
            "c_cr": self.c_cr, "p_ref": self.p_ref, "L_ref": self.L_ref,
            "T_ref": self.T_ref, "q_ac": self.q_ac, "q_cn": self.q_cn,
        }
        for name, value in rates.items():
            if not value > 0.0:
                raise ValueError(f"constant {name} must be positive, got {value}")
        if not self.c_pd > self.R_d:
            raise ValueError("c_pd must exceed R_d (gamma > 1 required)")
        if not self.mu > 0.0:
            raise ValueError("shear viscosity mu must be positive")
        if not 2.0 * self.mu + 3.0 * self.lam > 0.0:
            raise ValueError("bulk viscosity condition 2*mu + 3*lambda > 0 violated")
        if not self.kappa > 0.0:
            raise ValueError("heat conductivity kappa must be positive")
        if self.q_vs_star < 0.0:
            raise ValueError("q_vs_star must be nonnegative")
        if self.g < 0.0:
            raise ValueError("gravity g must be nonnegative")

    @property
    def gamma(self) -> float:
        return self.c_pd / (self.c_pd - self.R_d)

    @classmethod
    def nondimensional(cls, **overrides) -> "PhysConstants":
        """O(1) constant set for desk-scale verification runs.

        Sound speed, gravity, and reference state are all order one, so
        explicit pressure coupling is stable at dt ~ 1e-3 on coarse grids.
        """
        base = dict(
            R_d=1.0, R_v=1.6, c_pd=3.5, c_pv=4.4, c_l=8.0,
            c_ev=1.0, c_cd=1.0, c_cn=1.0, c_ac=1.0, c_cr=1.0,
            p_ref=1.0, L_ref=2.5, T_ref=1.0,
            q_vs_star=0.04, q_ac=1.0e-3, q_cn=1.0e-3,
            mu=0.05, lam=0.0, kappa=0.05, g=1.0,
        )
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class Grid:
    """Uniform collocation grid for the channel 2T^2 x (0, 1)."""

    nx: int
    ny: int
    nz: int
    x: np.ndarray = dc_field(repr=False, compare=False, default=None)
    y: np.ndarray = dc_field(repr=False, compare=False, default=None)
    z: np.ndarray = dc_field(repr=False, compare=False, default=None)

    PERIOD: float = dc_field(default=2.0, init=False, repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.PERIOD / self.nx

    @property
    def dy(self) -> float:
        return self.PERIOD / self.ny

    @property
    def dz_spacing(self) -> float:
        return 1.0 / (self.nz - 1)

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny, self.nz)

    @property
    def volume(self) -> float:
        return self.PERIOD * self.PERIOD * 1.0

    def quad_weights(self) -> np.ndarray:
        """Volume quadrature weights, trapezoidal in z, shape (1, 1, nz)."""
        wz = np.full(self.nz, self.dz_spacing)
        wz[0] *= 0.5
        wz[-1] *= 0.5
        return (self.dx * self.dy * wz)[None, None, :]


def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """Build the collocation grid.

    nx, ny must be even and >= 4 (Fourier in x, y with period 2); nz >= 4
    (vertical cosine/sine nodes, walls included).
    """
    for name, n in (("nx", nx), ("ny", ny)):
        if n < 4 or n % 2 != 0:
            raise ValueError(f"{name} must be even and >= 4, got {n}")
    if nz < 4:
        raise ValueError(f"nz must be >= 4, got {nz}")
    x = np.arange(nx) * (2.0 / nx)
    y = np.arange(ny) * (2.0 / ny)
    z = np.arange(nz) / (nz - 1)
    return Grid(nx=nx, ny=ny, nz=nz, x=x, y=y, z=z)


@dataclass
class ScalarField:
    """A scalar field on one grid: a real ``(nx, ny, nz)`` array of values
    at the collocation points."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"field shape {self.values.shape} does not match "
                             f"grid shape {self.grid.shape}")

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid=grid, values=np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid=grid, values=np.zeros(grid.shape))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Velocity-like field: horizontal components v1, v2 and vertical w."""

    v1: ScalarField
    v2: ScalarField
    w: ScalarField

    def __post_init__(self):
        if not (self.v1.grid is self.v2.grid is self.w.grid or
                self.v1.grid == self.v2.grid == self.w.grid):
            raise ValueError("vector components must share one grid")

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid), ScalarField.zeros(grid))

    @property
    def grid(self) -> Grid:
        return self.v1.grid

    def components(self):
        return (self.v1, self.v2, self.w)

    def copy(self) -> "VectorField":
        return VectorField(self.v1.copy(), self.v2.copy(), self.w.copy())


def check_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and f.grid != grid:
            raise ValueError("fields are not on the same grid")
    return grid


def positive_values(a: np.ndarray) -> np.ndarray:
    """Pointwise a+ = max(a, 0), in one pass: exact, +0.0 for -0.0, NaN for
    NaN and +inf for +inf."""
    return np.maximum(a, 0.0)


def positive_part(f: ScalarField) -> ScalarField:
    """Pointwise f+ (see positive_values)."""
    return ScalarField(f.grid, positive_values(f.values))


def negative_part(f: ScalarField) -> ScalarField:
    """Pointwise f- = (|f| - f)/2, so f+ - f- = f and f+ * f- = 0."""
    return ScalarField(f.grid, (np.abs(f.values) - f.values) * 0.5)


@dataclass
class State:
    """Prognostic fields at one time level.

    Density is stored as log rho_d so positivity of rho_d is structural.
    Temperature and mixing ratios are stored in homogenized form (frak_*),
    i.e. after the B*F - psi change of variables that turns the Robin wall
    conditions into homogeneous Neumann ones.

    ``modal`` is None, or the modal coefficients of the fields keyed as
    ``MODAL_NAMES``, equal to their forward transforms up to rounding.  Only
    the solver, ``load_state`` and ``diagnostics.with_coefficients`` attach
    them; a state built any other way (``copy``, ``dataclasses.replace``)
    has none, and assigning a field drops them.  Changing a field's values
    in place would leave them stale.
    """

    log_rho_d: ScalarField
    u: VectorField
    frak_T: ScalarField
    frak_q_v: ScalarField
    frak_q_c: ScalarField
    frak_q_r: ScalarField
    time: float = 0.0
    modal: dict = dc_field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name != "modal":
            object.__setattr__(self, "modal", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        check_same_grid(self.log_rho_d, self.u.v1, self.u.v2, self.u.w,
                        self.frak_T, self.frak_q_v, self.frak_q_c, self.frak_q_r)
        if not np.all(np.isfinite(self.log_rho_d.values)):
            raise FloatingPointError("log_rho_d contains non-finite values")
        if self.time < 0.0:
            raise ValueError("state time must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.log_rho_d.grid

    def copy(self) -> "State":
        return State(self.log_rho_d.copy(), self.u.copy(), self.frak_T.copy(),
                     self.frak_q_v.copy(), self.frak_q_c.copy(),
                     self.frak_q_r.copy(), self.time)


def rho_d(state: State) -> ScalarField:
    """Dry-air density exp(log rho_d); strictly positive by construction."""
    vals = state.log_rho_d.values
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("log_rho_d contains non-finite values")
    return ScalarField(state.grid, np.exp(vals))


# ---------------------------------------------------------------------------
# Snapshot format: one field per file, UTF-8 text header then raw float64.
# ---------------------------------------------------------------------------

STATE_FIELD_NAMES = ("log_rho_d", "u_x", "u_y", "u_z",
                     "frak_T", "frak_q_v", "frak_q_c", "frak_q_r")
# keys of State.modal: the variables the solver iterates, then log rho_d
MODAL_NAMES = ("u1", "u2", "w", "T", "qv", "qc", "qr", "log_rho_d")
MODAL_FILE = "modal.npz"


def save_field(path, f: ScalarField, name: str, time: float) -> None:
    """Write a physical field: header 'MOISTFLOW1 nx ny nz time name' then
    little-endian float64 values, z-fastest."""
    if " " in name or "\n" in name:
        raise ValueError("field name must be a single token")
    g = f.grid
    header = f"{SNAPSHOT_MAGIC} {g.nx} {g.ny} {g.nz} {time!r} {name}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path, grid: Grid | None = None):
    """Read a snapshot file; returns (ScalarField, name, time)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
        parts = header.split()
        if len(parts) != 6 or parts[0] != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
        nx, ny, nz = int(parts[1]), int(parts[2]), int(parts[3])
        time = float(parts[4])
        name = parts[5]
        raw = fh.read(nx * ny * nz * 8)
        if len(raw) != nx * ny * nz * 8:
            raise ValueError(f"{path}: truncated snapshot payload")
        vals = np.frombuffer(raw, dtype="<f8").reshape(nx, ny, nz).copy()
    if grid is None:
        grid = make_grid(nx, ny, nz)
    elif (grid.nx, grid.ny, grid.nz) != (nx, ny, nz):
        raise ValueError(f"{path}: snapshot grid {nx}x{ny}x{nz} does not match")
    return ScalarField(grid, vals), name, time


def save_state(dirpath, state: State) -> None:
    """Write all prognostic fields of a state into a directory."""
    os.makedirs(dirpath, exist_ok=True)
    fields = (state.log_rho_d, state.u.v1, state.u.v2, state.u.w,
              state.frak_T, state.frak_q_v, state.frak_q_c, state.frak_q_r)
    for name, f in zip(STATE_FIELD_NAMES, fields):
        save_field(os.path.join(dirpath, name + ".dat"), f, name, state.time)


def save_modal(dirpath, state: State) -> None:
    """Write the coefficients a state carries into ``modal.npz`` next to its
    fields, with the state's time and grid shape.  The state must carry
    them: every state a run checkpoints does."""
    with open(os.path.join(dirpath, MODAL_FILE), "wb") as fh:
        np.savez(fh, time=np.float64(state.time), grid=np.array(state.grid.shape),
                 **state.modal)


def _load_modal(path, time: float, grid: Grid) -> dict:
    with np.load(path) as npz:
        t, shape = float(npz["time"]), tuple(int(n) for n in npz["grid"])
        if t != time:
            raise ValueError(f"{path}: coefficients have time {t!r}, but the "
                             f"fields have time {time!r}")
        if shape != grid.shape:
            raise ValueError(f"{path}: coefficients of grid {shape} do not "
                             f"match the fields' grid {grid.shape}")
        want = (grid.nx, grid.ny // 2 + 1, grid.nz)
        modal = {}
        for name in MODAL_NAMES:
            if name not in npz.files:
                raise ValueError(f"{path}: no coefficients {name!r}")
            a = modal[name] = npz[name]
            if a.shape != want or not np.iscomplexobj(a):
                raise ValueError(f"{path}: coefficients {name!r} are {a.dtype} of "
                                 f"shape {a.shape}, not complex of shape {want}")
        return modal


def load_state(dirpath, grid: Grid | None = None) -> State:
    """Read the fields that save_state wrote; all eight must carry the same
    time, so that a directory mixing two states is rejected.  The
    coefficients that save_modal wrote are restored when present; their
    time and grid must be the fields'."""
    loaded = {}
    time = None
    for name in STATE_FIELD_NAMES:
        f, fname, t = load_field(os.path.join(dirpath, name + ".dat"), grid)
        if fname != name:
            raise ValueError(f"checkpoint field name mismatch: {fname} != {name}")
        if time is None:
            time = t
        elif t != time:
            raise ValueError(f"{dirpath}: field {name} has time {t!r}, but "
                             f"{STATE_FIELD_NAMES[0]} has time {time!r}")
        grid = f.grid
        loaded[name] = f
    u = VectorField(loaded["u_x"], loaded["u_y"], loaded["u_z"])
    state = State(loaded["log_rho_d"], u, loaded["frak_T"],
                  loaded["frak_q_v"], loaded["frak_q_c"], loaded["frak_q_r"], time)
    path = os.path.join(dirpath, MODAL_FILE)
    if os.path.exists(path):
        state.modal = _load_modal(path, time, grid)
    return state
