import numpy as np
import pytest

import moistflow as mf


@pytest.fixture(scope="session")
def grid8():
    return mf.make_grid(8, 8, 9)


@pytest.fixture(scope="session")
def grid16():
    return mf.make_grid(16, 16, 17)


@pytest.fixture(scope="session")
def bases8(grid8):
    return mf.make_bases(grid8)


@pytest.fixture(scope="session")
def bases16(grid16):
    return mf.make_bases(grid16)


@pytest.fixture(scope="session")
def nondim():
    return mf.PhysConstants.nondimensional()


def dealias_mask(basis):
    """The 2/3 rule on the modal grid of ``basis``, as a boolean array: the
    kx rows of ``kx_keep``, the leading ``ky_keep`` columns and the leading
    ``mz_keep`` rows."""
    nx, ny, nz = basis.grid.shape
    return (basis.kx_keep[:, None, None]
            & (np.arange(ny // 2 + 1) < basis.ky_keep)[None, :, None]
            & (np.arange(nz) < basis.mz_keep)[None, None, :])


def random_band_limited(grid, bases, kind="neumann_z", seed=0, max_mode=None):
    """Deterministic random field with modes below the dealiasing cutoff."""
    basis = bases.neumann if kind == "neumann_z" else bases.dirichlet
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.shape)
    if kind == "dirichlet_z":
        raw[:, :, 0] = 0.0
        raw[:, :, -1] = 0.0
    from moistflow.spectral_ops import to_modal_values, to_phys_values
    modal = to_modal_values(raw, basis) * dealias_mask(basis)
    if max_mode is not None:
        keep = ((np.abs(basis.kappa_x) <= np.pi * max_mode)
                & (np.abs(basis.kappa_y) <= np.pi * max_mode)
                & (basis.kappa_z <= np.pi * max_mode))
        modal = modal * keep
    return to_phys_values(modal, basis)


def clipped_rates(T, q_v, q_c, q_r, q_vs, constants) -> dict:
    """The clipped rates, formed as assemble_rhs forms them: source_values
    of the nonnegative parts of T, q_v, q_c and q_r, with the raw q_v and
    q_c for the nucleation and auto-conversion terms."""
    clipped = map(mf.positive_values, (T, q_v, q_c, q_r))
    return mf.source_values(*clipped, q_vs, constants, q_v, q_c)


def clipped_q_factors(q_v, q_c, q_r, constants) -> tuple:
    """The Q-factors of the nonnegative parts of the mixing ratios, as
    assemble_rhs forms them."""
    return mf.q_factor_values(*map(mf.positive_values, (q_v, q_c, q_r)), constants)


def kernel_outputs(mp, sim, hold=lambda a: a) -> dict:
    """Record, through the MonkeyPatch ``mp``, what the kernels of
    ``sim.assemble_rhs`` return from here on: the pressure as "p", q_vs as
    "q_vs", the Q-factors by their names and the rates by theirs.  Each
    array is stored as ``hold`` of it; Q_1 and Q_2 are plain numbers."""
    out = {}

    def keep(name, value):
        out[name] = hold(value) if isinstance(value, np.ndarray) else value

    def recorded(fn, store):
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            store(value)
            return value
        return wrapper

    mp.setattr(mf.solver, "pressure_values",
               recorded(mf.solver.pressure_values, lambda v: keep("p", v)))
    mp.setattr(sim, "closure", recorded(sim.closure, lambda v: keep("q_vs", v)))
    mp.setattr(mf.solver, "q_factor_values", recorded(
        mf.solver.q_factor_values,
        lambda v: [keep(n, x) for n, x in zip(("Q_m", "Q_th", "Q_cp", "Q_1", "Q_2"), v)]))
    mp.setattr(mf.solver, "source_values", recorded(
        mf.solver.source_values, lambda v: [keep(n, x) for n, x in v.items()]))
    return out
