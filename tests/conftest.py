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
