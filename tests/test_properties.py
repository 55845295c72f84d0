"""Property tests over generated inputs: sign and bound statements of the
clipped physics kernels, the water-exchange telescoping bound of acceptance
criterion 03, raw/clipped agreement on nonnegative inputs, and the spectral
transform round trip."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import moistflow as mf
from moistflow import spectral_ops as sp
from moistflow.microphysics import source_values
from moistflow.thermo import q_factor_values

C = mf.PhysConstants.nondimensional()
GRID = mf.make_grid(4, 4, 4)
RATES = ("S_ev", "S_cd", "S_ac", "S_cr")
# both bases on an even-nz and an odd-nz grid (nx/2 and ny/2 odd on the second)
BASES = [basis for g in (mf.make_grid(4, 6, 4), mf.make_grid(6, 10, 7))
         for basis in (sp.make_bases(g).neumann, sp.make_bases(g).dirichlet)]

# derandomized, so every run draws the same examples; no example database
kernel_settings = settings(derandomize=True, database=None, deadline=None,
                           max_examples=100)


def values(lo, hi, shape=(16,)):
    return arrays(np.float64, shape, elements=st.floats(lo, hi))


@kernel_settings
@given(T=values(-3.0, 3.0), qv=values(-1.0, 1.0), qc=values(-1.0, 1.0),
       qr=values(-1.0, 1.0), qvs=values(0.0, C.q_vs_star))
def test_clipped_rates_nonnegative(T, qv, qc, qr, qvs):
    S = source_values(T, qv, qc, qr, qvs, C, clipped=True)
    for name in ("S_ev", "S_ac", "S_cr"):
        assert np.all(S[name] >= 0.0), name


@kernel_settings
@given(qv=values(-1e6, 1e6), qc=values(-1e6, 1e6), qr=values(-1e6, 1e6))
def test_clipped_mass_factor_at_least_one(qv, qc, qr):
    Q_m = q_factor_values(qv, qc, qr, C, clipped=True)[0]
    assert np.all(Q_m >= 1.0)


@kernel_settings
@given(T=values(-3.0, 3.0, GRID.shape), qv=values(-1.0, 1.0, GRID.shape),
       qc=values(-1.0, 1.0, GRID.shape), qr=values(-1.0, 1.0, GRID.shape),
       qvs=values(0.0, C.q_vs_star, GRID.shape))
def test_water_exchange_residual_within_four_ulp(T, qv, qc, qr, qvs):
    f = [mf.ScalarField(GRID, a) for a in (T, qv, qc, qr, qvs)]
    b = mf.sources(*f, C, clipped=True)
    res = np.abs(mf.water_exchange_residual(b).values)
    scale = np.maximum.reduce([np.abs(getattr(b, n).values) for n in RATES]
                              + [np.full(GRID.shape, 1e-300)])
    assert np.all(res <= 4.0 * np.finfo(float).eps * scale)


@kernel_settings
@given(T=values(0.0, 3.0), qv=values(0.0, 1.0), qc=values(0.0, 1.0),
       qr=values(0.0, 1.0), qvs=values(0.0, C.q_vs_star))
def test_raw_equals_clipped_on_nonnegative_inputs(T, qv, qc, qr, qvs):
    raw = source_values(T, qv, qc, qr, qvs, C, clipped=False)
    clipped = source_values(T, qv, qc, qr, qvs, C, clipped=True)
    for name in RATES:
        assert np.array_equal(raw[name], clipped[name]), name
    for a, b in zip(q_factor_values(qv, qc, qr, C, clipped=False),
                    q_factor_values(qv, qc, qr, C, clipped=True)):
        assert np.array_equal(a, b)


@kernel_settings
@given(basis=st.sampled_from(BASES), data=st.data())
def test_transform_round_trip_is_representable_projection(basis, data):
    g = basis.grid
    shape = (g.nx, g.ny // 2 + 1, g.nz)
    M = data.draw(values(-1.0, 1.0, shape)) + 1j * data.draw(values(-1.0, 1.0, shape))
    back = sp.to_modal_values(sp.to_phys_values(M, basis), basis)
    assert np.max(np.abs(back - sp.representable(M, basis))) <= 1e-13
