"""Property tests over generated inputs: sign and bound statements of the
clipped physics kernels, the water-exchange telescoping bound of acceptance
criterion 03, raw/clipped agreement on nonnegative inputs, and the spectral
transform round trip, the homogenize/dehomogenize round trip, and the
water-exchange bound on the rates the solver builds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import moistflow as mf
from moistflow import spectral_ops as sp
from moistflow.diagnostics import with_coefficients

from conftest import clipped_q_factors, clipped_rates, kernel_outputs

C = mf.PhysConstants.nondimensional()
GRID = mf.make_grid(4, 4, 4)
RATES = ("S_ev", "S_cd", "S_ac", "S_cr")
# both bases on an even-nz and an odd-nz grid (nx/2 and ny/2 odd on the second)
BASES = [basis for g in (mf.make_grid(4, 6, 4), mf.make_grid(6, 10, 7))
         for basis in (sp.make_bases(g).neumann, sp.make_bases(g).dirichlet)]

# Robin walls (alpha = -1, 1 on every variable) of the saturated layer
ROBIN_GRID = mf.make_grid(8, 8, 9)
LAYER, _LAYER_SPEC = mf.preset_initial("saturated_layer", ROBIN_GRID, C)
ROBIN_FACTORS = mf.build_factors(_LAYER_SPEC, ROBIN_GRID)
LAYER_SIM = mf.Simulation(ROBIN_GRID, C, _LAYER_SPEC,
                          mf.SolverConfig(dt=1e-3, t_end=1e-2, mode="direct"))
EPS = np.finfo(float).eps

# derandomized, so every run draws the same examples; no example database
kernel_settings = settings(derandomize=True, database=None, deadline=None,
                           max_examples=100)


def values(lo, hi, shape=GRID.shape):
    return arrays(np.float64, shape, elements=st.floats(lo, hi))


@kernel_settings
@given(T=values(-3.0, 3.0), qv=values(-1.0, 1.0), qc=values(-1.0, 1.0),
       qr=values(-1.0, 1.0), qvs=values(0.0, C.q_vs_star))
def test_clipped_rates_nonnegative(T, qv, qc, qr, qvs):
    S = clipped_rates(T, qv, qc, qr, qvs, C)
    for name in ("S_ev", "S_ac", "S_cr"):
        assert np.all(S[name] >= 0.0), name


@kernel_settings
@given(qv=values(-1e6, 1e6), qc=values(-1e6, 1e6), qr=values(-1e6, 1e6))
def test_clipped_mass_factor_at_least_one(qv, qc, qr):
    Q_m = clipped_q_factors(qv, qc, qr, C)[0]
    assert np.all(Q_m >= 1.0)


@kernel_settings
@given(T=values(-3.0, 3.0), qv=values(-1.0, 1.0), qc=values(-1.0, 1.0),
       qr=values(-1.0, 1.0), qvs=values(0.0, C.q_vs_star))
def test_water_exchange_residual_within_four_ulp(T, qv, qc, qr, qvs):
    b = clipped_rates(T, qv, qc, qr, qvs, C)
    res = np.abs(mf.water_exchange_residual(b))
    scale = np.maximum.reduce([np.abs(b[n]) for n in RATES]
                              + [np.full(GRID.shape, 1e-300)])
    assert np.all(res <= 4.0 * np.finfo(float).eps * scale)


@kernel_settings
@given(T=values(0.0, 3.0), qv=values(0.0, 1.0), qc=values(0.0, 1.0),
       qr=values(0.0, 1.0), qvs=values(0.0, C.q_vs_star))
def test_raw_equals_clipped_on_nonnegative_inputs(T, qv, qc, qr, qvs):
    raw = mf.source_values(T, qv, qc, qr, qvs, C, qv, qc)
    clipped = clipped_rates(T, qv, qc, qr, qvs, C)
    for name in RATES:
        assert np.array_equal(raw[name], clipped[name]), name
    raw = mf.q_factor_values(qv, qc, qr, C)
    clipped = clipped_q_factors(qv, qc, qr, C)
    for a, b in zip(raw[:3], clipped[:3]):
        assert np.array_equal(a, b)
    assert raw[3:] == clipped[3:]


@kernel_settings
@given(basis=st.sampled_from(BASES), data=st.data())
def test_transform_round_trip_is_representable_projection(basis, data):
    g = basis.grid
    shape = (g.nx, g.ny // 2 + 1, g.nz)
    M = data.draw(values(-1.0, 1.0, shape)) + 1j * data.draw(values(-1.0, 1.0, shape))
    back = sp.to_modal_values(sp.to_phys_values(M, basis), basis)
    assert np.max(np.abs(back - sp.representable(M, basis))) <= 1e-13


@kernel_settings
@given(var=st.sampled_from(sorted(ROBIN_FACTORS)), data=st.data())
def test_homogenize_round_trip(var, data):
    """dehomogenize(homogenize(F)) = F and the reverse, to within the
    rounding of the B multiply, the psi shift and the B^-1 multiply (an
    absolute few subnormal spacings where F is subnormal)."""
    fac = ROBIN_FACTORS[var]
    F = data.draw(values(-10.0, 10.0, ROBIN_GRID.shape))
    floor = 8.0 * np.finfo(float).smallest_subnormal
    back = mf.dehomogenize(mf.homogenize(mf.ScalarField(ROBIN_GRID, F), fac), fac)
    scale = np.abs(F) + np.abs(fac.binv_profile * fac.psi.values())
    assert np.all(np.abs(back.values - F) <= 8.0 * EPS * scale + floor)
    frak = mf.homogenize(mf.dehomogenize(mf.ScalarField(ROBIN_GRID, F), fac), fac)
    scale = np.abs(F) + np.abs(fac.psi.values())
    assert np.all(np.abs(frak.values - F) <= 8.0 * EPS * scale + floor)


@settings(kernel_settings, max_examples=25)
@given(name=st.sampled_from(("frak_T", "frak_q_v", "frak_q_c", "frak_q_r")),
       amplitude=st.floats(0.0, 1e-2), seed=st.integers(0, 2**16))
def test_solver_water_exchange_within_four_ulp(name, amplitude, seed):
    """Criterion 03's bound on the phase-change rates assemble_rhs builds
    (what its source_values call returns) from a perturbed saturated layer;
    the moisture right-hand sides carry exactly these exchange terms (their
    "sources")."""
    state = with_coefficients(mf.perturb_state(LAYER, LAYER_SIM.bases, field=name,
                                               amplitude=amplitude, seed=seed),
                              LAYER_SIM.bases)
    factors = LAYER_SIM.factors_at(state.time, LAYER_SIM.config.dt)
    terms = {}
    with pytest.MonkeyPatch.context() as mp:
        S = kernel_outputs(mp, LAYER_SIM)
        LAYER_SIM.assemble_rhs(state, factors, state.time + LAYER_SIM.config.dt,
                               LAYER_SIM._frozen_velocity(state), terms)
    exchange = {"vapor": S["S_ev"] - S["S_cd"],
                "cloud": S["S_cd"] - S["S_ac"] - S["S_cr"],
                "rain": S["S_ac"] + S["S_cr"] - S["S_ev"]}
    for eq, var in (("vapor", "v"), ("cloud", "c"), ("rain", "r")):
        assert np.array_equal(terms[eq]["sources"],
                              factors[var].b_profile * exchange[eq]), eq
    res = np.abs(exchange["vapor"] + exchange["cloud"] + exchange["rain"])
    scale = np.maximum.reduce([np.abs(S[n]) for n in RATES]
                              + [np.full(ROBIN_GRID.shape, 1e-300)])
    assert np.all(res <= 4.0 * EPS * scale)
    assert np.any(S["S_cd"] != 0.0) and np.any(S["S_cr"] != 0.0)
