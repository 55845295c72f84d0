"""Warm-rain microphysics: rates, clipping, and the internal water budget.

Evaporation turns rain back into vapor, condensation moves vapor to cloud,
auto-conversion and collection move cloud to rain.  The clipped rates used
by the time stepper coincide with the raw ones on physical (nonnegative)
inputs, and the three phase-change right-hand sides always sum to zero.
"""

import numpy as np

import moistflow as mf

const = mf.PhysConstants.nondimensional()
grid = mf.make_grid(16, 16, 17)
closure = mf.SaturationClosure(const)

Z = grid.z[None, None, :]
ones = np.ones(grid.shape)
T = (1.0 + 0.02 * np.cos(np.pi * Z)) * ones
rho = np.exp(-0.3 * Z) * ones
qv = 0.022 * np.sin(np.pi * Z) ** 2 * ones
qc = 0.002 * np.sin(np.pi * Z) ** 2 * ones
qr = 0.001 * np.sin(np.pi * Z) ** 2 * ones

p = mf.pressure_values(rho, qv, T, const)
q_vs = closure(p, T)
print("== saturation closure ==")
print(f"q_vs range: [{q_vs.min():.4f}, {q_vs.max():.4f}] "
      f"(cap {const.q_vs_star})")
print(f"Lipschitz bounds (L_p, L_T) = {closure.lipschitz_bounds()}")

# the clipped form reads the nonnegative parts of T and the mixing ratios,
# as the time stepper passes them; nucleation and auto-conversion read the
# raw q_v and q_c in both forms
T_c, qv_c, qc_c, qr_c = map(mf.positive_values, (T, qv, qc, qr))
rates = mf.source_values(T_c, qv_c, qc_c, qr_c, q_vs, const, qv, qc)
print("\n== phase-change rates (clipped) ==")
for name in ("S_ev", "S_cd", "S_ac", "S_cr"):
    arr = rates[name]
    print(f"  {name}: min {arr.min():+.3e}  max {arr.max():+.3e}")

res = mf.water_exchange_residual(rates)
print(f"\nwater-exchange residual (must telescope to zero): "
      f"{np.max(np.abs(res)):.2e}")

raw = mf.source_values(T, qv, qc, qr, q_vs, const, qv, qc)
diff = max(np.max(np.abs(rates[n] - raw[n])) for n in ("S_ev", "S_cd", "S_ac", "S_cr"))
print(f"clipped vs raw on nonnegative inputs: max difference {diff:.2e}")

print("\n== thermodynamic coefficients ==")
Q_m, Q_th, _, Q_1, Q_2 = mf.q_factor_values(qv_c, qc_c, qr_c, const)
print(f"Q_m in [{Q_m.min():.4f}, {Q_m.max():.4f}] (>= 1)")
print(f"Q_th in [{Q_th.min():.4f}, {Q_th.max():.4f}]")
print(f"Q_1 = {Q_1:.3f}, Q_2 = {Q_2:.3f} (scalars by the algebraic collapse)")
theta = mf.potential_temperature(T, p, const)
print(f"potential temperature range: [{theta.min():.4f}, {theta.max():.4f}]")
