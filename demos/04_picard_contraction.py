"""The solution map and its contraction.

One time step freezes the state, advances density along characteristics,
and solves the associated linear system; iterating that map to a fixed
point is the Picard mode.  At a balanced state at rest the map returns its
input exactly; away from it the iteration contracts at a rate that shrinks
proportionally with dt.
"""

import numpy as np

import moistflow as mf

const = mf.PhysConstants.nondimensional()
grid = mf.make_grid(16, 16, 17)

print("== equilibrium is a fixed point ==")
state, bspec = mf.preset_initial("equilibrium", grid, const)
cfg = mf.SolverConfig(dt=1e-3, t_end=1e-2, mode="picard")
sim = mf.Simulation(grid, const, bspec, cfg)
_, rep = sim.picard_solve(state, 1e-3)
print(f"iterations: {rep.iterations}, first increment: "
      f"{rep.increments[0]['total']:.2e} (machine zero)")

print("\n== contraction-rate sweep on a thermal bubble ==")
state, bspec = mf.preset_initial("thermal_bubble", grid, const)
sim = mf.Simulation(grid, const, bspec, cfg)
for dt in (4e-3, 2e-3, 1e-3, 5e-4):
    s, ratios, iters = state, [], []
    for _ in range(10):
        s, rep = sim.picard_solve(s, dt)
        ratios.extend(rep.ratios)
        iters.append(rep.iterations)
    print(f"  dt={dt:6.4f}: mean ratio {np.mean(ratios):.4f}  "
          f"mean iterations {np.mean(iters):.1f}")
print("the per-iteration contraction factor scales roughly linearly in dt")

print("\n== direct mode is one application of the same map ==")
a = sim.direct_step(state, 1e-3)
b, _ = sim.picard_solve(state, 1e-3, max_iters=1)
same = all(np.array_equal(x.values, y.values) for x, y in
           ((a.frak_T, b.frak_T), (a.w, b.w), (a.frak_q_v, b.frak_q_v)))
print(f"bitwise identical: {same}")
