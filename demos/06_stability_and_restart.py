"""Continuous dependence and reproducible restarts.

Two runs from initial data a perturbation apart stay within an exponential
envelope of each other, and halving the perturbation halves the early-time
differences.  Checkpoints restore runs bit for bit.
"""

import os
import tempfile

import numpy as np

import moistflow as mf
from moistflow.cli import main

const = mf.PhysConstants.nondimensional()
grid = mf.make_grid(16, 16, 17)
bases = mf.make_bases(grid)
base_state, bspec = mf.preset_initial("thermal_bubble", grid, const)
cfg = mf.SolverConfig(dt=1e-3, t_end=0.15, mode="direct", record_states_every=5)

print("== two-run stability probe ==")
runs = {}
for label, amp in (("base", 0.0), ("pert", 1e-6), ("half", 5e-7)):
    st = base_state
    if amp:
        st = mf.perturb_state(base_state, bases, amplitude=amp, seed=11)
    runs[label] = mf.Simulation(grid, const, bspec, cfg).run(st)

rep = mf.stability_probe(runs["base"], runs["pert"], bases)
rep_half = mf.stability_probe(runs["base"], runs["half"], bases)
print(f"fitted growth rate C = {rep.growth_rate:+.3f}, envelope coefficient "
      f"c = {rep.envelope_coef:.3f}")
early = slice(1, 8)
print("early-time difference ratio (half vs full perturbation):",
      np.round(rep_half.delta_fields[early] / rep.delta_fields[early], 3))

print("\n== checkpoint / resume through the command line ==")
with tempfile.TemporaryDirectory(prefix="moistflow_demo_") as tmp:
    cfg_path = os.path.join(tmp, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 17\n"
                 "constants.set = nondimensional\n"
                 "solver.dt = 1e-3\nsolver.t_end = 1e-2\nsolver.mode = direct\n"
                 "solver.checkpoint_every = 5\nic.preset = thermal_bubble\n")
    main(["run", cfg_path, "--out", os.path.join(tmp, "full")])
    main(["resume", os.path.join(tmp, "full", "checkpoints", "step_000005"),
          "--out", os.path.join(tmp, "resumed")])

    ref = mf.load_state(os.path.join(tmp, "full", "final_state"))
    got = mf.load_state(os.path.join(tmp, "resumed", "final_state"))
    identical = all(np.array_equal(a.values, b.values) for a, b in
                    ((ref.frak_T, got.frak_T), (ref.u.w, got.u.w),
                     (ref.log_rho_d, got.log_rho_d)))
    print(f"resumed final state identical to uninterrupted run: {identical}")
    main(["export-plot", os.path.join(tmp, "full")])
