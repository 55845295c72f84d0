"""Spectral toolbox tour: transforms, derivatives, and implicit solves.

The channel uses Fourier series in the periodic horizontals and cosine or
sine series in the wall-bounded vertical.  This script differentiates an
eigenfunction, checks the exactness of the Helmholtz inverse, and shows the
divergence/solenoidal split behind the vector solve.  Each operator is the
array kernel the solver runs: a forward transform, a modal multiplier or
solve, and an inverse transform.
"""

import numpy as np

import moistflow as mf
from moistflow.spectral_ops import (derivs, div_modal, dz_modal, helmholtz_modal,
                                    laplacian_modal, to_modal_values,
                                    to_phys_values, vector_helmholtz_modal)

grid = mf.make_grid(32, 32, 33)
bases = mf.make_bases(grid)
neu, diri = bases.neumann, bases.dirichlet
X, Y, Z = grid.x[:, None, None], grid.y[None, :, None], grid.z[None, None, :]

print("== eigenfunction differentiation ==")
f = np.cos(np.pi * Z) * np.cos(np.pi * X) * np.ones(grid.shape)
lap = to_phys_values(laplacian_modal(to_modal_values(f, neu), neu), neu)
exact = -2.0 * np.pi**2 * f
print(f"laplacian of cos(pi x) cos(pi z): max error "
      f"{np.max(np.abs(lap - exact)):.2e}")

dzf = to_phys_values(dz_modal(to_modal_values(f, neu), neu), neu.other)
print(f"dz maps the cosine mode to a sine mode; wall values are exactly "
      f"{np.max(np.abs(dzf[:, :, [0, -1]])):.1e}")

print("\n== implicit diffusion solve ==")
rng = np.random.default_rng(0)
g = rng.standard_normal(grid.shape)
a = 0.25
sol = to_phys_values(helmholtz_modal(g, a, neu), neu)
lap_sol = to_phys_values(laplacian_modal(to_modal_values(sol, neu), neu), neu)
residual = sol - a * lap_sol - g
print(f"(I - {a} lap) solve: forward-operator residual "
      f"{np.linalg.norm(residual) / np.linalg.norm(g):.2e} (relative)")

print("\n== vector solve with grad-div coupling ==")
G = (np.cos(np.pi * X) * np.cos(np.pi * Z) * np.ones(grid.shape),
     np.cos(np.pi * Y) * np.ones(grid.shape),
     np.sin(np.pi * Z) * np.cos(np.pi * Y) * np.ones(grid.shape))
u = [to_phys_values(m, b)
     for m, b in zip(vector_helmholtz_modal(*G, 0.1, 0.05, bases), (neu, neu, diri))]
m_u = [to_modal_values(c, b) for c, b in zip(u, (neu, neu, diri))]
div_u = to_phys_values(div_modal(*m_u, bases), neu)
gd = derivs(to_modal_values(div_u, neu), neu)
lap_w = to_phys_values(laplacian_modal(m_u[2], diri), diri)
res_w = u[2] - 0.1 * lap_w - 0.05 * gd["z"] - G[2]
print(f"vertical-component residual {np.max(np.abs(res_w)):.2e}")
print(f"no-penetration is structural: |w| at walls = "
      f"{np.max(np.abs(u[2][:, :, [0, -1]])):.1e}")

print("\n== advection from the spectral gradient ==")
s = np.sin(np.pi * X) * np.ones(grid.shape)
adv = derivs(to_modal_values(s, neu), neu)["x"]    # u . grad s = ds/dx for a unit x-wind
print(f"u.grad of sin(pi x) under unit x-wind: max error vs pi cos(pi x) = "
      f"{np.max(np.abs(adv - np.pi * np.cos(np.pi * X))):.2e}")
