"""Spectral toolbox tour: transforms, derivatives, and implicit solves.

The channel uses Fourier series in the periodic horizontals and cosine or
sine series in the wall-bounded vertical.  This script differentiates an
eigenfunction, checks the exactness of the Helmholtz inverse, and shows the
divergence/solenoidal split behind the vector solve.
"""

import numpy as np

import moistflow as mf

grid = mf.make_grid(32, 32, 33)
bases = mf.make_bases(grid)
X, Y, Z = grid.x[:, None, None], grid.y[None, :, None], grid.z[None, None, :]

print("== eigenfunction differentiation ==")
f = mf.ScalarField(grid, np.cos(np.pi * Z) * np.cos(np.pi * X) * np.ones(grid.shape))
lap = mf.laplacian(f, bases.neumann)
exact = -2.0 * np.pi**2 * f.values
print(f"laplacian of cos(pi x) cos(pi z): max error "
      f"{np.max(np.abs(lap.values - exact)):.2e}")

dzf = mf.dz(f, bases.neumann)
print(f"dz maps the cosine mode to a sine mode; wall values are exactly "
      f"{np.max(np.abs(dzf.values[:, :, [0, -1]])):.1e}")

print("\n== implicit diffusion solve ==")
rng = np.random.default_rng(0)
g = mf.ScalarField(grid, rng.standard_normal(grid.shape))
a = 0.25
sol = mf.helmholtz_solve(g, a, bases.neumann)
residual = sol.values - a * mf.laplacian(sol, bases.neumann).values - g.values
print(f"(I - {a} lap) solve: forward-operator residual "
      f"{np.linalg.norm(residual) / np.linalg.norm(g.values):.2e} (relative)")

print("\n== vector solve with grad-div coupling ==")
G = mf.VectorField(
    mf.ScalarField(grid, np.cos(np.pi * X) * np.cos(np.pi * Z) * np.ones(grid.shape)),
    mf.ScalarField(grid, np.cos(np.pi * Y) * np.ones(grid.shape)),
    mf.ScalarField(grid, np.sin(np.pi * Z) * np.cos(np.pi * Y) * np.ones(grid.shape)))
u = mf.vector_helmholtz_solve(G, 0.1, 0.05, bases)
gd = mf.grad(mf.div(u, bases), bases)
res_w = (u.w.values - 0.1 * mf.laplacian(u.w, bases.dirichlet).values
         - 0.05 * gd.w.values - G.w.values)
print(f"vertical-component residual {np.max(np.abs(res_w)):.2e}")
print(f"no-penetration is structural: |w| at walls = "
      f"{np.max(np.abs(u.w.values[:, :, [0, -1]])):.1e}")

print("\n== advection from the spectral gradient ==")
s = mf.ScalarField(grid, np.sin(np.pi * X) * np.ones(grid.shape))
adv = mf.grad(s, bases).v1.values    # u . grad s = ds/dx for a unit x-wind
print(f"u.grad of sin(pi x) under unit x-wind: max error vs pi cos(pi x) = "
      f"{np.max(np.abs(adv - np.pi * np.cos(np.pi * X))):.2e}")
