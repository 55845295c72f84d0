"""Robin walls without Robin walls.

A flux condition dz F = alpha (F_b - F) at each wall is converted into a
homogeneous Neumann condition for frak_F = B F - psi: B = exp(A) with a
quadratic exponent whose endpoint slopes equal the alpha coefficients, and
psi an interior extension whose wall-normal derivative matches the lifted
boundary data exactly.  This script builds the pieces and verifies the
identities the construction rests on.
"""

import numpy as np

import moistflow as mf
from moistflow.boundary import build_extension

grid = mf.make_grid(16, 16, 33)
bases = mf.make_bases(grid)

print("== lifting profile ==")
prof = mf.robin_profile(-1.0, 1.0)
print(f"A(0)={prof.A(0.0):+.3f}  A(1)={prof.A(1.0):+.3f}  "
      f"A'(0)={prof.A_prime(0.0):+.3f}  A'(1)={prof.A_prime(1.0):+.3f}")
print("endpoint slopes reproduce the Robin coefficients (-1, 1)")

print("\n== cutoff ==")
for z in (0.1, 0.25, 0.5, 0.75, 0.9):
    print(f"  chi0({z}) = {mf.cutoff_chi0(z):.6f}")

print("\n== extension operator ==")
rng = np.random.default_rng(1)
hb = rng.standard_normal((16, 16))
ht = rng.standard_normal((16, 16))
ext = build_extension(hb, ht, grid)
dz = ext.dz_values()
print(f"wall-derivative residual: bottom "
      f"{np.linalg.norm(dz[:, :, 0] - hb) / np.linalg.norm(hb):.2e}, top "
      f"{np.linalg.norm(dz[:, :, -1] - ht) / np.linalg.norm(ht):.2e}")
report = mf.trace_norm_check(ext, hb, ht)
for s, entry in report.items():
    print(f"trace bound, s={s}: |psi|_(s+3/2) / |data|_s = {entry.ratio:.3f}")

print("\n== homogenize / dehomogenize ==")
spec = mf.BoundarySpec()
spec.variables["T"] = mf.VariableBoundary(-1.0, 1.0, 1.2, 0.9)
fac = mf.build_factors(spec, grid)["T"]
vals = 1.0 + 0.2 * np.cos(np.pi * grid.z)[None, None, :] * np.ones(grid.shape)
F = mf.ScalarField(grid, vals)
frak = mf.homogenize(F, fac)
back = mf.dehomogenize(frak, fac)
print(f"round-trip error {np.max(np.abs(back.values - vals)):.2e}")

# a field with exact Robin data maps to one with zero wall-normal derivative
G = 0.3 * np.cos(2 * np.pi * grid.z)[None, None, :] * np.ones(grid.shape)
robin_F = mf.ScalarField(grid, fac.binv_profile * (G + fac.psi.values()))
frak2 = mf.homogenize(robin_F, fac)
print(f"Robin-compatible field homogenizes to the cosine series itself: "
      f"max deviation {np.max(np.abs(frak2.values - G)):.2e}")
