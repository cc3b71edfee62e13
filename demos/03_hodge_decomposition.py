#!/usr/bin/env python3
"""Splitting a scalar Gaussian kernel into curl-free + div-free parts.

On the frequency side the split drops one coefficient of the transformed
pair; for a radial kernel that is two radial integrals in physical space,
which `hodge_split` evaluates.  The two components acquire algebraic r^-2
tails that cancel only in the sum -- worth seeing numerically, because it
is why truncated-domain orthogonality checks need a generous radius.
Exits 1 when the split is off the closed-form pair by more than 1e-12 on
[0.05, 5], when R^2 times the relative pairing differs by more than 1%
between R = 50 and R = 200, or when it is off 1 by more than 1e-3 at R = 200.
"""

import sys
import warnings
from pathlib import Path

import numpy as np

from trikernels import (
    HeavyTailWarning, field_apply, gaussian_hodge_pair, gaussian_kernel,
    hodge_orthogonality, hodge_split,
)
from trikernels import svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

k = gaussian_kernel(1.0, 2)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", HeavyTailWarning)
    k1, k2 = hodge_split(k)

r = np.geomspace(0.05, 5.0, 9)
closed = (1 - np.exp(-r ** 2)) / (2 * r ** 2)
print("r        k1_perp(split)  k1_perp(closed)  |k1+k2 - k|")
for i, rr in enumerate(r):
    total = float(k1.k_par(rr) + k2.k_par(rr))
    print(f"{rr:7.3f}  {float(k1.k_perp(rr)):14.8f}  {closed[i]:15.8f}"
          f"  {abs(total - np.exp(-rr**2)):.2e}")

# closed-form pair for comparison
c1, c2 = gaussian_hodge_pair(1.0, 2)
rr = np.geomspace(0.05, 5.0, 200)
split_err = np.max(np.abs(k1.k_perp(rr) - c1.k_perp(rr)))
print(f"\nmax |split - closed form| over [0.05, 5]: {split_err:.2e}")

print("\ntruncated-domain orthogonality of the two component fields:")
scaled = {}
for radius in (8.0, 50.0, 200.0):
    inner, n1, n2 = hodge_orthogonality(k1, k2, radius)
    scaled[radius] = radius ** 2 * abs(inner) / (n1 * n2)
    print(f"  radius {radius:6.1f}: |<u1,u2>|/(|u1||u2|) = {abs(inner)/(n1*n2):.3e}"
          f"   (1/R^2 = {1/radius**2:.3e})")
print("the defect tracks 1/R^2 -- the r^-2 component tails at work.\n")

lo, hi = (-3.0, -3.0), (3.0, 3.0)
xs = np.linspace(lo[0], hi[0], 21)
grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
e1 = np.array([[1.0, 0.0]])
for part, name in ((k1, "curl_free"), (k2, "div_free")):
    vals = field_apply(part, np.zeros((1, 2)), e1, grid)
    proj = svg.Projector(lo, hi)
    els = svg.quiver(grid, vals, proj, arrow_scale=1.2)
    path = OUT / f"hodge_{name}.svg"
    path.write_text(svg.document(els, proj, {"arrow-scale": 1.2, "component": name}))
    print(f"wrote {path}")
if not split_err <= 1e-12:
    sys.exit(f"split is off the closed form by {split_err:.2e} > 1e-12")
if not abs(scaled[200.0] / scaled[50.0] - 1.0) <= 0.01:
    sys.exit(f"R^2 |<u1,u2>|/(|u1||u2|) reads {scaled[50.0]:.4g} at R = 50 and "
             f"{scaled[200.0]:.4g} at R = 200, more than 1% apart")
if not abs(scaled[200.0] - 1.0) <= 1e-3:
    sys.exit(f"R^2 |<u1,u2>|/(|u1||u2|) reads {scaled[200.0]:.4g} at R = 200, "
             "more than 1e-3 off 1")
