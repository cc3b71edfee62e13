#!/usr/bin/env python3
"""Landmark geodesics and the ambient deformation they drag along.

Two landmarks are shot from rest configurations with prescribed momenta
under three kernels of width 1/4.  The conserved quadratic H is the
integrator diagnostic; the deformed lattice makes the volume behavior
visible -- the divergence-free kernel preserves cell areas, the scalar
one visibly compresses ahead of the moving pair.
"""

from pathlib import Path

import numpy as np

from trikernels import (
    GridSpec, IntegratorConfig, LandmarkConfig, MomentaSet, flow_grid,
    gaussian_kernel, gaussian_profile, make_curl_free, make_div_free,
)
from trikernels import svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

c = 16.0
b = 1.0 / (2.0 * c)
kernels = {
    "scalar": gaussian_kernel(c, 2, amplitude=b),
    "curl_free": make_curl_free(gaussian_profile(b / (2 * c), c), 2),
    "div_free": make_div_free(gaussian_profile(b / (2 * c), c), 2),
}

rows = {
    "parallel": (LandmarkConfig(np.array([[0.0, 0.0], [0.0, 0.15]])),
                 MomentaSet(np.array([[15.0, 0.0], [15.0, 0.0]]))),
    "head_on": (LandmarkConfig(np.array([[-0.4, -0.125], [0.4, 0.125]])),
                MomentaSet(np.array([[20.0, 0.0], [-20.0, 0.0]]))),
}

icfg = IntegratorConfig(step=1e-3, record_every=5)
spec = GridSpec(lo=(-0.55, -0.6), hi=(1.05, 0.6), n=(65, 49))  # spacing 0.025

for row_name, (q0, p0) in rows.items():
    for kname, k in kernels.items():
        fg = flow_grid(k, q0, p0, spec, icfg)
        traj = fg.trajectory
        drift = traj.energy_drift() / abs(traj.hamiltonians[0])
        det_dev = float(np.max(np.abs(fg.jacobian_det - 1.0)))
        print(f"{row_name:>9} / {kname:>9}: H(0) = {traj.hamiltonians[0]:8.4f}, "
              f"relative drift {drift:.1e}, max |det-1| = {det_dev:6.3f}")

        proj = svg.Projector(spec.lo, spec.hi, width=760)
        els = svg.deformed_grid(fg.transported, spec.n, proj)
        for a, color in zip(range(2), ("#000000", "#c0392b")):
            els.append(svg.polyline(traj.q[:, a, :], proj, color=color, width=1.8))
            els += svg.dots(traj.q[:1, a, :], proj, color=color, radius=4)
            els += svg.dots(traj.q[-1:, a, :], proj, color=color, radius=2.5)
        els += svg.quiver(q0.points, p0.vectors, proj, 0.01, color="#555555")
        path = OUT / f"shoot_{row_name}_{kname}.svg"
        path.write_text(svg.document(els, proj, {
            "kernel": kname, "row": row_name, "step": icfg.step}))
print(f"\nSVGs in {OUT}")
print("the div-free flows preserve volume exactly; at these momenta the")
print("lattice winds so tightly near the landmarks that the 0.025-spaced")
print("central-difference det estimate saturates there (gentler shoots, as")
print("in the test suite, bring it below 1e-2).  the drawn grids still show")
print("cells surviving under the div-free kernel while the scalar and")
print("curl-free flows visibly compress them.")
