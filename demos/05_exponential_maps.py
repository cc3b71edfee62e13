#!/usr/bin/env python3
"""Exponential-map fans: sweeping the initial momenta of a landmark pair.

Shooting the same two landmarks with momenta 50(cos t, +-sin t) over a
half-turn of angles traces out the image of the exponential map.  Folds
in the sheets mean conjugate points: distinct initial momenta reaching
the same configuration.  The divergence-free kernel folds repeatedly;
the curl-free one loses its strongly converging members to genuine
finite-time landmark collisions, which the fan records and skips.
"""

import math
from pathlib import Path

import numpy as np

from trikernels import (
    IntegratorConfig, LandmarkConfig, exp_map_fan, gaussian_kernel,
    gaussian_profile, make_curl_free, make_div_free, theta_momenta,
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

q0 = LandmarkConfig(np.array([[0.0, -0.125], [0.0, 0.125]]))
thetas = np.linspace(-math.pi / 2, math.pi / 2, 33)
icfg = IntegratorConfig(step=2e-3, record_every=25)

for name, k in kernels.items():
    fan = exp_map_fan(k, q0, theta_momenta(50.0, thetas), icfg)
    ok = sum(t is not None for t in fan.trajectories)
    print(f"{name:>10}: {ok}/{len(thetas)} members integrated", end="")
    if fan.failures:
        lost = ", ".join(f"{thetas[i]:.2f}" for i, _ in fan.failures)
        print(f"  (collisions at theta = {lost})")
    else:
        print()

    sheets = [fan.sheet(a) for a in range(2)]
    finite = np.concatenate([s[np.isfinite(s).all(axis=2)] for s in sheets])
    lo, hi = finite.min(axis=0) - 0.15, finite.max(axis=0) + 0.15
    proj = svg.Projector(lo, hi, width=720)
    els = []
    for sheet, color in zip(sheets, ("#000000", "#c0392b")):
        els += svg.fan_sheet(sheet, proj, color)
    els += svg.dots(q0.points, proj, color="#1f4e8c", radius=4)
    path = OUT / f"expmap_{name}.svg"
    path.write_text(svg.document(els, proj, {"kernel": name, "magnitude": 50.0,
                                             "angles": len(thetas)}))
    print(f"{'':>12}wrote {path}")
