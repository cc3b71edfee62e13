import math

import numpy as np
import pytest

from trikernels import kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_rotation(rng, d):
    """Haar-ish orthogonal matrix via QR with sign fix."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def projector_oracle(k, x):
    """kpar P + kperp (I - P) at one displacement, k0 I at the origin.

    The paper's form of a TRI kernel, built from the kernel's kpar and
    kperp callables alone, as a reference for the matrix evaluation.
    """
    r = np.linalg.norm(x)
    if r == 0.0:
        return k.k0 * np.eye(k.dim)
    par = np.outer(x, x) / r ** 2
    return float(k.k_par(r)) * par + float(k.k_perp(r)) * (np.eye(k.dim) - par)


def mixed_gaussian_kernel(c1, c2, d):
    """kpar = e^{-c1 r^2}, kperp = e^{-c2 r^2}: positive definite only for c1 = c2.

    ktilde = (e^{-c1 r^2} - e^{-c2 r^2})/r^2 is taken as the slower exponential
    times expm1 of a nonpositive argument: no cancellation near r = 0, where
    it holds its limit c2 - c1, and no overflow far out.
    """
    def radial(r, derivatives=False):
        r2 = np.square(r)
        e1, e2 = np.exp(-c1 * r2), np.exp(-c2 * r2)
        rs2 = np.maximum(r2, 1e-24)
        kt = (np.sign(c1 - c2) * np.exp(-min(c1, c2) * r2)
              * np.expm1(-abs(c1 - c2) * rs2) / rs2)
        if not derivatives:
            return e2, kt
        return e2, kt, -2 * c1 * r * e1, -2 * c2 * r * e2

    return K.TriKernel(dim=d, radial=radial, family_tag="mixed-gaussian",
                       tail_scale=math.sqrt(52.0 / min(c1, c2)))
