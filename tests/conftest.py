import math
from types import SimpleNamespace

import numpy as np
import pytest

from trikernels import kernels as K
from trikernels.specfun import bessel_k


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


# Test-side closed forms of the scalar profiles and their first three
# derivatives, an independent reference for the library's fused tuples.

def gaussian_derivatives(a, c):
    """f = a e^{-c r^2} with f', f'' and f'''."""
    def f(r):
        return a * np.exp(-c * np.square(r))
    return SimpleNamespace(
        value=f,
        d1=lambda r: -2.0 * c * r * f(r),
        d2=lambda r: (4.0 * c * c * np.square(r) - 2.0 * c) * f(r),
        d3=lambda r: (12.0 * c * c * r - 8.0 * c ** 3 * r ** 3) * f(r))


def cauchy_derivatives(sigma):
    """f = 1 / (1 + u), u = r^2 / sigma^2, with f', f'' and f'''."""
    s2 = sigma * sigma

    def w(r):
        return 1.0 / (1.0 + np.square(r) / s2)
    return SimpleNamespace(
        value=w,
        d1=lambda r: -(2.0 * r / s2) * w(r) ** 2,
        d2=lambda r: (6.0 * np.square(r) / s2 - 2.0) / s2 * w(r) ** 3,
        d3=lambda r: 24.0 * r * (1.0 - np.square(r) / s2) / s2 ** 2 * w(r) ** 4)


def bessel_derivatives(nu, sigma, a):
    """f = a z^nu K_nu(z), z = r / sigma, with f', f'' and f''' at r > 0.

    From d/dr [z^nu K_nu(z)] = -(1/sigma) z^nu K_{nu-1}(z) and the Bessel
    equation, f'' = f/sigma^2 + (2 nu - 1) f'/r.
    """
    def f(r):
        return a * (r / sigma) ** nu * bessel_k(nu, r / sigma)

    def f1(r):
        return -(a / sigma) * (r / sigma) ** nu * bessel_k(nu - 1.0, r / sigma)

    def f2(r):
        return f(r) / sigma ** 2 + (2.0 * nu - 1.0) * f1(r) / r

    def f3(r):
        return f1(r) / sigma ** 2 + (2.0 * nu - 1.0) * (f2(r) / r - f1(r) / r ** 2)
    return SimpleNamespace(value=f, d1=f1, d2=f2, d3=f3)
