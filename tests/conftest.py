"""What the test suite writes once: `FAMILIES`, the kernel table every
property draws from; the c = 16 shooting kernels (`scalar16`, `divfree16`,
`curlfree16`) and landmark rows `row_a`, `row_b`; `fd_jacobian`, the one
finite-difference oracle of a kernel's derivative, with `curl_norm`;
`CLI_KERNELS`, valid CLI kernel blocks; `derivative_pair`, the radial
derivatives of kpar and kperp from a `radial` tuple; and the reference
kernels, profile derivatives and helpers the example tests share.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from trikernels import fields as F
from trikernels import kernels as K
from trikernels import spectral as S
from trikernels.specfun import bessel_k


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def derivative_pair(r, kperp, ktilde, dkperp_r, dktilde_r):
    """(dkpar, dkperp) at radii r from a (kperp, ktilde, D kperp, D ktilde)
    tuple, D = (1/r) d/dr: dkperp = r D kperp and, from kpar = kperp + r^2 ktilde,
    dkpar = r (D kperp + 2 ktilde + r^2 D ktilde)."""
    return r * (dkperp_r + 2.0 * ktilde + np.square(r) * dktilde_r), r * dkperp_r


def annulus_point(rng, d, lo, hi):
    """A normal draw in R^d, rescaled so that its norm lies in [lo, hi]."""
    x = rng.normal(size=d)
    r = np.linalg.norm(x)
    return x * (np.clip(r, lo, hi) / r)


def hodge_split_quietly(k, r_grid=None):
    """`spectral.hodge_split` with its HeavyTailWarning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", S.HeavyTailWarning)
        return S.hodge_split(k, r_grid)


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
    it holds its limit c2 - c1, and no overflow far out.  D ktilde =
    (2 c2 e^{-c2 r^2} - 2 c1 e^{-c1 r^2} - 2 ktilde)/r^2 cancels near r = 0;
    no test takes this kernel's derivatives.
    """
    def radial(r2, derivatives=False):
        e1, e2 = np.exp(-c1 * r2), np.exp(-c2 * r2)
        rs2 = np.maximum(r2, 1e-24)
        kt = (np.sign(c1 - c2) * np.exp(-min(c1, c2) * r2)
              * np.expm1(-abs(c1 - c2) * rs2) / rs2)
        if not derivatives:
            return e2, kt
        return e2, kt, -2 * c2 * e2, (2 * c2 * e2 - 2 * c1 * e1 - 2 * kt) / rs2

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

    Each in closed form from d/dz [z^m K_m(z)] = -z^m K_{m-1}(z), so no
    derivative is built from another and none cancels at small r.
    """
    def phi(r, power, order):
        z = r / sigma
        return z ** power * bessel_k(order, z)

    return SimpleNamespace(
        value=lambda r: a * phi(r, nu, nu),
        d1=lambda r: -(a / sigma) * phi(r, nu, nu - 1.0),
        d2=lambda r: (a / sigma ** 2) * (phi(r, nu, nu - 2.0) - phi(r, nu - 1.0, nu - 1.0)),
        d3=lambda r: (a / sigma ** 3) * (3.0 * phi(r, nu - 1.0, nu - 2.0)
                                         - phi(r, nu, nu - 3.0)))


def _unit_bessel(make, nu):
    """make(profile, d) of an order-nu Bessel profile of width c^-1/2, scaled to k0 = 1."""
    def build(c, d, lam):
        k0 = make(K.bessel_profile(nu, c ** -0.5), d).k0
        return make(K.bessel_profile(nu, c ** -0.5, 1.0 / k0), d)
    return build


# name -> (c, d, lam) -> kernel of width c^-1/2 in dimension d: every CLI family
# and both Gaussian Hodge parts, in closed form and from `hodge_split`.  lam in
# (0, 1) puts the example families strictly inside D1 and D2.  k0 = 1 except
# for the Hodge parts, which split the unit Gaussian
FAMILIES = {
    "gaussian": lambda c, d, lam: K.gaussian_kernel(c, d),
    "cauchy": lambda c, d, lam: K.cauchy_kernel(c ** -0.5, d),
    "bessel": _unit_bessel(K.scalar_kernel, 3.0),
    "example1": lambda c, d, lam: K.family_example1(lam * 2.0 * c / (d - 1), 1.0, c, d),
    "example2": lambda c, d, lam: K.family_example2(lam * 2.0 * c, 1.0, c, d),
    "gaussian_curl_free": lambda c, d, lam: K.make_curl_free(K.gaussian_profile(0.5 / c, c), d),
    "gaussian_div_free": lambda c, d, lam: K.make_div_free(
        K.gaussian_profile(0.5 / (c * (d - 1)), c), d),
    "bessel_curl_free": _unit_bessel(K.make_curl_free, 3.0),
    "bessel_div_free": _unit_bessel(K.make_div_free, 3.0),
    "hodge_curl_free": lambda c, d, lam: K.gaussian_hodge_pair(c, d)[0],
    "hodge_div_free": lambda c, d, lam: K.gaussian_hodge_pair(c, d)[1],
    "hodge_split_curl_free": lambda c, d, lam: hodge_split_quietly(K.gaussian_kernel(c, d))[0],
    "hodge_split_div_free": lambda c, d, lam: hodge_split_quietly(K.gaussian_kernel(c, d))[1],
}


# the c = 16 width-0.25 kernels used throughout the shooting experiments, and
# the landmark rows A and B they shoot
C16 = 16.0
B16 = 1.0 / (2.0 * C16)


def scalar16():
    return K.gaussian_kernel(C16, 2, amplitude=B16)


def divfree16():
    return K.make_div_free(K.gaussian_profile(B16 / (2 * C16 * (2 - 1)), C16), 2)


def curlfree16():
    return K.make_curl_free(K.gaussian_profile(B16 / (2 * C16), C16), 2)


def row_a():
    return (F.LandmarkConfig(np.array([[0.0, 0.0], [0.0, 0.15]])),
            F.MomentaSet(np.array([[15.0, 0.0], [15.0, 0.0]])))


def row_b():
    return (F.LandmarkConfig(np.array([[-0.4, -0.125], [0.4, 0.125]])),
            F.MomentaSet(np.array([[20.0, 0.0], [-20.0, 0.0]])))


def fd_jacobian(k, x, order, h):
    """Central difference of the kernel matrix at the displacement x (d,).

    Entry [i] approximates dk(x)/dx_i, from the stencil of `order` 2 or 4
    with step h.  `fd_jacobian(k, x, order, h) @ alpha` holds
    d(k(x) alpha)_j / dx_i at [i, j].
    """
    steps = h * np.eye(k.dim)       # row i: the step along axis i

    def diff(j):
        return K.eval_matrix(k, x + j * steps) - K.eval_matrix(k, x - j * steps)

    if order == 2:
        return diff(1) / (2 * h)
    return (8 * diff(1) - diff(2)) / (12 * h)


def curl_norm(g):
    """|curl v| from the field Jacobian g[i, j] = dv_j/dx_i in 2 or 3 dimensions:
    g - g^T holds each curl component twice, with both signs."""
    return float(np.linalg.norm(g - g.T)) / math.sqrt(2.0)


# valid CLI kernel blocks, one per family, without "dim"; example1/2 in and
# out of D1/D2
CLI_KERNELS = {
    "gaussian": {"family": "gaussian", "c": 1.0, "b": 1.0},
    "cauchy": {"family": "cauchy", "sigma": 1.0},
    "bessel": {"family": "bessel", "sigma": 1.0, "ell": 3.5},
    "gaussian_curl_free": {"family": "gaussian_curl_free", "b": 1.0, "c": 1.0},
    "gaussian_div_free": {"family": "gaussian_div_free", "b": 1.0, "c": 0.7},
    "bessel_curl_free": {"family": "bessel_curl_free", "sigma": 1.0, "ell": 4.5},
    "bessel_div_free": {"family": "bessel_div_free", "sigma": 1.0, "ell": 4.5},
    "example1_in": {"family": "example1", "a": 1.0, "b": 1.0, "c": 1.0},
    "example1_out": {"family": "example1", "a": 3.0, "b": 1.0, "c": 1.0},
    "example2_in": {"family": "example2", "a": 1.0, "b": 1.0, "c": 1.0},
    "example2_out": {"family": "example2", "a": 3.0, "b": 1.0, "c": 1.0},
}
