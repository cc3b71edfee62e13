"""Translation- and rotation-invariant (TRI) matrix kernels.

A TRI kernel on R^d is determined by two radial coefficients: the
eigenvalue of the d x d matrix k(x) along x and the eigenvalue on the
orthogonal complement,

    k(x) = kpar(|x|) P(x) + kperp(|x|) (I - P(x)),    P(x) = x x^T / |x|^2,

with k(0) = k0 * I.  This module holds the kernel data type, the pairwise
primitive, matrix evaluation and its analytic spatial derivative, the
concrete Gaussian families, the curl-free / divergence-free
constructions from scalar profiles, and the closed-form Hodge pair of
the scalar Gaussian.

With ktilde(r) = (kpar(r) - kperp(r)) / r^2, which families carry in
closed form to avoid cancellation at small radii, k(x) = kperp I +
ktilde x x^T.  The primitive `pair_coefficients` returns the
zero-radius-safe kperp, ktilde, dkpar and dkperp at a whole array of
displacements; every kernel matrix, matrix derivative, field value and
differential residual in the package is computed from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .specfun import bessel_k, lower_gamma

# below this radius k(x) is evaluated as k0 * I and ktilde as its stored limit
ZERO_RADIUS = 1e-12


class SingularityError(ValueError):
    """Kernel derivative requested at (numerically) zero separation."""


# ---------------------------------------------------------------------------
# scalar profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarProfile:
    """A smooth even radial profile with derivatives.

    value, d1, d2, d3 : vectorized callables of r >= 0.
    d2_zero, d4_zero : even-order Taylor data at r = 0, used by the
        kernel constructions for exact limits; estimated numerically
        when absent.
    tail_scale : radius beyond which the profile is negligible.
    decay : "gaussian", "exponential" or "power"; a quadrature hint only.
    """

    value: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    d2_zero: Optional[float] = None
    d4_zero: Optional[float] = None
    tail_scale: float = np.inf
    decay: str = "gaussian"


def gaussian_profile(amplitude: float, c: float) -> ScalarProfile:
    """amplitude * exp(-c r^2)."""
    if c <= 0:
        raise ValueError("c must be positive")
    a = float(amplitude)
    return ScalarProfile(
        value=lambda r: a * np.exp(-c * np.square(r)),
        d1=lambda r: -2.0 * a * c * r * np.exp(-c * np.square(r)),
        d2=lambda r: a * (4.0 * c * c * np.square(r) - 2.0 * c) * np.exp(-c * np.square(r)),
        d3=lambda r: a * (12.0 * c * c * r - 8.0 * c ** 3 * r ** 3) * np.exp(-c * np.square(r)),
        d2_zero=-2.0 * a * c,
        d4_zero=12.0 * a * c * c,
        tail_scale=math.sqrt(48.0 / c),
        decay="gaussian",
    )


def cauchy_profile(sigma: float) -> ScalarProfile:
    """1 / (1 + u) with u = r^2 / sigma^2, the rational profile."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s2 = sigma * sigma
    return ScalarProfile(
        value=lambda r: 1.0 / (1.0 + np.square(r) / s2),
        d1=lambda r: -(2.0 * r / s2) / np.square(1.0 + np.square(r) / s2),
        d2=lambda r: (6.0 * np.square(r) / s2 - 2.0) / s2 / (1.0 + np.square(r) / s2) ** 3,
        d3=lambda r: 24.0 * r * (1.0 - np.square(r) / s2) / s2 ** 2
                     / (1.0 + np.square(r) / s2) ** 4,
        d2_zero=-2.0 / s2,
        tail_scale=8.0 * sigma,
        decay="power",
    )


def bessel_profile(nu: float, sigma: float = 1.0, amplitude: float = 1.0) -> ScalarProfile:
    """amplitude * (r/sigma)^nu K_nu(r/sigma), the Sobolev-type profile.

    Smooth at the origin for nu > 2 in the C^4 sense; derivative closed
    forms follow from d/dr [(r/s)^nu K_nu(r/s)] = -(1/s)(r/s)^nu K_{nu-1}(r/s).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if nu <= 0:
        raise ValueError("nu must be positive for a bounded profile")
    a = float(amplitude)
    s = float(sigma)

    # z^nu K_nu(z) tends to 2^{nu-1} Gamma(nu); flooring z keeps the
    # product finite so the where-mask never sees overflow
    def f(r):
        r = np.asarray(r, dtype=float)
        z = np.maximum(r / s, 1e-8)
        out = a * z ** nu * bessel_k(nu, z)
        return np.where(r < 1e-12, a * 2.0 ** (nu - 1.0) * math.gamma(nu), out)

    def f1(r):
        r = np.asarray(r, dtype=float)
        z = np.maximum(r / s, 1e-8)
        out = -(a / s) * z ** nu * bessel_k(nu - 1.0, z)
        return np.where(r < 1e-12, 0.0, out)

    def f2(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, 1e-300)
        return f(r) / s ** 2 + (2.0 * nu - 1.0) / rs * f1(r)

    def f3(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, 1e-300)
        return f1(r) / s ** 2 + (2.0 * nu - 1.0) * (f2(r) / rs - f1(r) / rs ** 2)

    return ScalarProfile(value=f, d1=f1, d2=f2, d3=f3,
                         tail_scale=60.0 * s, decay="exponential")


def sobolev_green_constant(sigma: float, ell: float, dim: int) -> float:
    """Normalization making the Bessel profile a Green's function amplitude."""
    return 1.0 / (2.0 ** (ell + dim / 2.0 - 1.0) * math.pi ** (dim / 2.0)
                  * math.gamma(ell) * sigma ** dim)


def _limit_d2_zero(p: ScalarProfile) -> float:
    if p.d2_zero is not None:
        return float(p.d2_zero)
    h = 1e-4 * min(1.0, p.tail_scale if np.isfinite(p.tail_scale) else 1.0)
    a, b = float(p.d2(h)), float(p.d2(2 * h))
    return (4.0 * a - b) / 3.0


def _limit_d4_zero(p: ScalarProfile) -> float:
    if p.d4_zero is not None:
        return float(p.d4_zero)
    # d2(r) = d2(0) + d4(0) r^2 / 2 + O(r^4)
    h = 1e-3 * min(1.0, p.tail_scale if np.isfinite(p.tail_scale) else 1.0)
    d20 = _limit_d2_zero(p)
    a = (float(p.d2(h)) - d20) / (h * h) * 2.0
    b = (float(p.d2(2 * h)) - d20) / (4 * h * h) * 2.0
    return (4.0 * a - b) / 3.0


# ---------------------------------------------------------------------------
# the kernel type and the pairwise primitive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriKernel:
    """Coefficient description of a TRI matrix kernel on R^d.

    All profile callables are vectorized over arrays of radii.  Instances
    are immutable; evaluation is pure and thread-safe.
    """

    dim: int
    k_par: Callable
    k_perp: Callable
    dk_par: Callable
    dk_perp: Callable
    k0: float
    small_r_ktilde: float
    family_tag: str = "generic"
    ktilde_fn: Optional[Callable] = field(default=None, repr=False)
    tail_scale: float = np.inf
    decay: str = "gaussian"
    pd_hint: Optional[bool] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("ambient dimension must be >= 2")

    @property
    def mu(self) -> float:
        """Spectral order d/2 - 1."""
        return self.dim / 2.0 - 1.0


def ktilde(k: TriKernel, r):
    """(kpar - kperp)/r^2 with its limit below the zero threshold."""
    r = np.asarray(r, dtype=float)
    rs = np.maximum(r, ZERO_RADIUS)
    out = np.where(r < ZERO_RADIUS, k.small_r_ktilde,
                   k.ktilde_fn(rs) if k.ktilde_fn is not None
                   else (k.k_par(rs) - k.k_perp(rs)) / np.square(rs))
    return out[()]


@dataclass(frozen=True)
class PairCoefficients:
    """Radial coefficients of a kernel at an array of displacements.

    With x a displacement and r = |x|, the kernel acts as
    k(x) alpha = kperp alpha + ktilde (x . alpha) x, and its coordinate
    derivatives need dkpar and dkperp as well.  Below ZERO_RADIUS the
    entries hold the limits at the origin: kperp = k0, ktilde its stored
    small-r value, and dkpar = dkperp = 0 (odd functions of r).
    """

    r: np.ndarray
    kperp: np.ndarray
    ktilde: np.ndarray
    dkpar: Optional[np.ndarray] = None
    dkperp: Optional[np.ndarray] = None


def pair_coefficients(k: TriKernel, x, derivatives: bool = False) -> PairCoefficients:
    """Zero-radius-safe coefficients at displacements x of shape (..., d).

    Every array of the result has shape x.shape[:-1]; the radial
    derivatives are evaluated only when `derivatives` is set.  This is
    the one place where every kernel value in the package is computed.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    # ktilde first: its temporaries are freed before the other coefficients' are made
    kt = np.asarray(ktilde(k, r))
    rs = np.maximum(r, ZERO_RADIUS)
    zero = r < ZERO_RADIUS
    kperp = np.where(zero, k.k0, k.k_perp(rs))
    if not derivatives:
        return PairCoefficients(r, kperp, kt)
    return PairCoefficients(r, kperp, kt, np.where(zero, 0.0, k.dk_par(rs)),
                            np.where(zero, 0.0, k.dk_perp(rs)))


def eval_matrix(k: TriKernel, x) -> np.ndarray:
    """kperp I + ktilde x x^T, shape (..., d, d), at displacements x (..., d).

    x x^T is formed first, so k(x) = k(-x) = k(x)^T hold exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != k.dim:
        raise ValueError(f"expected vectors of length {k.dim}")
    c = pair_coefficients(k, x)
    outer = x[..., :, None] * x[..., None, :]
    return c.kperp[..., None, None] * np.eye(k.dim) + c.ktilde[..., None, None] * outer


def partial_matrix(k: TriKernel, x, axis: int) -> np.ndarray:
    """Derivative of the kernel matrix along coordinate `axis` (0-based).

    Equals (x_i / r) [dkperp I + ((dkpar - dkperp)/r^2 - 2 ktilde/r) x x^T]
    + ktilde (e_i x^T + x e_i^T).  Undefined at the origin; the smooth
    even extension has derivative 0 there, which callers handle themselves.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (k.dim,):
        raise ValueError(f"expected a vector of length {k.dim}")
    if not 0 <= axis < k.dim:
        raise ValueError("axis out of range")
    c = pair_coefficients(k, x, derivatives=True)
    r = float(c.r)
    if r < ZERO_RADIUS:
        raise SingularityError("kernel derivative evaluated at zero separation")
    e = np.zeros(k.dim)
    e[axis] = 1.0
    radial = (c.dkpar - c.dkperp) / r ** 2 - 2.0 * c.ktilde / r
    return (x[axis] / r) * (c.dkperp * np.eye(k.dim) + radial * np.outer(x, x)) \
        + c.ktilde * (np.outer(e, x) + np.outer(x, e))


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------

def in_D1(a: float, b: float, c: float, dim: int) -> bool:
    """Positive-definiteness region of the first Gaussian family."""
    if c <= 0:
        raise ValueError("c must be positive")
    return a >= 0.0 and b >= (dim - 1) * a / (2.0 * c)


def in_D2(a: float, b: float, c: float) -> bool:
    """Positive-definiteness region of the second Gaussian family."""
    if c <= 0:
        raise ValueError("c must be positive")
    return a >= 0.0 and b >= a / (2.0 * c)


def family_example1(a: float, b: float, c: float, dim: int) -> TriKernel:
    """Gaussian family with kpar = b e^{-cr^2}, kperp = (b - a r^2) e^{-cr^2}.

    ktilde = a e^{-cr^2}; positive definite iff (a, b) lies in D1.  The
    boundary b = (d-1) a / (2c) gives divergence-free kernels.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    g = lambda r: np.exp(-c * np.square(r))
    return TriKernel(
        dim=dim,
        k_par=lambda r: b * g(r),
        k_perp=lambda r: (b - a * np.square(r)) * g(r),
        dk_par=lambda r: -2.0 * b * c * r * g(r),
        dk_perp=lambda r: (-2.0 * a * r - 2.0 * c * r * (b - a * np.square(r))) * g(r),
        k0=float(b),
        small_r_ktilde=float(a),
        family_tag=f"example1(a={a},b={b},c={c})",
        ktilde_fn=lambda r: a * g(r),
        tail_scale=math.sqrt(52.0 / c),
        decay="gaussian",
        pd_hint=in_D1(a, b, c, dim),
    )


def family_example2(a: float, b: float, c: float, dim: int) -> TriKernel:
    """Mirror family: kpar = (b - a r^2) e^{-cr^2}, kperp = b e^{-cr^2}.

    ktilde = -a e^{-cr^2}; positive definite iff (a, b) lies in D2.  The
    boundary b = a / (2c) gives curl-free kernels.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    g = lambda r: np.exp(-c * np.square(r))
    return TriKernel(
        dim=dim,
        k_par=lambda r: (b - a * np.square(r)) * g(r),
        k_perp=lambda r: b * g(r),
        dk_par=lambda r: (-2.0 * a * r - 2.0 * c * r * (b - a * np.square(r))) * g(r),
        dk_perp=lambda r: -2.0 * b * c * r * g(r),
        k0=float(b),
        small_r_ktilde=float(-a),
        family_tag=f"example2(a={a},b={b},c={c})",
        ktilde_fn=lambda r: -a * g(r),
        tail_scale=math.sqrt(52.0 / c),
        decay="gaussian",
        pd_hint=in_D2(a, b, c),
    )


def scalar_kernel(profile: ScalarProfile, dim: int, tag: str = "scalar") -> TriKernel:
    """Kernel k(|x|) * I built from one radial profile."""
    k0 = float(profile.value(0.0))
    return TriKernel(
        dim=dim,
        k_par=profile.value,
        k_perp=profile.value,
        dk_par=profile.d1,
        dk_perp=profile.d1,
        k0=k0,
        small_r_ktilde=0.0,
        family_tag=tag,
        ktilde_fn=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        tail_scale=profile.tail_scale,
        decay=profile.decay,
        pd_hint=None,
    )


def gaussian_kernel(c: float, dim: int, amplitude: float = 1.0) -> TriKernel:
    """Scalar Gaussian kernel amplitude * e^{-c r^2} * I."""
    k = scalar_kernel(gaussian_profile(amplitude, c), dim,
                      tag=f"gaussian(c={c},amp={amplitude})")
    return replace(k, pd_hint=amplitude >= 0)


def cauchy_kernel(sigma: float, dim: int) -> TriKernel:
    """Scalar rational kernel 1 / (1 + r^2 / sigma^2) * I."""
    k = scalar_kernel(cauchy_profile(sigma), dim, tag=f"cauchy(sigma={sigma})")
    return replace(k, pd_hint=True)


def bessel_kernel(sigma: float, ell: float, dim: int, normalized: bool = True) -> TriKernel:
    """Scalar Sobolev-type kernel of smoothness ell and width sigma."""
    nu = ell - dim / 2.0
    amp = sobolev_green_constant(sigma, ell, dim) if normalized else 1.0
    prof = bessel_profile(nu, sigma, amp)
    k = scalar_kernel(prof, dim, tag=f"bessel(sigma={sigma},ell={ell})")
    return replace(k, pd_hint=True)


# ---------------------------------------------------------------------------
# constructions from scalar profiles
# ---------------------------------------------------------------------------

def make_curl_free(profile: ScalarProfile, dim: int) -> TriKernel:
    """Curl-free kernel from a scalar generator: the negative Hessian route.

    Coefficients: kpar = -profile'' , kperp = -profile'/r.  Every field
    k(.)alpha of the result is a gradient, hence irrotational.
    """
    if dim < 2:
        raise ValueError("ambient dimension must be >= 2")
    d2_0 = _limit_d2_zero(profile)
    d4_0 = _limit_d4_zero(profile)
    small = 1e-9 * min(1.0, profile.tail_scale if np.isfinite(profile.tail_scale) else 1.0)

    def k_par(r):
        return -profile.d2(np.asarray(r, dtype=float))

    def k_perp(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        return np.where(r < small, -d2_0, -profile.d1(rs) / rs)

    dk_par = lambda r: -profile.d3(np.asarray(r, dtype=float))

    def dk_perp(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        out = -(profile.d2(rs) * rs - profile.d1(rs)) / np.square(rs)
        return np.where(r < small, -d4_0 * r / 3.0, out)

    def kt(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        out = (-profile.d2(rs) + profile.d1(rs) / rs) / np.square(rs)
        return np.where(r < small, -d4_0 / 3.0, out)

    return TriKernel(
        dim=dim, k_par=k_par, k_perp=k_perp, dk_par=dk_par, dk_perp=dk_perp,
        k0=-d2_0, small_r_ktilde=-d4_0 / 3.0,
        family_tag="curl_free", ktilde_fn=kt,
        tail_scale=profile.tail_scale, decay=profile.decay, pd_hint=True,
    )


def make_div_free(profile: ScalarProfile, dim: int) -> TriKernel:
    """Divergence-free kernel from a scalar generator: the double-curl route.

    Coefficients: kpar = -(d-1) profile'/r, kperp = -(d-2) profile'/r - profile''.
    Every field k(.)alpha of the result is incompressible.
    """
    if dim < 2:
        raise ValueError("ambient dimension must be >= 2")
    d = dim
    d2_0 = _limit_d2_zero(profile)
    d4_0 = _limit_d4_zero(profile)
    small = 1e-9 * min(1.0, profile.tail_scale if np.isfinite(profile.tail_scale) else 1.0)

    def over_r(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        return np.where(r < small, d2_0, profile.d1(rs) / rs)

    def k_par(r):
        return -(d - 1) * over_r(r)

    def k_perp(r):
        r = np.asarray(r, dtype=float)
        return -(d - 2) * over_r(r) - profile.d2(r)

    def dover_r(r):
        # derivative of profile'/r, with the odd small-r limit
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        out = (profile.d2(rs) * rs - profile.d1(rs)) / np.square(rs)
        return np.where(r < small, d4_0 * r / 3.0, out)

    dk_par = lambda r: -(d - 1) * dover_r(r)
    dk_perp = lambda r: -(d - 2) * dover_r(r) - profile.d3(np.asarray(r, dtype=float))

    def kt(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        out = (profile.d2(rs) - profile.d1(rs) / rs) / np.square(rs)
        return np.where(r < small, d4_0 / 3.0, out)

    return TriKernel(
        dim=dim, k_par=k_par, k_perp=k_perp, dk_par=dk_par, dk_perp=dk_perp,
        k0=-(d - 1) * d2_0, small_r_ktilde=d4_0 / 3.0,
        family_tag="div_free", ktilde_fn=kt,
        tail_scale=profile.tail_scale, decay=profile.decay, pd_hint=True,
    )


def gaussian_hodge_pair(c: float, dim: int) -> tuple[TriKernel, TriKernel]:
    """Closed-form curl-free + divergence-free split of e^{-c r^2} * I.

    The transverse coefficient of the curl-free part is
    g(r) = lowergamma(mu+1, c r^2) / (2 c^{mu+1} r^{2mu+2}), mu = d/2 - 1;
    all other coefficients follow from the scalar profile by linearity.
    Both parts decay like r^{-(2mu+2)}, much slower than the Gaussian.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    d = dim
    mu = d / 2.0 - 1.0
    small = 1e-6 / math.sqrt(c)

    k = lambda r: np.exp(-c * np.square(r))
    dk = lambda r: -2.0 * c * r * np.exp(-c * np.square(r))

    def g(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        s = c * np.square(rs)
        out = lower_gamma(mu + 1.0, s) / (2.0 * c ** (mu + 1.0) * rs ** (2.0 * mu + 2.0))
        # series: 1/d - c r^2/(d+2) + O(r^4)
        return np.where(r < small, 1.0 / d - c * np.square(r) / (d + 2.0), out)

    def dg(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        out = (k(rs) - d * g(rs)) / rs
        return np.where(r < small, -2.0 * c * r / (d + 2.0), out)

    m = 2.0 * mu + 1.0  # = d - 1

    def kt1(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, small)
        out = (k(rs) - d * g(rs)) / np.square(rs)
        return np.where(r < small, -2.0 * c / (d + 2.0), out)

    k1 = TriKernel(
        dim=d,
        k_par=lambda r: k(r) - m * g(r),
        k_perp=g,
        dk_par=lambda r: dk(r) - m * dg(r),
        dk_perp=dg,
        k0=1.0 / d,
        small_r_ktilde=-2.0 * c / (d + 2.0),
        family_tag=f"gaussian_hodge_curl_free(c={c})",
        ktilde_fn=kt1,
        tail_scale=max(math.sqrt(48.0 / c), 8.0 / math.sqrt(c)),
        decay="power",
        pd_hint=True,
    )
    k2 = TriKernel(
        dim=d,
        k_par=lambda r: m * g(r),
        k_perp=lambda r: k(r) - g(r),
        dk_par=lambda r: m * dg(r),
        dk_perp=lambda r: dk(r) - dg(r),
        k0=(d - 1.0) / d,
        small_r_ktilde=2.0 * c / (d + 2.0),
        family_tag=f"gaussian_hodge_div_free(c={c})",
        ktilde_fn=lambda r: -kt1(r),
        tail_scale=max(math.sqrt(48.0 / c), 8.0 / math.sqrt(c)),
        decay="power",
        pd_hint=True,
    )
    return k1, k2


# residuals of the differential characterizations, used by the divergence and
# curl of single-center fields; radii r >= 0 enter the primitive as 1-vectors

def div_free_residual(k: TriKernel, r):
    """(d-1)(kpar - kperp)/r + kpar'; identically 0 for div-free kernels."""
    c = pair_coefficients(k, np.asarray(r, dtype=float)[..., None], derivatives=True)
    return (k.dim - 1) * c.r * c.ktilde + c.dkpar


def curl_free_residual(k: TriKernel, r):
    """(kpar - kperp)/r - kperp'; identically 0 for curl-free kernels."""
    c = pair_coefficients(k, np.asarray(r, dtype=float)[..., None], derivatives=True)
    return c.r * c.ktilde - c.dkperp
