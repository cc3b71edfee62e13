"""Translation- and rotation-invariant (TRI) matrix kernels.

A TRI kernel on R^d is determined by two radial coefficients: the
eigenvalue of the d x d matrix k(x) along x and the eigenvalue on the
orthogonal complement,

    k(x) = kpar(|x|) P(x) + kperp(|x|) (I - P(x)),    P(x) = x x^T / |x|^2,

with k(0) = k0 * I.  This module holds the kernel data type, the pairwise
primitive, matrix evaluation and the analytic Jacobian of a kernel
field, the concrete Gaussian families, the curl-free / divergence-free
constructions from scalar profiles, and the closed-form Hodge pair of
the scalar Gaussian.

With ktilde(r) = (kpar(r) - kperp(r)) / r^2, k(x) = kperp I + ktilde x x^T.
Every kernel is evaluated through one callable,

    radial(r, derivatives) -> (kperp, ktilde[, D kperp, D ktilde]),

with D = (1/r) d/dr, the derivative of a radial function in the form its
consumers use.  It shares its transcendental evaluations across the
coefficients and returns the exact r -> 0 limits (k0, small_r_ktilde,
kperp''(0), ktilde''(0)) by contract.  A scalar profile is its fused tuple
(f, Df, D^2 f, D^3 f), written in closed form with its limits at r = 0:
the Gaussian takes one exp, the Cauchy profile one reciprocal and the
Bessel profile one K_m call per entry, four at order 3.  The scalar,
curl-free and div-free constructions are linear maps of that tuple.  The
primitive `pair_coefficients` is one call to `radial` on coordinate-major
(d, ...) displacements; every kernel matrix, field value, field Jacobian
and differential residual in the package is computed from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Optional

import numpy as np

from .specfun import bessel_k, lower_gamma


# ---------------------------------------------------------------------------
# scalar profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarProfile:
    """A smooth even radial profile f, given by its fused tuple.

    fused : (r, order) -> the first order + 1 entries of
        [f, Df, D^2 f, D^3 f], D = (1/r) d/dr, at an array of radii
        r >= 0, holding the limits f''(0), f''''(0)/3 and f''''''(0)/15 of
        the last three at r = 0.  Df = f'/r and D^2 f = (f'' - f'/r)/r^2.
    tail_scale : radius beyond which the profile is negligible; finite and
        positive, the length scale of every quadrature over the profile.
    """

    fused: Callable = field(repr=False)
    tail_scale: float

    def __post_init__(self):
        if not 0.0 < self.tail_scale < math.inf:
            raise ValueError("tail_scale must be finite and positive")


def gaussian_profile(amplitude: float, c: float) -> ScalarProfile:
    """amplitude * exp(-c r^2); its fused tuple (-2c)^j f takes one exp."""
    if c <= 0:
        raise ValueError("c must be positive")
    a = float(amplitude)

    def fused(r, order=3):
        f = a * np.exp(-c * np.square(r))
        return [f] + [w * f for w in (-2.0 * c, 4.0 * c * c, -8.0 * c * c * c)[:order]]

    return ScalarProfile(fused, tail_scale=math.sqrt(48.0 / c))


def cauchy_profile(sigma: float) -> ScalarProfile:
    """w = 1 / (1 + r^2/sigma^2), the rational profile; its fused tuple is
    (-2/sigma^2)^j j! w^(j+1): (w, -2 w^2/sigma^2, 8 w^3/sigma^4, -48 w^4/sigma^6).
    sigma^4 and 1/sigma^4 must be finite and nonzero: 1e-77 < sigma < 1e77."""
    s2 = sigma * sigma
    if not (sigma > 0 and 0.0 < s2 * s2 < math.inf and 1.0 / (s2 * s2) < math.inf):
        raise ValueError("sigma must be positive, with sigma^4 and 1/sigma^4 finite and nonzero")

    def fused(r, order=3):
        u = np.square(r) / s2
        w = 1.0 / (1.0 + u)
        out = [w]
        if order >= 1:
            out.append((-2.0 / s2) * np.square(w))
        if order >= 2:
            out.append((8.0 / (s2 * s2)) * w ** 3)
        if order >= 3:
            out.append((-6.0 / s2) * w * out[2])
        return out

    return ScalarProfile(fused, tail_scale=8.0 * sigma)


def bessel_profile(nu: float, sigma: float = 1.0, amplitude: float = 1.0) -> ScalarProfile:
    """amplitude * (r/sigma)^nu K_nu(r/sigma), the Sobolev-type profile.

    With phi_m(z) = z^m K_m(z), (1/z) d/dz phi_m = -phi_{m-1}, and
    D = (1/r) d/dr is sigma^-2 (1/z) d/dz at z = r/sigma, so the fused tuple
    is D^j f = amplitude (-1/sigma^2)^j phi_{nu-j}: one K_m call per entry.
    D^j f(0) is finite for nu > j.  For 1 < nu <= j, D^j f diverges like
    r^(2 nu - 2j) at the origin: there the tuple holds its value at the
    floor z = 1e-8, a finite amplitude (-1/sigma^2)^j phi_{nu-j}(1e-8),
    which is no limit.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if nu <= 0:
        raise ValueError("nu must be positive for a bounded profile")
    a, s = float(amplitude), float(sigma)

    def fused(r, order=3):
        if order >= 2 and nu <= 1:
            raise ValueError(f"the Bessel profile of order nu = {nu} <= 1 has f''(0) = "
                             "-infinity; its curl-free and div-free kernels are unbounded")
        # z is floored at 1e-8; below it phi_m takes its limit 2^{m-1} Gamma(m) for
        # m > 0, and its finite floor value for m <= 0, which every consumer
        # multiplies by x or r^2
        r = np.asarray(r, dtype=float)
        floor = r < 1e-8 * s
        z = np.maximum(r / s, 1e-8)

        def phi(m):
            out = z ** m * bessel_k(m, z)
            return np.where(floor, 2.0 ** (m - 1.0) * math.gamma(m), out) if m > 0 else out

        return [c * phi(nu - j)
                for j, c in enumerate((a, -a / s ** 2, a / s ** 4, -a / s ** 6)[:order + 1])]

    return ScalarProfile(fused, tail_scale=60.0 * s)


def sobolev_green_constant(sigma: float, ell: float, dim: int) -> float:
    """Normalization making the Bessel profile a Green's function amplitude."""
    return 1.0 / (2.0 ** (ell + dim / 2.0 - 1.0) * math.pi ** (dim / 2.0)
                  * math.gamma(ell) * sigma ** dim)


# ---------------------------------------------------------------------------
# the kernel type and the pairwise primitive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriKernel:
    """Coefficient description of a TRI matrix kernel on R^d.

    `radial(r, derivatives)` maps an array of radii r >= 0 to
    (kperp, ktilde) or (kperp, ktilde, D kperp, D ktilde), D = (1/r) d/dr,
    each of r's shape, with the limits (k0, small_r_ktilde, kperp''(0),
    ktilde''(0)) at r = 0; k0 and small_r_ktilde are read from it.  k_par
    and k_perp, the coefficients as callables of r, default to the values
    `radial` gives.  tail_scale, finite and positive, is the radius beyond
    which the kernel is negligible: the length scale of its spectral
    quadrature and default grids.  Instances are immutable; evaluation is
    pure and thread-safe.

    small_r_ktilde is a limit only where ktilde is bounded.  The curl-free
    and div-free kernels of a Bessel profile with 1 < nu <= 2 have
    ktilde ~ r^(2 nu - 4), and report the profile's floor value
    -/+ a phi_{nu-2}(1e-8)/sigma^4 (see `bessel_profile`).  No matrix
    reads it: ktilde multiplies x x^T = 0 at the origin.  Likewise D kperp
    and D ktilde hold floor values where they diverge, for nu <= 2 and
    nu <= 3; every consumer multiplies them by x or by r^2.

    generator, when set, is (profile, (w_s, w_c, w_d)): the kernel is
    w_s f I + w_c curl(f) + w_d div(f) of one scalar profile f, the scalar,
    curl-free and div-free constructions below.  The spectral side reads it,
    for one Hankel transform of f per spectrum and an exact Hodge split when
    w_s = 0, and so does the CLI `shoot` command's volume-preservation label
    (w_s = w_c = 0); `radial` stays each family's own closed form.
    """

    dim: int
    radial: Callable = field(repr=False)
    tail_scale: float
    family_tag: str = "generic"
    k_par: Optional[Callable] = field(default=None, repr=False)
    k_perp: Optional[Callable] = field(default=None, repr=False)
    generator: Optional[tuple] = field(default=None, repr=False)
    k0: float = field(init=False)
    small_r_ktilde: float = field(init=False)
    # perfbench/tracing.py reads these by name (RADIAL_FIELDS); they go with ROADMAP item 4
    dk_par: ClassVar[None] = None
    dk_perp: ClassVar[None] = None
    ktilde_fn: ClassVar[None] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("ambient dimension must be >= 2")
        if not 0.0 < self.tail_scale < math.inf:
            raise ValueError("tail_scale must be finite and positive")
        radial = self.radial

        def k_par(r):
            r = np.asarray(r, dtype=float)
            kperp, kt = radial(r)
            return kperp + np.square(r) * kt

        kperp0, kt0 = radial(np.zeros(1))
        object.__setattr__(self, "k0", float(kperp0[0]))
        object.__setattr__(self, "small_r_ktilde", float(kt0[0]))
        for name, value in (("k_perp", lambda r: radial(np.asarray(r, dtype=float))[0]),
                            ("k_par", k_par)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)

    @property
    def mu(self) -> float:
        """Spectral order d/2 - 1."""
        return self.dim / 2.0 - 1.0


def ktilde(k: TriKernel, r):
    """(kpar - kperp)/r^2 at radii r, with its limit at the origin."""
    return np.asarray(k.radial(np.asarray(r, dtype=float))[1])[()]


class PairCoefficients(NamedTuple):
    """Radial coefficients of a kernel at an array of displacements.

    With x a displacement and r = |x|, the kernel acts as
    k(x) alpha = kperp alpha + ktilde (x . alpha) x, and its coordinate
    derivatives need dkperp_r = kperp'/r and dktilde_r = ktilde'/r as well,
    the coefficients under D = (1/r) d/dr.  At r = 0 the entries hold the
    limits at the origin: kperp = k0, ktilde its small-r value, and
    dkperp_r, dktilde_r the second derivatives kperp''(0), ktilde''(0).  A
    named tuple, since every `pair_coefficients` call constructs one.
    """

    r: np.ndarray
    kperp: np.ndarray
    ktilde: np.ndarray
    dkperp_r: Optional[np.ndarray] = None
    dktilde_r: Optional[np.ndarray] = None


def pair_coefficients(k: TriKernel, x, derivatives: bool = False) -> PairCoefficients:
    """Coefficients at coordinate-major displacements x of shape (d, ...),
    safe at x = 0.

    Every array of the result has shape x.shape[1:], so no array has a
    trailing axis of length d; point-major (..., d) displacements enter as
    the view np.moveaxis(x, -1, 0).  The radial derivatives are evaluated
    only when `derivatives` is set.  This is the one place where every
    kernel value in the package is computed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or len(x) != k.dim:
        raise ValueError(f"expected vectors of length {k.dim}")
    r = np.sqrt(np.einsum("i...,i...->...", x, x))
    return PairCoefficients(r, *k.radial(r, derivatives))


def eval_matrix(k: TriKernel, x) -> np.ndarray:
    """kperp I + ktilde x x^T, shape (..., d, d), at displacements x (..., d).

    x x^T is formed first, so k(x) = k(-x) = k(x)^T hold exactly.
    """
    x = np.asarray(x, dtype=float)
    c = pair_coefficients(k, np.moveaxis(x, -1, 0))
    outer = x[..., :, None] * x[..., None, :]
    return c.kperp[..., None, None] * np.eye(k.dim) + c.ktilde[..., None, None] * outer


def field_jacobian(k: TriKernel, x, alpha) -> np.ndarray:
    """Jacobian of the field y -> k(y) alpha at displacements x.

    x and alpha broadcast over leading axes (..., d); entry [..., j, i] of
    the (..., d, d) result is d(k(x) alpha)_j / dx_i.  With u = x . alpha
    and D = (1/r) d/dr,

        J = (D kperp) alpha x^T + x ((D ktilde) u x + ktilde alpha)^T + ktilde u I.

    Every term carries x or u, so J is exactly 0 at x = 0.  The matrix
    derivative along axis i, applied to e_l, is J(x, e_l)[:, i].
    """
    return _field_and_jacobian(k, x, alpha)[1]


def _field_and_jacobian(k: TriKernel, x, alpha) -> tuple[np.ndarray, np.ndarray]:
    """k(x) alpha and its Jacobian `field_jacobian` from one `pair_coefficients` call."""
    x, alpha = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(alpha, dtype=float))
    c = pair_coefficients(k, np.moveaxis(x, -1, 0), derivatives=True)
    u = np.einsum("...i,...i->...", x, alpha)
    left = c.dkperp_r[..., None] * alpha
    right = (c.dktilde_r * u)[..., None] * x + c.ktilde[..., None] * alpha
    value = c.kperp[..., None] * alpha + (c.ktilde * u)[..., None] * x
    return value, left[..., :, None] * x[..., None, :] + x[..., :, None] * right[..., None, :] \
        + (c.ktilde * u)[..., None, None] * np.eye(k.dim)


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
    boundary b = (d-1) a / (2c) gives divergence-free kernels.  With
    f = e^{-cr^2} it is (b - (d-1) a/(2c)) f I + a/(4c^2) div(f), and D1 is
    "both weights >= 0".
    """
    if c <= 0:
        raise ValueError("c must be positive")

    def radial(r, derivatives=False):
        e = np.exp(-c * np.square(r))
        kt = a * e
        kperp = b * e - np.square(r) * kt
        return (kperp, kt, -2.0 * (kt + c * kperp), (-2.0 * c) * kt) if derivatives \
            else (kperp, kt)

    weights = (b - (dim - 1) * a / (2.0 * c), 0.0, a / (4.0 * c * c))
    return TriKernel(dim=dim, radial=radial, family_tag=f"example1(a={a},b={b},c={c})",
                     tail_scale=math.sqrt(52.0 / c),
                     generator=(gaussian_profile(1.0, c), weights))


def family_example2(a: float, b: float, c: float, dim: int) -> TriKernel:
    """Mirror family: kpar = (b - a r^2) e^{-cr^2}, kperp = b e^{-cr^2}.

    ktilde = -a e^{-cr^2}; positive definite iff (a, b) lies in D2.  The
    boundary b = a / (2c) gives curl-free kernels.  With f = e^{-cr^2} it is
    (b - a/(2c)) f I + a/(4c^2) curl(f), and D2 is "both weights >= 0".
    """
    if c <= 0:
        raise ValueError("c must be positive")

    def radial(r, derivatives=False):
        e = np.exp(-c * np.square(r))
        kt = -a * e
        kperp = b * e
        return (kperp, kt, (-2.0 * c) * kperp, (-2.0 * c) * kt) if derivatives else (kperp, kt)

    weights = (b - a / (2.0 * c), a / (4.0 * c * c), 0.0)
    return TriKernel(dim=dim, radial=radial, family_tag=f"example2(a={a},b={b},c={c})",
                     tail_scale=math.sqrt(52.0 / c),
                     generator=(gaussian_profile(1.0, c), weights))


def scalar_kernel(profile: ScalarProfile, dim: int, tag: str = "scalar") -> TriKernel:
    """Kernel f(|x|) * I built from one radial profile: kperp = f, ktilde = 0."""
    fused = profile.fused

    def radial(r, derivatives=False):
        f, *q = fused(r, 1 if derivatives else 0)
        kt = np.zeros_like(f)
        return (f, kt, q[0], kt) if derivatives else (f, kt)

    return TriKernel(dim=dim, radial=radial, family_tag=tag, tail_scale=profile.tail_scale,
                     generator=(profile, (1.0, 0.0, 0.0)))


def gaussian_kernel(c: float, dim: int, amplitude: float = 1.0) -> TriKernel:
    """Scalar Gaussian kernel amplitude * e^{-c r^2} * I."""
    return scalar_kernel(gaussian_profile(amplitude, c), dim,
                         tag=f"gaussian(c={c},amp={amplitude})")


def cauchy_kernel(sigma: float, dim: int) -> TriKernel:
    """Scalar rational kernel 1 / (1 + r^2 / sigma^2) * I."""
    return scalar_kernel(cauchy_profile(sigma), dim, tag=f"cauchy(sigma={sigma})")


def bessel_kernel(sigma: float, ell: float, dim: int) -> TriKernel:
    """Scalar Sobolev-type kernel of smoothness ell and width sigma, with the
    Green's function amplitude `sobolev_green_constant`."""
    prof = bessel_profile(ell - dim / 2.0, sigma, sobolev_green_constant(sigma, ell, dim))
    return scalar_kernel(prof, dim, tag=f"bessel(sigma={sigma},ell={ell})")


# ---------------------------------------------------------------------------
# constructions from scalar profiles
# ---------------------------------------------------------------------------

def make_curl_free(profile: ScalarProfile, dim: int) -> TriKernel:
    """Curl-free kernel from a scalar generator: the negative Hessian route.

    Coefficients: kpar = -profile'' , kperp = -profile'/r, so with the
    fused tuple (f, Df, D^2 f, D^3 f) kperp = -Df and ktilde = D kperp = -D^2 f,
    and D ktilde = -D^3 f.  Every field k(.)alpha of the result is a gradient,
    hence irrotational.
    """
    fused = profile.fused

    def radial(r, derivatives=False):
        _, q, g, *g1 = fused(r, 3 if derivatives else 2)
        kt = -g
        return (-q, kt, kt, -g1[0]) if derivatives else (-q, kt)

    return TriKernel(dim=dim, radial=radial, family_tag="curl_free",
                     tail_scale=profile.tail_scale,
                     generator=(profile, (0.0, 1.0, 0.0)))


def make_div_free(profile: ScalarProfile, dim: int) -> TriKernel:
    """Divergence-free kernel from a scalar generator: the double-curl route.

    Coefficients: kpar = -(d-1) profile'/r, kperp = -(d-2) profile'/r - profile'',
    so with the fused tuple (f, Df, D^2 f, D^3 f) kperp = -(d-1) Df - r^2 D^2 f,
    ktilde = D^2 f, D kperp = -(d+1) D^2 f - r^2 D^3 f and D ktilde = D^3 f.
    Every field k(.)alpha of the result is incompressible.
    """
    fused = profile.fused
    d = dim

    def radial(r, derivatives=False):
        _, q, g, *g1 = fused(r, 3 if derivatives else 2)
        r2 = np.square(r)
        kperp = -(d - 1) * q - r2 * g
        return (kperp, g, -(d + 1) * g - r2 * g1[0], g1[0]) if derivatives else (kperp, g)

    return TriKernel(dim=dim, radial=radial, family_tag="div_free",
                     tail_scale=profile.tail_scale,
                     generator=(profile, (0.0, 0.0, 1.0)))


def gaussian_hodge_pair(c: float, dim: int) -> tuple[TriKernel, TriKernel]:
    """Closed-form curl-free + divergence-free split of e^{-c r^2} * I.

    The transverse coefficient of the curl-free part is
    h(r) = lowergamma(mu+1, c r^2) / (2 c^{mu+1} r^{2mu+2}), mu = d/2 - 1,
    with Dh = h'/r = (e^{-cr^2} - d h)/r^2 = t and
    Dt = (-2c e^{-cr^2} - (d+2) t)/r^2, D = (1/r) d/dr.  The curl-free part
    has kperp = h and ktilde = t; the divergence-free part is the Gaussian
    minus it.
    Both parts decay like r^{-(2mu+2)}, much slower than the Gaussian.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    d = dim
    mu = d / 2.0 - 1.0
    # in y = -c r^2, D^j h = (-2c)^j sum y^m / (m! (d+2m+2j)) for j = 0, 1, 2;
    # below x = c r^2 = 1/2, where the closed forms of t and Dt cancel, 16 terms
    # reach 1e-18
    m = np.arange(16)
    fact = np.array([math.factorial(i) for i in m], dtype=float)
    series = [(-2.0 * c) ** j / (fact * (d + 2.0 * m + 2.0 * j)) for j in range(3)]
    poly = np.polynomial.polynomial.polyval

    def parts(r, derivatives):
        """(e^{-cr^2}, h, t[, Dt]): the series below x = 1/2, the closed forms above."""
        x = c * np.square(r)
        xs = np.maximum(x, 0.5)
        near = x < 0.5
        e = np.exp(-x)
        h = np.where(near, poly(-x, series[0]),
                     lower_gamma(mu + 1.0, xs) / (2.0 * xs ** (mu + 1.0)))
        t = np.where(near, poly(-x, series[1]), c * (e - d * h) / xs)
        if not derivatives:
            return e, h, t
        return e, h, t, np.where(near, poly(-x, series[2]), c * (-2.0 * c * e - (d + 2) * t) / xs)

    def curl_free(r, derivatives=False):
        _, h, t, *dt = parts(r, derivatives)
        return (h, t, t, dt[0]) if derivatives else (h, t)

    def div_free(r, derivatives=False):
        e, h, t, *dt = parts(r, derivatives)
        return (e - h, -t, -2.0 * c * e - t, -dt[0]) if derivatives else (e - h, -t)

    tail = 8.0 / math.sqrt(c)
    return tuple(TriKernel(dim=d, radial=radial, family_tag=f"gaussian_hodge_{tag}(c={c})",
                           tail_scale=tail)
                 for radial, tag in ((curl_free, "curl_free"), (div_free, "div_free")))


# residuals of the differential characterizations at radii r >= 0; the divergence
# and curl of single-center fields use them divided by r

def _div_factor(d: int, r, ktilde, dkperp_r, dktilde_r):
    """(d+1) ktilde + D kperp + r^2 D ktilde: the div-free residual over r."""
    return (d + 1) * ktilde + dkperp_r + np.square(r) * dktilde_r


def div_free_residual(k: TriKernel, r):
    """(d-1)(kpar - kperp)/r + kpar' = r ((d+1) ktilde + D kperp + r^2 D ktilde);
    identically 0 for div-free kernels."""
    r = np.asarray(r, dtype=float)
    return r * _div_factor(k.dim, r, *k.radial(r, True)[1:])


def curl_free_residual(k: TriKernel, r):
    """(kpar - kperp)/r - kperp' = r (ktilde - D kperp); identically 0 for
    curl-free kernels."""
    r = np.asarray(r, dtype=float)
    _, ktilde, dkperp_r, _ = k.radial(r, True)
    return r * (ktilde - dkperp_r)
