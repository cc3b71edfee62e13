"""Fourier-side analysis of TRI kernels.

The Fourier transform of a TRI kernel is again of projector form, with
radial coefficients (hpar, hperp).  The linear map taking (kpar, kperp)
to (hpar, hperp),

  hpar(p) = 2pi/p^mu  I[r^{mu+1} kpar; J_mu] - (2mu+1)/p^{mu+1} I[r^mu kdiff; J_{mu+1}],
  hperp(p) = 2pi/p^mu I[r^{mu+1} kperp; J_mu] +       1/p^{mu+1} I[r^mu kdiff; J_{mu+1}],

with mu = d/2 - 1, kdiff = kpar - kperp and I[.; J_nu] the oscillatory
integral against J_nu(2 pi p r), is an involution: the same formulas,
written once in `_transform`, take (hpar, hperp) back to (kpar, kperp).
The two J_mu integrals share their weight, order, frequencies and tail, so
they are one two-column `hankel_integral` pass: one J_mu evaluation and
one profile call (one `radial` call on the forward side) per block of
segments; the J_{mu+1} integral of the difference is the second pass.
A kernel that knows its generator, w_s f I + w_c curl(f) + w_d div(f) of
one scalar profile f, takes one pass instead: with q = 4 pi^2 p^2 and f's
transform fhat = 2pi/p^mu I[r^{mu+1} f; J_mu], its spectrum is

  hpar = (w_s + w_c q) fhat,    hperp = (w_s + w_d q) fhat,

one single-column J_mu pass.  Nonnegativity of both spectral coefficients
is equivalent to positive definiteness, and hpar = 0 / hperp = 0
characterize divergence-free / curl-free kernels.  `hodge_split` masks
hperp in physical space, where for a radial kernel the mask is two radial
integrals and no transform; a generated kernel with w_s = 0 is already
split into its curl-free and div-free terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import (ScalarProfile, TriKernel, _div_factor, ktilde, make_curl_free,
                      make_div_free)
from .specfun import (_gauss_legendre, bessel_k, hankel_integral, lower_gamma, radial_moment,
                      upper_gamma)

TWO_PI = 2.0 * math.pi

# r * tail_scale below which the inverse transform takes its analytic r -> 0
# limit: on that scale the kernel has not yet moved from k0
SMALL_R_LIMIT = 2e-3


class HeavyTailWarning(UserWarning):
    """Hodge components decay so slowly that truncation is visible."""


@dataclass(frozen=True)
class Spectrum:
    """Radial coefficient pair of a kernel's Fourier transform.

    h_par, h_perp : vectorized callables of the radial frequency.
    rho_grid / samples : present for tabulated spectra.
    tail_scale : frequency beyond which both coefficients are negligible.
    """

    dim: int
    h_par: Callable
    h_perp: Callable
    tail_scale: float
    rho_grid: Optional[np.ndarray] = None
    h_par_samples: Optional[np.ndarray] = None
    h_perp_samples: Optional[np.ndarray] = None

    @property
    def mu(self) -> float:
        return self.dim / 2.0 - 1.0


@dataclass(frozen=True)
class PdVerdict:
    """Sampled positive-definiteness certificate.

    A grid certificate, not a proof: `positive` means neither spectral
    coefficient dips below -tol on the sampled frequencies, `strictly`
    additionally requires some sample above +tol.
    """

    positive: bool
    strictly: bool
    min_h_par: float
    min_h_perp: float
    witness_rho: float
    tol: float
    rho_min: float
    rho_max: float
    n_grid: int


def _grid_for(k: TriKernel) -> np.ndarray:
    """Default grid: 256 log-spaced frequencies on [1e-3, 20], scaled by the
    kernel's length constant so that unit-width kernels get scale 1."""
    scale = 7.0 / k.tail_scale
    return np.geomspace(1e-3 * scale, 20.0 * scale, 256)


def _spline(grid, samples):
    """Cubic spline through samples on a grid, held at its first sample below
    it and zero above.  scipy's CubicSpline is built on the first evaluation:
    scipy.interpolate adds ~20 MB of resident memory to a process that only
    reads the samples."""
    lo, hi = float(grid[0]), float(grid[-1])
    spline = None

    def evaluate(r):
        nonlocal spline
        if spline is None:
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(grid, samples)
        r = np.asarray(r, dtype=float)
        out = np.where(r > hi, 0.0, spline(np.clip(r, lo, hi)))
        return out[()] if out.ndim == 0 else out

    return evaluate


def _tail_scale_from_samples(grid, *columns) -> float:
    mag = np.max(np.abs(columns), axis=0)
    peak = mag.max()
    if peak == 0.0:
        return float(grid[-1])
    # quadrature noise sits near 4e-16 of the peak: samples at or below it say nothing
    alive = np.nonzero(mag >= 1e-14 * peak)[0]
    return float(grid[min(alive[-1] + 1, len(grid) - 1)])


def _transform(pair, diff, mu, x, tail):
    """The coefficient transform of (par, perp) at an array x > 0.

    pair(r) gives the rows (par, perp), which share one J_mu pass, and
    diff = par - perp the J_{mu+1} one.  The same formulas take kernel
    coefficients to spectral ones (x a frequency) and spectral ones back
    (x a radius).
    """
    w = TWO_PI * x
    i_pair = hankel_integral(pair, mu + 1.0, mu, w, tail_hint=tail)
    i_diff = hankel_integral(diff, mu, mu + 1.0, w, tail_hint=tail)
    lead = TWO_PI / x ** mu
    cross = i_diff / x ** (mu + 1.0)
    return lead * i_pair[..., 0] - (2.0 * mu + 1.0) * cross, lead * i_pair[..., 1] + cross


def _quadrature_pair(k: TriKernel, rho):
    """(hpar, hperp) of k at frequencies rho, and the quadrature results
    they are weighted from, whose noise floor marks the spectrum's tail."""
    rho = np.asarray(rho, dtype=float)
    if k.generator is None:
        def pair(r):
            kperp, kt = k.radial(r)
            return np.stack([kperp + np.square(r) * kt, kperp])

        hp, hq = _transform(pair, lambda r: np.square(r) * ktilde(k, r), k.mu, rho, k.tail_scale)
        return hp, hq, (hp, hq)
    profile, (ws, wc, wd) = k.generator
    mu = k.mu
    f_hat = TWO_PI / rho ** mu * hankel_integral(lambda r: profile.fused(r, 0)[0], mu + 1.0, mu,
                                                TWO_PI * rho, tail_hint=profile.tail_scale)
    q = np.square(TWO_PI * rho)
    # + 0.0 writes the -0.0 of a zero weight times a negative sample as +0.0
    return (ws + wc * q) * f_hat + 0.0, (ws + wd * q) * f_hat + 0.0, (f_hat,)


def spectral_pair_at(k: TriKernel, rho):
    """(hpar, hperp) of kernel k by quadrature, at one frequency or an array.

    An array of frequencies gives two arrays of its shape; a scalar
    frequency gives two floats.  A kernel with a generator takes one
    whole-grid J_mu pass of its profile f and weights f's transform.  A
    generic kernel takes two: the J_mu pass reads kpar = kperp + r^2 ktilde
    and kperp from one `radial` call, and kpar - kperp enters the J_{mu+1}
    pass as r^2 ktilde, which does not cancel near r = 0.
    """
    return _quadrature_pair(k, rho)[:2]


def forward_map(k: TriKernel, rho_grid=None) -> Spectrum:
    """Spectral coefficients of k, tabulated on a frequency grid.

    Requires the coefficients to be integrable against r^{d-1}; quadrature
    failures propagate as HankelConvergenceError.
    """
    if rho_grid is None:
        rho_grid = _grid_for(k)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(rho_grid <= 0):
        raise ValueError("rho grid must be positive")
    hp, hq, quadrature = _quadrature_pair(k, rho_grid)
    return Spectrum(
        dim=k.dim,
        h_par=_spline(rho_grid, hp),
        h_perp=_spline(rho_grid, hq),
        tail_scale=_tail_scale_from_samples(rho_grid, *quadrature),
        rho_grid=rho_grid,
        h_par_samples=hp,
        h_perp_samples=hq,
    )


def inverse_limits(s: Spectrum) -> float:
    """Common r -> 0 limit of both inverted coefficients (the kernel's k0)."""
    mu = s.mu

    def par_and_diff(p):
        h_par = s.h_par(p)
        return np.stack([h_par, h_par - s.h_perp(p)])

    m_par, m_diff = radial_moment(par_and_diff, 2.0 * mu + 1.0, tail_hint=s.tail_scale)
    lead = 2.0 * math.pi ** (mu + 1.0) / math.gamma(mu + 1.0)
    cross = (2.0 * mu + 1.0) * math.pi ** (mu + 1.0) / math.gamma(mu + 2.0)
    return lead * m_par - cross * m_diff


def inverse_map(s: Spectrum, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Spatial coefficients (kpar, kperp) of a spectrum, sampled on r_grid.

    The transform is an involution, so this is the forward one applied to
    (hpar, hperp).  Radii with r * s.tail_scale below SMALL_R_LIMIT return
    the analytic r -> 0 limit, where the oscillatory factors degenerate.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid < 0):
        raise ValueError("r grid must be nonnegative")
    small = r_grid * s.tail_scale < SMALL_R_LIMIT
    kp, kq = np.empty_like(r_grid), np.empty_like(r_grid)
    if small.any():
        kp[small] = kq[small] = inverse_limits(s)
    kp[~small], kq[~small] = _transform(lambda p: np.stack([s.h_par(p), s.h_perp(p)]),
                                        lambda p: s.h_par(p) - s.h_perp(p),
                                        s.mu, r_grid[~small], s.tail_scale)
    return kp, kq


def certify_pd(k: TriKernel, rho_grid=None, tol: float = 1e-8) -> PdVerdict:
    """Sampled positive-definiteness certificate from the signs of the
    spectral samples that `forward_map` tabulates on rho_grid."""
    s = forward_map(k, rho_grid)
    grid, hp, hq = s.rho_grid, s.h_par_samples, s.h_perp_samples
    min_par, min_perp = float(hp.min()), float(hq.min())
    if min_par <= min_perp:
        witness = float(grid[int(np.argmin(hp))])
    else:
        witness = float(grid[int(np.argmin(hq))])
    positive = min_par >= -tol and min_perp >= -tol
    strictly = positive and (hp.max() > tol or hq.max() > tol)
    return PdVerdict(positive=positive, strictly=strictly,
                     min_h_par=min_par, min_h_perp=min_perp,
                     witness_rho=witness, tol=tol,
                     rho_min=float(grid[0]), rho_max=float(grid[-1]),
                     n_grid=len(grid))


def spectrum_matrix(s: Spectrum, xi) -> np.ndarray:
    """The transformed kernel's d x d matrix at frequency vector xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (s.dim,):
        raise ValueError(f"expected a vector of length {s.dim}")
    rho = float(np.linalg.norm(xi))
    if rho == 0.0:
        raise ValueError("spectral matrix is defined for xi != 0")
    par = np.outer(xi, xi) / (rho * rho)
    return float(s.h_par(rho)) * par + float(s.h_perp(rho)) * (np.eye(s.dim) - par)


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def gaussian_spectrum(c: float, dim: int, amplitude: float = 1.0) -> Spectrum:
    """Spectrum of the scalar Gaussian amplitude * e^{-c r^2} * I."""
    mu = dim / 2.0 - 1.0
    A = amplitude * (math.pi / c) ** (mu + 1.0)

    def h(rho):
        return A * np.exp(-math.pi ** 2 * np.square(rho) / c)

    return Spectrum(dim=dim, h_par=h, h_perp=h, tail_scale=math.sqrt(44.0 * c) / math.pi)


def cauchy_spectrum(sigma: float, dim: int) -> Spectrum:
    """Spectrum of the scalar rational kernel 1/(1 + r^2/sigma^2) * I."""
    mu = dim / 2.0 - 1.0

    def h(rho):
        rho = np.asarray(rho, dtype=float)
        return TWO_PI * sigma ** 2 * (sigma / rho) ** mu * bessel_k(mu, TWO_PI * sigma * rho)

    return Spectrum(dim=dim, h_par=h, h_perp=h, tail_scale=8.0 / sigma)


def example1_spectrum(a: float, b: float, c: float, dim: int) -> Spectrum:
    """Closed-form spectrum of the first Gaussian family."""
    mu = dim / 2.0 - 1.0
    lead = (math.pi / c) ** (mu + 1.0)
    const = b - (2.0 * mu + 1.0) * a / (2.0 * c)
    quad = a * math.pi ** 2 / c ** 2
    env = lambda rho: np.exp(-math.pi ** 2 * np.square(rho) / c)
    return Spectrum(
        dim=dim,
        h_par=lambda rho: lead * const * env(rho),
        h_perp=lambda rho: lead * (const + quad * np.square(rho)) * env(rho),
        tail_scale=math.sqrt(48.0 * c) / math.pi,
    )


def example2_spectrum(a: float, b: float, c: float, dim: int) -> Spectrum:
    """Closed-form spectrum of the second Gaussian family."""
    mu = dim / 2.0 - 1.0
    lead = (math.pi / c) ** (mu + 1.0)
    const = b - a / (2.0 * c)
    quad = a * math.pi ** 2 / c ** 2
    env = lambda rho: np.exp(-math.pi ** 2 * np.square(rho) / c)
    return Spectrum(
        dim=dim,
        h_par=lambda rho: lead * (const + quad * np.square(rho)) * env(rho),
        h_perp=lambda rho: lead * const * env(rho),
        tail_scale=math.sqrt(48.0 * c) / math.pi,
    )


def mixed_gaussian_spectrum(c1: float, c2: float, dim: int) -> Spectrum:
    """Spectrum of the kernel with kpar = e^{-c1 r^2}, kperp = e^{-c2 r^2}.

    Positive definite only when c1 = c2 (the scalar case): for c1 < c2 the
    longitudinal coefficient eventually goes negative, and symmetrically
    for the transverse one.  The incomplete-gamma difference is computed
    from the lower integrals for small arguments and the upper ones for
    large, to dodge cancellation on either end.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    mu = dim / 2.0 - 1.0

    def gamma_diff(rho):
        # upper(mu+1, x2) - upper(mu+1, x1) = lower(mu+1, x1) - lower(mu+1, x2)
        rho = np.asarray(rho, dtype=float)
        x1 = math.pi ** 2 * np.square(rho) / c1
        x2 = math.pi ** 2 * np.square(rho) / c2
        small = np.maximum(x1, x2) < mu + 2.0
        lower = lower_gamma(mu + 1.0, x1) - lower_gamma(mu + 1.0, x2)
        upper = upper_gamma(mu + 1.0, x2) - upper_gamma(mu + 1.0, x1)
        return np.where(small, lower, upper)

    # finite rho -> 0 limits of the gamma-difference terms
    lim_par = ((2.0 * mu + 1.0) * math.pi ** (mu + 1.0) / (2.0 * (mu + 1.0))
               * (1.0 / c2 ** (mu + 1.0) - 1.0 / c1 ** (mu + 1.0)))
    lim_perp = (-math.pi ** (mu + 1.0) / (2.0 * (mu + 1.0))
                * (1.0 / c2 ** (mu + 1.0) - 1.0 / c1 ** (mu + 1.0)))

    def h_par(rho):
        rho = np.asarray(rho, dtype=float)
        rs = np.maximum(rho, 1e-8)
        main = (math.pi / c1) ** (mu + 1.0) * np.exp(-math.pi ** 2 * np.square(rs) / c1)
        corr = -(2.0 * mu + 1.0) / (2.0 * math.pi ** (mu + 1.0) * rs ** (2.0 * mu + 2.0)) \
            * gamma_diff(rs)
        out = main + corr
        return np.where(rho < 1e-8, main + lim_par, out)

    def h_perp(rho):
        rho = np.asarray(rho, dtype=float)
        rs = np.maximum(rho, 1e-8)
        main = (math.pi / c2) ** (mu + 1.0) * np.exp(-math.pi ** 2 * np.square(rs) / c2)
        corr = 1.0 / (2.0 * math.pi ** (mu + 1.0) * rs ** (2.0 * mu + 2.0)) * gamma_diff(rs)
        out = main + corr
        return np.where(rho < 1e-8, main + lim_perp, out)

    return Spectrum(dim=dim, h_par=h_par, h_perp=h_perp,
                    tail_scale=math.sqrt(48.0 * max(c1, c2)) / math.pi)


# ---------------------------------------------------------------------------
# Hodge decomposition
# ---------------------------------------------------------------------------

def _zero_radial(r, derivatives=False):
    return tuple(np.zeros(np.shape(r)) for _ in range(4 if derivatives else 2))


def _generated_parts(k: TriKernel) -> tuple[TriKernel, TriKernel]:
    """The terms w_c curl(f) and w_d div(f) of a generated k with w_s = 0."""
    profile, (_, wc, wd) = k.generator
    if wc != 0.0 and wd != 0.0:
        def scaled(w):
            return ScalarProfile(lambda r, order=3: [w * v for v in profile.fused(r, order)],
                                 profile.tail_scale)

        return make_curl_free(scaled(wc), k.dim), make_div_free(scaled(wd), k.dim)
    zero = TriKernel(dim=k.dim, radial=_zero_radial, family_tag="zero",
                     tail_scale=k.tail_scale)
    return (k, zero) if wd == 0.0 else (zero, k)


def hodge_split(k: TriKernel, r_grid=None) -> tuple[TriKernel, TriKernel]:
    """Split k into its curl-free and divergence-free kernel components.

    With D = (1/r) d/dr and k's divergence factor
    B = (d+1) ktilde + D kperp + r^2 D ktilde, the div-free residual over r,
    the curl-free part has kperp = -q, ktilde = D kperp = -G and
    D ktilde = ((d+2) G + B)/r^2 for G = -r^{-(d+2)} int_0^r s^{d+1} B,
    M = int_r^inf s ktilde and q = (-kpar + (d-1) M - r^2 G)/d.  With k
    taken to vanish beyond the last node R, both end at min(r, R): beyond R,
    M = 0 and G is the multipole.  At any r each is a 16-point
    Gauss-Legendre sum, of the panels between the nodes {0} and r_grid up to
    min(r, R), tabulated once, and of one panel from the last node to
    min(r, R), one `radial` call.  Below 1e-6 r_grid[0], G and D ktilde hold
    their limits at 0.  Above, the numerator of D ktilde cancels as r -> 0:
    r^2 D ktilde, the product every consumer forms, is exact to rounding,
    and D ktilde alone carries an error of order 1e-16 |B| / r^2.  The
    divergence-free part is the exact complement k - curl_free, so the parts
    sum to k to rounding.  Both decay like r^{-d} even for a Gaussian k; a
    HeavyTailWarning signals truncation at R visible at the 1e-3 * k0 level.

    A generated kernel w_c curl(f) + w_d div(f), with w_s = 0, is split
    exactly and without integrals: into (k, 0) when w_d = 0, (0, k) when
    w_c = 0, and the constructions of the profiles w_c f and w_d f otherwise.
    r_grid defaults to 512 log-spaced radii on [1e-3, 24] * k.tail_scale / 7.
    """
    if r_grid is None:
        scale = k.tail_scale / 7.0
        r_grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)
    r_grid = np.asarray(r_grid, dtype=float)
    if (r_grid.ndim != 1 or r_grid.size == 0 or not np.all(np.isfinite(r_grid))
            or r_grid[0] <= 0 or np.any(np.diff(r_grid) <= 0)):
        raise ValueError("r grid must be finite, positive and strictly increasing")
    if k.generator is not None and k.generator[1][0] == 0.0:
        return _generated_parts(k)
    d, whole = k.dim, k.radial
    t, w = _gauss_legendre(16)

    def integrals(a, b):
        """int_a^b s^(d+1) B and int_a^b s ktilde on one 16-point panel per
        pair of bounds, from one radial call.  Each row is summed on its own,
        so equal bounds give equal sums wherever they sit in the batch."""
        half = (b - a)[..., None] / 2.0
        s = a[..., None] + half * (1.0 + t)
        _, kt, *dk = whole(s, True)
        return (np.einsum("...k,k->...", half * s ** (d + 1) * _div_factor(d, s, kt, *dk), w),
                np.einsum("...k,k->...", half * s * kt, w))

    nodes = np.concatenate([[0.0], r_grid])
    inner, m = integrals(nodes[:-1], nodes[1:])
    inner = np.append(0.0, np.cumsum(inner))
    m = np.append(np.cumsum(m[::-1])[::-1], 0.0)
    # B is even, B0 + B2 r^2 + O(r^4), so G(0) = -B0/(d+2) and D ktilde(0) =
    # 2 B2/(d+4): from B at eps and at a tenth of the first node
    eps, rho = 1e-6 * r_grid[0], 0.1 * r_grid[0]
    small = np.array([eps, rho])
    b_eps, b_rho = _div_factor(d, small, *whole(small, True)[1:])
    g0 = -b_eps / (d + 2)
    dkt0 = 2.0 * (b_rho - b_eps) / ((d + 4) * (rho * rho - eps * eps))
    R = float(r_grid[-1])

    def radial(r, derivatives=False):
        kperp, kt, *dk = whole(r, derivatives)
        end = np.minimum(r, R)
        i = np.searchsorted(nodes, end, side="right") - 1
        panel_inner, panel_m = integrals(nodes[i], end)
        G = np.where(r < eps, g0, -(inner[i] + panel_inner) / np.maximum(r, eps) ** (d + 2))
        M = m[i] - panel_m
        r2 = np.square(r)
        q = ((d - 1) * M - kperp - r2 * (kt + G)) / d
        if not derivatives:
            return -q, -G
        quotient = ((d + 2) * G + _div_factor(d, r, kt, *dk)) / np.maximum(r2, eps * eps)
        return -q, -G, -G, np.where(r < eps, dkt0, quotient)

    curl_free = TriKernel(dim=d, radial=radial, family_tag=f"curl_free_component({k.family_tag})",
                          tail_scale=R)

    def complement(r, derivatives=False):
        return tuple(a - b for a, b in zip(whole(r, derivatives), radial(r, derivatives)))

    div_free = TriKernel(dim=d, radial=complement, family_tag=f"div_free_component({k.family_tag})",
                         tail_scale=R)

    tail_mag = max(abs(float(curl_free.k_perp(R))), abs(float(div_free.k_par(R))))
    if tail_mag * R * R > 1e-3 * abs(k.k0):
        warnings.warn(
            "Hodge components decay like r^-(d) here; truncation at "
            f"r={R:.3g} is visible at the 1e-3*k0 level",
            HeavyTailWarning, stacklevel=2)
    return curl_free, div_free


def hodge_orthogonality(k1: TriKernel, k2: TriKernel, radius: float) -> tuple[float, float, float]:
    """Truncated-domain L2 pairing of the fields x -> k1(x)e1 and k2(x)e1.

    The pairing and both squared norms are moments of the angle-averaged
    products (k1par k2par + (d-1) k1perp k2perp)/d, set to zero beyond R,
    from one `radial_moment` call whose geometric panels end at R: the
    reading is the same at every kernel width.  Returns (inner, norm1,
    norm2).  The pairing vanishes over all of R^d; over a ball of radius R
    the r^{-(2mu+2)} component tails leave a defect of order 1/R^2 relative.
    """
    d = k1.dim
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

    def products(r):
        p1, q1, p2, q2 = k1.k_par(r), k1.k_perp(r), k2.k_par(r), k2.k_perp(r)
        rows = np.stack([p1 * p2 + (d - 1) * q1 * q2, p1 * p1 + (d - 1) * q1 * q1,
                         p2 * p2 + (d - 1) * q2 * q2]) / d
        return np.where(r <= radius, rows, 0.0)

    inner, sq1, sq2 = surf * radial_moment(products, d - 1, tail_hint=radius)
    return float(inner), math.sqrt(max(sq1, 0.0)), math.sqrt(max(sq2, 0.0))
