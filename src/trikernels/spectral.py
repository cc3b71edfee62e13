"""Fourier-side analysis of TRI kernels.

The Fourier transform of a TRI kernel is again of projector form, with
radial coefficients (hpar, hperp).  The linear map taking (kpar, kperp)
to (hpar, hperp),

  hpar(p) = 2pi/p^mu  I[r^{mu+1} kpar; J_mu] - (2mu+1)/p^{mu+1} I[r^mu kdiff; J_{mu+1}],
  hperp(p) = 2pi/p^mu I[r^{mu+1} kperp; J_mu] +       1/p^{mu+1} I[r^mu kdiff; J_{mu+1}],

with mu = d/2 - 1, kdiff = kpar - kperp and I[.; J_nu] the oscillatory
integral against J_nu(2 pi p r), is an involution: the same formulas,
written once in `_transform`, take (hpar, hperp) back to (kpar, kperp).
Nonnegativity of both spectral coefficients is equivalent to positive
definiteness, and hpar = 0 / hperp = 0 characterize divergence-free /
curl-free kernels, which makes the Hodge decomposition a matter of
masking one coefficient and transforming back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .kernels import TriKernel, ktilde
from .specfun import hankel_integral, radial_moment

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


def default_rho_grid(scale: float = 1.0, n: int = 256,
                     lo: float = 1e-3, hi: float = 20.0) -> np.ndarray:
    """Log-spaced frequency grid, scaled by the kernel's length constant."""
    return np.geomspace(lo * scale, hi * scale, n)


def _grid_for(k: TriKernel) -> np.ndarray:
    """Default grid scaled so unit-width kernels get scale 1."""
    scale = 7.0 / k.tail_scale if np.isfinite(k.tail_scale) and k.tail_scale > 0 else 1.0
    return default_rho_grid(scale=scale)


def _cubic_spline(x, y):
    """scipy's CubicSpline, imported on first use: scipy.interpolate adds
    ~20 MB of resident memory to a process that never tabulates a spectrum."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(x, y)


def _spline(grid, samples, head, power=0.0, derivative=False):
    """Cubic spline through samples on a grid, held at `head` below it.

    Above the grid it continues as the tail samples[-1] (grid[-1]/r)^power
    matched at the grid end when a `power` is given, and as zero otherwise.
    With `derivative`, returns the pair (value, derivative); the
    derivative's head is zero.
    """
    spline = _cubic_spline(grid, samples)
    lo, hi = float(grid[0]), float(grid[-1])
    coef = float(samples[-1]) * hi ** power

    def piecewise(inside, below, tail):
        def evaluate(r):
            r = np.asarray(r, dtype=float)
            out = inside(np.clip(r, lo, hi))
            out = np.where(r < lo, below, out)
            out = np.where(r > hi, tail(np.maximum(r, hi)) if power else 0.0, out)
            return out[()] if out.ndim == 0 else out

        return evaluate

    value = piecewise(spline, head, lambda r: coef / r ** power)
    if not derivative:
        return value
    return value, piecewise(spline.derivative(), 0.0,
                            lambda r: -power * coef / r ** (power + 1.0))


def _tail_scale_from_samples(grid, a, b) -> float:
    mag = np.maximum(np.abs(a), np.abs(b))
    peak = mag.max()
    if peak == 0.0:
        return float(grid[-1])
    # quadrature noise sits near 4e-16 of the peak: samples at or below it say nothing
    alive = np.nonzero(mag >= 1e-14 * peak)[0]
    return float(grid[min(alive[-1] + 1, len(grid) - 1)])


def _transform(par, perp, diff, mu, x, tail):
    """The coefficient transform of (par, perp) at an array x > 0.

    diff = par - perp.  The same formulas take kernel coefficients to
    spectral ones (x a frequency) and spectral ones back (x a radius).
    """
    w = TWO_PI * x
    i_par = hankel_integral(par, mu + 1.0, mu, w, tail_hint=tail)
    i_perp = hankel_integral(perp, mu + 1.0, mu, w, tail_hint=tail)
    i_diff = hankel_integral(diff, mu, mu + 1.0, w, tail_hint=tail)
    lead = TWO_PI / x ** mu
    cross = i_diff / x ** (mu + 1.0)
    return lead * i_par - (2.0 * mu + 1.0) * cross, lead * i_perp + cross


def spectral_pair_at(k: TriKernel, rho):
    """(hpar, hperp) of kernel k by quadrature, at one frequency or an array.

    An array of frequencies takes one whole-grid pass per integrand and
    gives two arrays of its shape; a scalar frequency gives two floats.
    kpar - kperp enters as r^2 ktilde, which does not cancel near r = 0.
    """
    return _transform(k.k_par, k.k_perp, lambda r: np.square(r) * ktilde(k, r),
                      k.mu, np.asarray(rho, dtype=float), k.tail_scale)


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
    hp, hq = spectral_pair_at(k, rho_grid)
    return Spectrum(
        dim=k.dim,
        h_par=_spline(rho_grid, hp, float(hp[0])),
        h_perp=_spline(rho_grid, hq, float(hq[0])),
        tail_scale=_tail_scale_from_samples(rho_grid, hp, hq),
        rho_grid=rho_grid,
        h_par_samples=hp,
        h_perp_samples=hq,
    )


def inverse_limits(s: Spectrum) -> float:
    """Common r -> 0 limit of both inverted coefficients (the kernel's k0)."""
    mu = s.mu
    m_par = radial_moment(s.h_par, 2.0 * mu + 1.0, tail_hint=s.tail_scale)
    m_diff = radial_moment(lambda p: s.h_par(p) - s.h_perp(p), 2.0 * mu + 1.0,
                           tail_hint=s.tail_scale)
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
    kp[~small], kq[~small] = _transform(s.h_par, s.h_perp, lambda p: s.h_par(p) - s.h_perp(p),
                                        s.mu, r_grid[~small], s.tail_scale)
    return kp, kq


def certify_pd(k: TriKernel, rho_grid=None, tol: float = 1e-8) -> PdVerdict:
    """Sampled positive-definiteness certificate from the spectral signs."""
    return certify_spectrum(forward_map(k, rho_grid), tol)


def certify_spectrum(s: Spectrum, tol: float = 1e-8) -> PdVerdict:
    """Certificate straight from a Spectrum (closed-form or tabulated)."""
    if s.rho_grid is not None:
        grid = s.rho_grid
        hp = s.h_par_samples
        hq = s.h_perp_samples
    else:
        grid = default_rho_grid()
        hp = np.asarray(s.h_par(grid), dtype=float)
        hq = np.asarray(s.h_perp(grid), dtype=float)
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
        from scipy import special as sp

        rho = np.asarray(rho, dtype=float)
        return TWO_PI * sigma ** 2 * (sigma / rho) ** mu * sp.kv(mu, TWO_PI * sigma * rho)

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
    gnum = math.gamma(mu + 1.0)

    def gamma_diff(rho):
        # upper(mu+1, x2) - upper(mu+1, x1) = lower(mu+1, x1) - lower(mu+1, x2)
        from scipy import special as sp

        rho = np.asarray(rho, dtype=float)
        x1 = math.pi ** 2 * np.square(rho) / c1
        x2 = math.pi ** 2 * np.square(rho) / c2
        small = np.maximum(x1, x2) < mu + 2.0
        lower = gnum * (sp.gammainc(mu + 1.0, x1) - sp.gammainc(mu + 1.0, x2))
        upper = gnum * (sp.gammaincc(mu + 1.0, x2) - sp.gammaincc(mu + 1.0, x1))
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

def _curl_free_part(s: Spectrum, r_grid: np.ndarray, k: TriKernel) -> TriKernel:
    """The kernel of the h_perp-masked spectrum, splined on r_grid with its tail."""
    kp, kq = inverse_map(s, r_grid)
    k0 = inverse_limits(s)
    power = 2.0 * s.mu + 2.0
    vp, dp = _spline(r_grid, kp, k0, power, derivative=True)
    vq, dq = _spline(r_grid, kq, k0, power, derivative=True)
    lo = float(r_grid[0])
    # quadratic small-r limit of (kpar - kperp)/r^2 by extrapolation
    probe = max(2.0 * lo, 1e-2 * r_grid[-1] / 24.0)
    t1 = (vp(probe) - vq(probe)) / probe ** 2
    t2 = (vp(2 * probe) - vq(2 * probe)) / (4 * probe ** 2)
    small_kt = float((4.0 * t1 - t2) / 3.0)

    def radial(r, derivatives=False):
        # below the grid the spline heads give (k0, k0, 0, 0): ktilde takes its limit there
        rs = np.maximum(r, lo)
        kperp = vq(r)
        kt = np.where(r < lo, small_kt, (vp(rs) - kperp) / np.square(rs))
        if not derivatives:
            return kperp, kt
        return kperp, kt, dp(r), dq(r)

    return TriKernel(dim=k.dim, radial=radial, family_tag=f"curl_free_component({k.family_tag})",
                     tail_scale=float(r_grid[-1]), pd_hint=k.pd_hint)


def hodge_split(k: TriKernel, r_grid=None, rho_grid=None) -> tuple[TriKernel, TriKernel]:
    """Split k into its curl-free and divergence-free kernel components.

    The spectrum is tabulated, its h_perp masked, and the masked spectrum
    transformed back onto r_grid: the curl-free part carries cubic-spline
    profiles with a matched r^{-(2mu+2)} tail beyond the grid.  The
    divergence-free part is the exact complement k - curl_free, coefficient
    by coefficient and derivatives included, so the parts sum to k to
    rounding at every radius.  Components of generic kernels decay like
    r^{-(2mu+2)} even when k itself is Gaussian; a HeavyTailWarning signals
    when truncation at the grid end is visible at the 1e-3 * k0 level.
    """
    if r_grid is None:
        scale = k.tail_scale / 7.0 if np.isfinite(k.tail_scale) else 1.0
        r_grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)
    r_grid = np.asarray(r_grid, dtype=float)
    s = forward_map(k, rho_grid)
    zero = lambda rho: np.zeros_like(np.asarray(rho, dtype=float))
    masked = replace(s, h_perp=zero, h_perp_samples=np.zeros_like(s.h_par_samples))
    curl_free = _curl_free_part(masked, r_grid, k)
    whole, part = k.radial, curl_free.radial

    def complement(r, derivatives=False):
        return tuple(a - b for a, b in zip(whole(r, derivatives), part(r, derivatives)))

    div_free = TriKernel(dim=k.dim, radial=complement,
                         family_tag=f"div_free_component({k.family_tag})",
                         tail_scale=float(r_grid[-1]), pd_hint=k.pd_hint)

    tail_mag = max(abs(float(curl_free.k_perp(r_grid[-1]))),
                   abs(float(div_free.k_par(r_grid[-1]))))
    if tail_mag * r_grid[-1] ** 2 > 1e-3 * abs(k.k0):
        warnings.warn(
            "Hodge components decay like r^-(d) here; truncation at "
            f"r={r_grid[-1]:.3g} is visible at the 1e-3*k0 level",
            HeavyTailWarning, stacklevel=2)
    return curl_free, div_free


def hodge_orthogonality(k1: TriKernel, k2: TriKernel, radius: float,
                        n_r: int | None = None) -> tuple[float, float, float]:
    """Truncated-domain L2 pairing of the fields x -> k1(x)e1 and k2(x)e1.

    Reduces to a radial trapezoid integral: the angular average of the
    field dot product is (k1par k2par + k1perp k2perp)/2 in the plane and
    the analogue in higher dimension.  Returns (inner, norm1, norm2).
    The pairing vanishes over all of R^d; over a ball of radius R the
    r^{-(2mu+2)} component tails leave a defect of order 1/R^2 relative.
    """
    d = k1.dim
    if n_r is None:
        n_r = max(4000, int(200 * radius))
    r = np.linspace(1e-6, radius, n_r)
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    w = surf * r ** (d - 1)
    # angular averages of (e1 . xhat)^2 and its complement
    c_par = 1.0 / d
    c_perp = 1.0 - 1.0 / d
    p1, q1 = k1.k_par(r), k1.k_perp(r)
    p2, q2 = k2.k_par(r), k2.k_perp(r)
    inner = float(np.trapezoid(w * (c_par * p1 * p2 + c_perp * q1 * q2), r))
    n1 = math.sqrt(max(float(np.trapezoid(w * (c_par * p1 * p1 + c_perp * q1 * q1), r)), 0.0))
    n2 = math.sqrt(max(float(np.trapezoid(w * (c_par * p2 * p2 + c_perp * q2 * q2), r)), 0.0))
    return inner, n1, n2
