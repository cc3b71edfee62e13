"""Fourier-side analysis of TRI kernels.

The Fourier transform of a TRI kernel is again of projector form, with
radial coefficients (hpar, hperp).  The linear map taking (kpar, kperp)
to (hpar, hperp),

  hpar(p) = 2pi/p^mu  I[r^{mu+1} kpar; J_mu] - (2mu+1)/p^{mu+1} I[r^{mu+2} kt; J_{mu+1}],
  hperp(p) = 2pi/p^mu I[r^{mu+1} kperp; J_mu] +       1/p^{mu+1} I[r^{mu+2} kt; J_{mu+1}],

with mu = d/2 - 1, kt = (kpar - kperp)/r^2 and I[.; J_nu] the oscillatory
integral against J_nu(2 pi p r), is an involution: applying the same
formulas to (hpar, hperp) returns (kpar, kperp).  Nonnegativity of both
spectral coefficients is equivalent to positive definiteness, and
hpar = 0 / hperp = 0 characterize divergence-free / curl-free kernels,
which makes the Hodge decomposition a matter of masking one coefficient
and transforming back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import special as sp
from scipy.interpolate import CubicSpline

from .kernels import TriKernel, ktilde
from .specfun import DEFAULT_QUAD, HankelQuadConfig, hankel_integral, radial_moment

TWO_PI = 2.0 * math.pi

# radius below which the inverse transform switches to its analytic limit
SMALL_R_LIMIT = 1e-3


class HeavyTailWarning(UserWarning):
    """Hodge components decay so slowly that truncation is visible."""


@dataclass(frozen=True)
class Spectrum:
    """Radial coefficient pair of a kernel's Fourier transform.

    h_par, h_perp : vectorized callables of the radial frequency.
    provenance : "closed-form" or "tabulated-from-quadrature".
    rho_grid / samples : present for tabulated spectra.
    tail_scale : frequency beyond which both coefficients are negligible.
    """

    dim: int
    h_par: Callable
    h_perp: Callable
    provenance: str
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


class _TabulatedRadial:
    """Spline over log-spaced samples, constant below and zero above."""

    def __init__(self, grid: np.ndarray, samples: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.spline = CubicSpline(self.grid, self.samples)
        self.lo = float(self.grid[0])
        self.hi = float(self.grid[-1])
        self.left = float(self.samples[0])

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = self.spline(np.clip(rho, self.lo, self.hi))
        out = np.where(rho < self.lo, self.left, out)
        out = np.where(rho > self.hi, 0.0, out)
        return out[()] if out.ndim == 0 else out


def _tail_scale_from_samples(grid, a, b) -> float:
    mag = np.maximum(np.abs(a), np.abs(b))
    peak = mag.max()
    if peak == 0.0:
        return float(grid[-1])
    alive = np.nonzero(mag >= 1e-17 * peak)[0]
    return float(grid[min(alive[-1] + 1, len(grid) - 1)])


def spectral_pair_at(k: TriKernel, rho, cfg: HankelQuadConfig = DEFAULT_QUAD):
    """(hpar, hperp) of kernel k by quadrature, at one frequency or an array.

    An array of frequencies takes one whole-grid pass per integrand and
    gives two arrays of its shape; a scalar frequency gives two floats.
    """
    mu = k.mu
    rho = np.asarray(rho, dtype=float)
    w = TWO_PI * rho
    i_par = hankel_integral(k.k_par, mu + 1.0, mu, w, cfg, tail_hint=k.tail_scale)
    i_perp = hankel_integral(k.k_perp, mu + 1.0, mu, w, cfg, tail_hint=k.tail_scale)
    i_t = hankel_integral(lambda r: ktilde(k, r), mu + 2.0, mu + 1.0, w, cfg,
                          tail_hint=k.tail_scale)
    lead = TWO_PI / rho ** mu
    cross = i_t / rho ** (mu + 1.0)
    return (lead * i_par - (2.0 * mu + 1.0) * cross,
            lead * i_perp + cross)


def forward_map(k: TriKernel, rho_grid=None,
                cfg: HankelQuadConfig = DEFAULT_QUAD) -> Spectrum:
    """Spectral coefficients of k, tabulated on a frequency grid.

    Requires the coefficients to be integrable against r^{d-1}; quadrature
    failures propagate as HankelConvergenceError.
    """
    if rho_grid is None:
        rho_grid = _grid_for(k)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(rho_grid <= 0):
        raise ValueError("rho grid must be positive")
    hp, hq = spectral_pair_at(k, rho_grid, cfg)
    return Spectrum(
        dim=k.dim,
        h_par=_TabulatedRadial(rho_grid, hp),
        h_perp=_TabulatedRadial(rho_grid, hq),
        provenance="tabulated-from-quadrature",
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


def inverse_map(s: Spectrum, r_grid,
                cfg: HankelQuadConfig = DEFAULT_QUAD) -> tuple[np.ndarray, np.ndarray]:
    """Spatial coefficients (kpar, kperp) of a spectrum, sampled on r_grid.

    The same transform formulas are applied with the roles of the two
    sides swapped (the map is an involution).  Radii below 1e-3 return
    the analytic r -> 0 limit, where the oscillatory factors degenerate.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid < 0):
        raise ValueError("r grid must be nonnegative")
    mu = s.mu
    diff = lambda p: s.h_par(p) - s.h_perp(p)
    small = r_grid < SMALL_R_LIMIT
    kp = np.empty_like(r_grid)
    kq = np.empty_like(r_grid)
    if small.any():
        kp[small] = kq[small] = inverse_limits(s)
    r = r_grid[~small]
    w = TWO_PI * r
    i_par = hankel_integral(s.h_par, mu + 1.0, mu, w, cfg, tail_hint=s.tail_scale)
    i_perp = hankel_integral(s.h_perp, mu + 1.0, mu, w, cfg, tail_hint=s.tail_scale)
    i_d = hankel_integral(diff, mu, mu + 1.0, w, cfg, tail_hint=s.tail_scale)
    lead = TWO_PI / r ** mu
    cross = i_d / r ** (mu + 1.0)
    kp[~small] = lead * i_par - (2.0 * mu + 1.0) * cross
    kq[~small] = lead * i_perp + cross
    return kp, kq


def certify_pd(k: TriKernel, rho_grid=None, tol: float = 1e-8,
               cfg: HankelQuadConfig = DEFAULT_QUAD) -> PdVerdict:
    """Sampled positive-definiteness certificate from the spectral signs."""
    if rho_grid is None:
        rho_grid = _grid_for(k)
    s = forward_map(k, rho_grid, cfg)
    return certify_spectrum(s, tol)


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

    return Spectrum(dim=dim, h_par=h, h_perp=h, provenance="closed-form",
                    tail_scale=math.sqrt(44.0 * c) / math.pi)


def cauchy_spectrum(sigma: float, dim: int) -> Spectrum:
    """Spectrum of the scalar rational kernel 1/(1 + r^2/sigma^2) * I."""
    mu = dim / 2.0 - 1.0

    def h(rho):
        rho = np.asarray(rho, dtype=float)
        return TWO_PI * sigma ** 2 * (sigma / rho) ** mu * sp.kv(mu, TWO_PI * sigma * rho)

    return Spectrum(dim=dim, h_par=h, h_perp=h, provenance="closed-form",
                    tail_scale=8.0 / sigma)


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
        provenance="closed-form",
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
        provenance="closed-form",
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

    return Spectrum(dim=dim, h_par=h_par, h_perp=h_perp, provenance="closed-form",
                    tail_scale=math.sqrt(48.0 * max(c1, c2)) / math.pi)


# ---------------------------------------------------------------------------
# Hodge decomposition
# ---------------------------------------------------------------------------

def _profile_from_samples(r_grid, samples, k0, power):
    """Spline profile with constant head and matched power-law tail."""
    spline = CubicSpline(r_grid, samples)
    lo, hi = float(r_grid[0]), float(r_grid[-1])
    tail_coef = float(samples[-1]) * hi ** power

    def value(r):
        r = np.asarray(r, dtype=float)
        out = spline(np.clip(r, lo, hi))
        out = np.where(r < lo, k0, out)
        rs = np.maximum(r, hi)
        out = np.where(r > hi, tail_coef / rs ** power, out)
        return out[()] if out.ndim == 0 else out

    dspline = spline.derivative()

    def deriv(r):
        r = np.asarray(r, dtype=float)
        out = dspline(np.clip(r, lo, hi))
        out = np.where(r < lo, 0.0, out)
        rs = np.maximum(r, hi)
        out = np.where(r > hi, -power * tail_coef / rs ** (power + 1.0), out)
        return out[()] if out.ndim == 0 else out

    return value, deriv


def hodge_split(k: TriKernel, r_grid=None, rho_grid=None,
                cfg: HankelQuadConfig = DEFAULT_QUAD) -> tuple[TriKernel, TriKernel]:
    """Split k into its curl-free and divergence-free kernel components.

    The spectrum is tabulated, each coefficient masked in turn, and the
    masked spectra transformed back onto r_grid; the returned kernels
    carry cubic-spline profiles with a matched r^{-(2mu+2)} tail beyond
    the grid.  Components of generic kernels decay like r^{-(2mu+2)} even
    when k itself is Gaussian; a HeavyTailWarning signals when truncation
    at the grid end is visible at the 1e-3 * k0 level.
    """
    if r_grid is None:
        scale = k.tail_scale / 7.0 if np.isfinite(k.tail_scale) else 1.0
        r_grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)
    r_grid = np.asarray(r_grid, dtype=float)
    s = forward_map(k, rho_grid, cfg)
    zero = lambda rho: np.zeros_like(np.asarray(rho, dtype=float))
    s_cf = replace(s, h_perp=zero, h_perp_samples=np.zeros_like(s.h_par_samples))
    s_df = replace(s, h_par=zero, h_par_samples=np.zeros_like(s.h_perp_samples))

    power = 2.0 * s.mu + 2.0
    parts = []
    for part, tag in ((s_cf, "curl_free_component"), (s_df, "div_free_component")):
        kp, kq = inverse_map(part, r_grid, cfg)
        k0 = inverse_limits(part)
        vp, dp = _profile_from_samples(r_grid, kp, k0, power)
        vq, dq = _profile_from_samples(r_grid, kq, k0, power)
        # quadratic small-r limit of (kpar - kperp)/r^2 by extrapolation
        probe = max(2.0 * r_grid[0], 1e-2 * r_grid[-1] / 24.0)
        t1 = (vp(probe) - vq(probe)) / probe ** 2
        t2 = (vp(2 * probe) - vq(2 * probe)) / (4 * probe ** 2)
        small_kt = float((4.0 * t1 - t2) / 3.0)
        parts.append(TriKernel(
            dim=k.dim, k_par=vp, k_perp=vq, dk_par=dp, dk_perp=dq,
            k0=k0, small_r_ktilde=small_kt,
            family_tag=f"{tag}({k.family_tag})",
            tail_scale=float(r_grid[-1]), decay="power",
            pd_hint=k.pd_hint,
        ))
    curl_free, div_free = parts

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
