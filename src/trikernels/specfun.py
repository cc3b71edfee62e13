"""Special functions and oscillatory Hankel-type quadrature.

Bessel and incomplete-gamma evaluations are thin wrappers around
``scipy.special`` (which comfortably exceeds the 1e-10 accuracy needed in
the working range); this module adds the domain contracts and the
segmented quadrature for semi-infinite oscillatory integrals

    I(rho) = int_0^inf  r**w  f(r)  J_nu(rho * r)  dr,

which is the workhorse behind every spectral transform in the package.
Integration proceeds segment by segment between consecutive zeros of the
oscillating Bessel factor (zeros located by the McMahon expansion), with
fixed-order Gauss-Legendre panels inside each segment.  Profiles with
slowly decaying tails (e.g. rational ones) produce alternating segment
sums that converge like 1/k; those are resummed by iterated averaging of
the partial sums, which turns the 1/k tail into geometric convergence.

A whole array of frequencies is integrated in one pass: the k-th segment
of every frequency still running is evaluated with one profile call and
one Bessel call, and each frequency leaves the pass when its own stopping
test holds.  The Bessel factor is evaluated by order class.  Every order
the transforms use, mu = d/2 - 1 and mu + 1, is an integer or a
half-integer: orders 0 and 1 go to the dedicated ``j0``/``j1``,
half-integers n + 1/2 to sqrt(2x/pi) j_n(x) with the spherical Bessel
function j_n, and only the remaining orders to the general ``jv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp


class HankelConvergenceError(RuntimeError):
    """Raised when the segment budget is exhausted before the tolerance."""


@dataclass(frozen=True)
class HankelQuadConfig:
    """Controls for the segmented oscillatory quadrature.

    segment_tol : relative tolerance on the accumulated tail.
    max_segments : budget of Bessel-zero segments per integral.
    nodes_per_segment : Gauss-Legendre order used on each panel.
    """

    segment_tol: float = 1e-10
    max_segments: int = 400
    nodes_per_segment: int = 32

    def __post_init__(self):
        if not self.segment_tol > 0:
            raise ValueError("segment_tol must be positive")
        if self.max_segments < 8:
            raise ValueError("max_segments must be at least 8")
        if self.nodes_per_segment < 8:
            raise ValueError("nodes_per_segment must be at least 8")


DEFAULT_QUAD = HankelQuadConfig()

# partial sums kept for the iterated-mean limit estimate
_MEAN_WINDOW = 48


def _jv(nu, x):
    """J_nu(x) for x >= 0, dispatched on the order class of a scalar nu."""
    if np.ndim(nu) == 0:
        nu = float(nu)
        if nu == 0.0:
            return sp.j0(x)
        if nu == 1.0:
            return sp.j1(x)
        if nu >= 0.5 and (nu - 0.5).is_integer():
            return sp.spherical_jn(int(nu - 0.5), x) * np.sqrt(x * (2.0 / np.pi))
    return sp.jv(nu, x)


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x) for x >= 0.

    Orders below -1/2 are admitted only at integers, where the reflection
    J_{-n} = (-1)^n J_n applies (the three-term recurrence at order 0
    reaches J_{-1}).
    """
    nu_arr = np.asarray(nu, dtype=float)
    if np.any((nu_arr < -0.5) & (nu_arr != np.round(nu_arr))):
        raise ValueError("order nu must be >= -1/2 or a negative integer")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("argument x must be finite and >= 0")
    out = _jv(nu, x)
    return out[()] if x.ndim == 0 else out


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x) for x > 0.

    Even in the order: K_nu == K_{-nu}.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("K_nu requires x > 0 (K_nu diverges at 0)")
    return sp.kv(nu, x)[()] if x.ndim == 0 else sp.kv(nu, x)


def lower_gamma(nu, x):
    """Lower incomplete gamma integral of exponent nu at x >= 0."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = sp.gamma(nu) * sp.gammainc(nu, x)
    return out[()] if x.ndim == 0 else out


def upper_gamma(nu, x):
    """Upper incomplete gamma integral of exponent nu at x >= 0."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = sp.gamma(nu) * sp.gammaincc(nu, x)
    return out[()] if x.ndim == 0 else out


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_nu by the McMahon expansion.

    Accuracy is a few percent at worst for the first zero of moderate
    orders, which is all the segmentation needs; the quadrature never
    relies on the boundaries being exact zeros.
    """
    k = np.arange(1, count + 1, dtype=float)
    beta = (k + 0.5 * nu - 0.25) * np.pi
    m = 4.0 * nu * nu
    z = beta - (m - 1.0) / (8.0 * beta) \
        - 4.0 * (m - 1.0) * (7.0 * m - 31.0) / (3.0 * (8.0 * beta) ** 3)
    # guard against the expansion under-shooting for the very first zeros
    return np.maximum.accumulate(np.maximum(z, 0.5 * beta))


def _probe_tail_scale(f, weight_power: float) -> float:
    """Heuristic radius containing essentially all of |r^w f(r)|."""
    r = np.geomspace(1e-3, 1e5, 161)
    with np.errstate(all="ignore"):
        m = np.abs(np.asarray(f(r), dtype=float)) * r ** weight_power
    m[~np.isfinite(m)] = 0.0
    peak = m.max()
    if peak == 0.0:
        return 1.0
    ipk = int(np.argmax(m))
    below = np.nonzero(m[ipk:] < 1e-18 * peak)[0]
    if below.size:
        return float(r[ipk + below[0]])
    # slowly decaying profile: only used as a paneling scale
    return float(10.0 * r[ipk])


def _iterated_mean(psums):
    """Limit estimates for rows of partial sums by repeated averaging.

    Equivalent to an Euler transformation for alternating tails; for each
    row returns the deepest estimate together with the last-level
    difference as an error proxy.
    """
    row = np.asarray(psums, dtype=float)
    prev = row[:, -1]
    best = prev
    err = np.full(prev.shape, np.inf)
    while row.shape[1] > 1:
        row = 0.5 * (row[:, :-1] + row[:, 1:])
        cur = row[:, -1]
        step = np.abs(cur - prev)
        better = step <= err
        err = np.where(better, step, err)
        best = np.where(better, cur, best)
        prev = cur
    return best, err


def _segment_sums(f, weight_power, nu, w, lo, hi, ladder, nodes, weights):
    """Integral of r**weight_power f(r) J_nu(w r) over [lo, hi], per frequency.

    Each interval is split at the ladder cuts strictly inside it, so the
    number of Gauss-Legendre panels varies by frequency: the ladder is
    clipped into every interval and the zero-width panels this leaves are
    dropped before any evaluation.  The panels of all frequencies are laid
    out flat and summed back by owner.
    """
    edges = np.column_stack([lo, np.clip(ladder[None, :], lo[:, None], hi[:, None]), hi])
    a, b = edges[:, :-1], edges[:, 1:]
    live = b > a
    owner = np.nonzero(live)[0]
    a, b = a[live], b[live]
    mid = 0.5 * (b + a)
    half = 0.5 * (b - a)
    r = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(f(r.ravel()), dtype=float).reshape(r.shape) \
        * r ** weight_power * _jv(nu, w[owner][:, None] * r)
    panels = (vals @ weights) * half
    return np.bincount(owner, weights=panels, minlength=lo.size)


def hankel_integral(f, weight_power, nu, rho, cfg: HankelQuadConfig = DEFAULT_QUAD,
                    tail_hint: float | None = None):
    """Evaluate int_0^inf r**weight_power f(r) J_nu(rho r) dr.

    Parameters
    ----------
    f : callable
        Radial profile, vectorized over numpy arrays of radii.
    weight_power : float
        Power of the algebraic weight.
    nu : float
        Order of the Bessel factor, >= -1/2.
    rho : float or array_like
        Oscillation frequencies, > 0.  An array is integrated in one pass,
        each frequency with its own stopping tests; the result has rho's
        shape, and a scalar rho gives a float.
    cfg : HankelQuadConfig
        Segmentation and panel controls.
    tail_hint : float, optional
        Radius beyond which the weighted profile is negligible.  Probed
        numerically when omitted; callers with analytic knowledge should
        pass it.

    Raises
    ------
    HankelConvergenceError
        If cfg.max_segments zero-to-zero segments do not reach the
        requested tolerance at some frequency; the message names one.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    nu = float(np.asarray(nu).item())
    if nu < -0.5:
        raise ValueError("order nu must be >= -1/2")

    if tail_hint is not None and np.isfinite(tail_hint):
        hint = float(tail_hint)
    else:
        hint = _probe_tail_scale(f, weight_power)
    tol = cfg.segment_tol
    nodes, weights = _gauss_legendre(cfg.nodes_per_segment)
    zeros = _bessel_zeros(nu, cfg.max_segments)
    # extra cuts resolving the profile mass when oscillation is slow
    ladder = hint * 2.0 ** np.arange(-5, 4, dtype=float)

    out = np.empty(rho.size)
    # state of the frequencies still running, compacted as they finish
    idx = np.arange(rho.size)
    w = rho.ravel()
    reach = np.minimum(hint, zeros[-1] / w)
    acc = np.zeros(rho.size)
    seg_scale = np.zeros(rho.size)
    prev_small = np.zeros(rho.size, dtype=bool)
    window = np.empty((rho.size, _MEAN_WINDOW))   # last partial sums, cyclic
    lo = np.zeros(rho.size)

    def recent(k):
        n = min(k + 1, _MEAN_WINDOW)
        return window[:, np.arange(k + 1 - n, k + 1) % _MEAN_WINDOW]

    for k in range(cfg.max_segments):
        if idx.size == 0:
            break
        hi = zeros[k] / w
        s = _segment_sums(f, weight_power, nu, w, lo, hi, ladder, nodes, weights)
        acc += s
        window[:, k % _MEAN_WINDOW] = acc
        seg_scale = np.maximum(seg_scale, np.abs(s))
        small = np.abs(s) <= tol * np.maximum(np.abs(acc), 1e-300)
        done = small & prev_small & (hi >= reach)
        out[idx[done]] = acc[done]
        prev_small = small
        if k >= 8 and k % 4 == 0:
            val, err = _iterated_mean(recent(k))
            settled = ~done & (err <= np.maximum(tol * np.abs(val), 5e-16 * seg_scale))
            out[idx[settled]] = val[settled]
            done |= settled
        if done.any():
            keep = ~done
            idx, w, reach, acc, seg_scale, prev_small, window, hi = (
                a[keep] for a in (idx, w, reach, acc, seg_scale, prev_small, window, hi))
        lo = hi
    if idx.size:
        val, err = _iterated_mean(recent(cfg.max_segments - 1))
        ok = err <= np.maximum(1e3 * tol * np.abs(val), 1e-14 * seg_scale)
        out[idx[ok]] = val[ok]
        if not ok.all():
            bad = int(np.argmin(ok))
            raise HankelConvergenceError(
                f"no convergence after {cfg.max_segments} segments at "
                f"rho={w[bad]:.6g} (last error estimate {err[bad]:.3e}; "
                f"{int(np.count_nonzero(~ok))} of {rho.size} frequencies failed)")
    return float(out[0]) if rho.ndim == 0 else out.reshape(rho.shape)


def radial_moment(f, power, tail_hint: float | None = None,
                  rel_tol: float = 1e-12) -> float:
    """Evaluate int_0^inf r**power f(r) dr for a decaying profile.

    Used for the small-argument limits of the inverse spectral transform,
    where the Bessel factor degenerates to its leading monomial.
    """
    hint = float(tail_hint) if tail_hint is not None else _probe_tail_scale(f, power)
    nodes, weights = _gauss_legendre(48)
    edges = np.concatenate(([0.0], hint * 2.0 ** np.arange(-24, 10, dtype=float)))
    acc = 0.0
    quiet = 0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * nodes
        s = float(np.sum(np.asarray(f(r), dtype=float) * r ** power * weights) * half)
        acc += s
        quiet = quiet + 1 if abs(s) <= rel_tol * max(abs(acc), 1e-300) else 0
        if quiet >= 2 and b >= hint:
            return acc
    return acc
