"""Special functions and oscillatory Hankel-type quadrature.

Bessel and incomplete-gamma evaluations are thin wrappers around
``scipy.special`` (which comfortably exceeds the 1e-10 accuracy needed in
the working range), imported on first use so that runs which never call
them start at numpy's cost; this module adds the domain contracts and the
segmented quadrature for semi-infinite oscillatory integrals

    I(rho) = int_0^inf  r**w  f(r)  J_nu(rho * r)  dr,

which is the workhorse behind every spectral transform in the package;
`radial_moment` serves the inverse limit and the Hodge pairing.
Integration proceeds segment by segment between consecutive zeros of the
oscillating Bessel factor (zeros located by the McMahon expansion), with
fixed-order Gauss-Legendre panels inside each segment.  Every transform
uses the same settings, which are module constants: a relative tolerance
of 1e-10, at most 400 segments and 32 nodes per panel.  Profiles with
slowly decaying tails (e.g. rational ones) produce alternating segment
sums that converge like 1/k; those are resummed by iterated averaging of
the partial sums, which turns the 1/k tail into geometric convergence.

A whole array of frequencies is integrated in one pass: each block of four
segments of every frequency still running takes one profile call and one
Bessel call; the stopping tests then take the block's segments in order, and
a frequency leaves when its own test holds.  A profile may return several
columns that share the weight, the order and the frequencies: they share
the nodes, the Bessel values and the profile call, each column keeps its
own stopping tests, and a frequency leaves when all of its columns have
stopped.  The Bessel factor is evaluated
by order class.  Every order the transforms use, mu = d/2 - 1 and mu + 1,
is an integer or a half-integer: orders 0 and 1 go to the dedicated
``j0``/``j1``, half-integers n + 1/2 to sqrt(2x/pi) j_n(x) with the
spherical Bessel function j_n, and only the remaining orders to ``jv``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class HankelConvergenceError(RuntimeError):
    """Raised when the segment budget is exhausted before the tolerance."""


# quadrature settings, read at each call: the relative size of a segment
# against the running sum below which it counts as small, the budget of
# Bessel-zero segments per integral and the Gauss-Legendre order per panel
_SEGMENT_TOL = 1e-10
_MAX_SEGMENTS = 400
_NODES_PER_SEGMENT = 32
# partial sums kept for the iterated-mean limit estimate
_MEAN_WINDOW = 48
# Bessel-zero segments per profile call; blocks end where the iterated mean
# is tried (k = 4, 8, 12, ...), so this must divide 4
_SEGMENT_BLOCK = 4


@lru_cache(maxsize=None)
def _special():
    """scipy.special, imported on first use."""
    from scipy import special

    return special


def _jv(nu, x):
    """J_nu(x) for x >= 0, dispatched on the order class of a scalar nu."""
    sp = _special()
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
    sp = _special()
    return sp.kv(nu, x)[()] if x.ndim == 0 else sp.kv(nu, x)


def lower_gamma(nu, x):
    """Lower incomplete gamma integral of exponent nu at x >= 0."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    sp = _special()
    out = sp.gamma(nu) * sp.gammainc(nu, x)
    return out[()] if x.ndim == 0 else out


def upper_gamma(nu, x):
    """Upper incomplete gamma integral of exponent nu at x >= 0."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    sp = _special()
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


@lru_cache(maxsize=None)
def _binomial_means(n: int) -> np.ndarray:
    """(n, n) matrix of C(j, m) / 2**j: row j is j rounds of pairwise averaging."""
    return np.array([[math.comb(j, m) / 2.0 ** j for m in range(n)] for j in range(n)])


def _iterated_mean(psums):
    """Limit estimates for rows of partial sums by repeated averaging.

    Equivalent to an Euler transformation for alternating tails.  Level j
    at the last column is sum_m C(j, m)/2**j s[n-1-m], all levels one
    product on deviations from s[n-1] (NaN where a sum is not finite); each
    row gives its deepest level whose step is the least so far, and that step.
    """
    row = np.asarray(psums, dtype=float)[:, ::-1]
    n = row.shape[1]
    dev = row - row[:, :1]
    bad = np.logical_or.accumulate(~np.isfinite(dev), axis=1)
    levels = np.where(bad, np.nan, row[:, :1] + np.where(bad, 0.0, dev) @ _binomial_means(n).T)
    levels[:, 0] = row[:, 0]
    steps = np.full(levels.shape, np.inf)
    steps[:, 1:] = np.abs(np.diff(levels, axis=1))
    err = np.fmin.accumulate(steps, axis=1)
    pick = np.where(steps == err, np.arange(n), 0).max(axis=1)
    return levels[np.arange(row.shape[0]), pick], err[:, -1]


def _segment_sums(f, weight_power, nu, w, lo, hi, ladder, nodes, weights):
    """Integral of r**weight_power f(r) J_nu(w r) over [lo, hi], per frequency.

    Each interval is split at the ladder cuts strictly inside it, so the
    number of Gauss-Legendre panels varies by frequency: the ladder is
    clipped into every interval and the zero-width panels this leaves are
    dropped before any evaluation.  The panels of all frequencies are laid
    out flat and summed back by owner.  A profile of m columns gives an
    (intervals, m) result from the same nodes and Bessel values.
    """
    edges = np.column_stack([lo, np.clip(ladder[None, :], lo[:, None], hi[:, None]), hi])
    a, b = edges[:, :-1], edges[:, 1:]
    live = b > a
    owner = np.nonzero(live)[0]
    a, b = a[live], b[live]
    mid = 0.5 * (b + a)
    half = 0.5 * (b - a)
    r = mid[:, None] + half[:, None] * nodes[None, :]
    fr = np.asarray(f(r.ravel()), dtype=float)
    vals = fr.reshape(-1, *r.shape) * r ** weight_power * _jv(nu, w[owner][:, None] * r)
    panels = (vals.reshape(-1, nodes.size) @ weights).reshape(-1, owner.size) * half
    cols = panels.shape[0]
    owners = owner + lo.size * np.arange(cols)[:, None]
    sums = np.bincount(owners.ravel(), weights=panels.ravel(), minlength=lo.size * cols)
    return sums.reshape(cols, lo.size).T.reshape(lo.shape + fr.shape[:-1])


def hankel_integral(f, weight_power, nu, rho, tail_hint: float):
    """Evaluate int_0^inf r**weight_power f(r) J_nu(rho r) dr.

    Parameters
    ----------
    f : callable
        Radial profile, vectorized over a 1-D array of n radii.  It returns
        shape (n,), or (m, n) for m columns integrated in one pass: the
        columns share the segments, the nodes, the Bessel values and one
        profile call per block of segments.  Each column keeps its own
        stopping tests, and a frequency runs until all of its columns
        have stopped.
    weight_power : float
        Power of the algebraic weight.
    nu : float
        Order of the Bessel factor, >= -1/2.
    rho : float or array_like
        Oscillation frequencies, > 0.  An array is integrated in one pass,
        each frequency with its own stopping tests.  The result has rho's
        shape, with a trailing axis of length m for a profile of m columns;
        a scalar rho and a 1-D profile give a float.
    tail_hint : float
        Radius beyond which the weighted profile is negligible, finite and
        positive: the panel scale, which every kernel and profile states
        as its `tail_scale`.

    Raises
    ------
    HankelConvergenceError
        If _MAX_SEGMENTS zero-to-zero segments do not reach the
        tolerance at some frequency; the message names one, and
        its column.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    nu = float(np.asarray(nu).item())
    if nu < -0.5:
        raise ValueError("order nu must be >= -1/2")

    hint = float(tail_hint)
    if not 0.0 < hint < math.inf:
        raise ValueError("tail_hint must be finite and positive")
    tol, budget = _SEGMENT_TOL, _MAX_SEGMENTS
    nodes, weights = _gauss_legendre(_NODES_PER_SEGMENT)
    zeros = _bessel_zeros(nu, budget)
    # extra cuts resolving the profile mass when oscillation is slow
    ladder = hint * 2.0 ** np.arange(-5, 4, dtype=float)

    # state of the frequencies still running, compacted as they finish; the
    # (frequency, column) arrays are allocated once the first profile call
    # shows the column count
    idx = np.arange(rho.size)
    w = rho.ravel()
    reach = np.minimum(hint, zeros[-1] / w)
    columns = None
    bounds = np.concatenate(([0.0], zeros))

    def recent(k):
        n = min(k + 1, _MEAN_WINDOW)
        return window[..., np.arange(k + 1 - n, k + 1) % _MEAN_WINDOW].reshape(-1, n)

    def limits(k):
        return (a.reshape(acc.shape) for a in _iterated_mean(recent(k)))

    # segments k0..k1-1 of every running frequency in one call, then their tests in order
    starts = [0, *range(1, budget, _SEGMENT_BLOCK), budget]
    for k0, k1 in zip(starts[:-1], starts[1:]):
        if idx.size == 0:
            break
        edges = bounds[k0:k1 + 1] / w[:, None]
        his = edges[:, 1:]
        sums = _segment_sums(f, weight_power, nu, np.repeat(w, k1 - k0), edges[:, :-1].ravel(),
                             his.ravel(), ladder, nodes, weights)
        if columns is None:
            columns = sums.shape[1:]
            shape = (rho.size, int(np.prod(columns)))
            out, acc, seg_scale = np.empty(shape), np.zeros(shape), np.zeros(shape)
            prev_small, running = np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)
            window = np.empty(shape + (_MEAN_WINDOW,))   # last partial sums, cyclic
        sums = sums.reshape(his.shape + (-1,))
        for j in range(k1 - k0):
            k, s = k0 + j, sums[:, j]
            acc += s
            window[..., k % _MEAN_WINDOW] = acc
            size = np.abs(s)
            seg_scale = np.maximum(seg_scale, size)
            small = size <= tol * np.maximum(np.abs(acc), 1e-300)
            done = running & small & prev_small & (his[:, j] >= reach)[:, None]
            prev_small = small
            value = acc
            if k >= 8 and k % 4 == 0:
                val, err = limits(k)
                settled = running & ~done & (err <= np.maximum(tol * np.abs(val),
                                                               5e-16 * seg_scale))
                value = np.where(settled, val, acc)
                done |= settled
            if not done.any():
                continue
            out[idx] = np.where(done, value, out[idx])
            running &= ~done
            keep = running.any(axis=1)
            if not keep.all():
                idx, w, reach, acc, seg_scale, prev_small, running, window, sums, his = (
                    a[keep] for a in (idx, w, reach, acc, seg_scale, prev_small, running,
                                      window, sums, his))
    if idx.size:
        val, err = limits(budget - 1)
        ok = err <= np.maximum(1e3 * tol * np.abs(val), 1e-14 * seg_scale)
        out[idx] = np.where(running & ok, val, out[idx])
        bad = running & ~ok
        if bad.any():
            i, c = np.argwhere(bad)[0]
            raise HankelConvergenceError(
                f"no convergence after {budget} segments at "
                f"rho={w[i]:.6g} in column {c} (last error estimate {err[i, c]:.3e}; "
                f"{int(np.count_nonzero(bad.any(axis=1)))} of {rho.size} frequencies failed)")
    if columns is None:       # no frequencies: the profile's own shape gives the columns
        columns, out = np.shape(f(np.empty(0)))[:-1], np.empty(0)
    out = out.reshape(rho.shape + columns)
    return float(out) if out.ndim == 0 else out


def radial_moment(f, power, tail_hint: float):
    """Evaluate int_0^inf r**power f(r) dr for a decaying profile.

    Used for the small-argument limits of the inverse spectral transform,
    where the Bessel factor degenerates to its leading monomial, and for
    the Hodge pairing, whose profile is zero beyond tail_hint.  A profile
    of m columns, shape (m, n) at n radii, gives the m moments from one
    panel loop; each column keeps the value at which it turned quiet, and
    the loop ends when every column has.  tail_hint is the radius beyond
    which the weighted profile is negligible, a finite positive radius.  A
    1-D profile gives a float.
    """
    hint = float(tail_hint)
    if not 0.0 < hint < math.inf:
        raise ValueError("tail_hint must be finite and positive")
    nodes, weights = _gauss_legendre(48)
    edges = np.concatenate(([0.0], hint * 2.0 ** np.arange(-24, 10, dtype=float)))
    acc = out = 0.0
    quiet = 0
    running = True
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * nodes
        s = np.sum(np.asarray(f(r), dtype=float) * r ** power * weights, axis=-1) * half
        acc = acc + s
        quiet = np.where(np.abs(s) <= 1e-12 * np.maximum(np.abs(acc), 1e-300), quiet + 1, 0)
        done = running & (quiet >= 2) & (b >= hint)
        out = np.where(done, acc, out)
        running = running & ~done
        if not np.any(running):
            break
    out = np.where(running, acc, out)
    return float(out) if out.ndim == 0 else out
