"""Special-function contracts and the oscillatory quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from trikernels import specfun as sf


# frozen from the direct power series sum_m (-1)^m/(m! G(m+nu+1)) (x/2)^{2m+nu},
# which agrees with sqrt(2/pi) sin(1) to machine precision
J_HALF_AT_ONE = 0.6713967071418031


def test_bessel_j_at_zero():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(1, 0.0) == 0.0
    assert sf.bessel_j(2.5, 0.0) == 0.0


def test_bessel_j_half_integer_series_value():
    assert sf.bessel_j(0.5, 1.0) == pytest.approx(J_HALF_AT_ONE, rel=1e-12)


def test_bessel_j_domain_errors():
    with pytest.raises(ValueError):
        sf.bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(-0.75, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(0, np.inf)
    # negative integer orders resolve through the reflection identity
    assert sf.bessel_j(-1.0, 1.3) == pytest.approx(-sf.bessel_j(1.0, 1.3), rel=1e-14)


def test_bessel_k_half_integer_closed_form():
    want = math.sqrt(math.pi / 2) * math.exp(-1.0)
    assert sf.bessel_k(0.5, 1.0) == pytest.approx(want, rel=1e-13)


def test_bessel_k_large_argument_expansion():
    # for order 3/2 the large-argument expansion terminates after the 1/z term
    z = 10.0
    asym = math.sqrt(math.pi / (2 * z)) * math.exp(-z) * (1.0 + 1.0 / z)
    assert sf.bessel_k(1.5, z) == pytest.approx(asym, rel=0.02)
    assert sf.bessel_k(1.5, z) == pytest.approx(asym, rel=1e-12)


def test_bessel_k_even_in_order():
    for nu in (0.3, 1.0, 2.5):
        for x in (0.2, 1.0, 7.0):
            assert sf.bessel_k(nu, x) == pytest.approx(sf.bessel_k(-nu, x), rel=1e-14)


def test_bessel_k_positive_and_domain():
    assert sf.bessel_k(1.0, 0.01) > 0
    with pytest.raises(ValueError):
        sf.bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        sf.bessel_k(1.0, -2.0)


def test_incomplete_gammas_sum_to_gamma():
    for nu in (0.5, 1.0, 1.5, 3.2):
        for x in (0.0, 0.7, 2.0, 11.0):
            total = sf.lower_gamma(nu, x) + sf.upper_gamma(nu, x)
            assert total == pytest.approx(math.gamma(nu), rel=1e-12)
    assert sf.lower_gamma(1.5, 0.0) == 0.0
    assert sf.upper_gamma(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_lower_gamma_exponential_case():
    for x in (0.1, 1.0, 4.0):
        assert sf.lower_gamma(1.0, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-12)


def test_lower_gamma_against_quadrature():
    oracle, err = quad(lambda t: math.exp(-t) * math.sqrt(t), 0.0, 2.0,
                       epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    assert sf.lower_gamma(1.5, 2.0) == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(0.6545103734517771, rel=1e-13)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        sf.lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        sf.upper_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        sf.lower_gamma(1.0, -0.5)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_bessel_j_order_dispatch_matches_jv(nu):
    # j0/j1 for orders 0 and 1, spherical j_n for n + 1/2, jv otherwise
    x = np.concatenate(([0.0], np.linspace(0.0, 200.0, 4001)[1:],
                        np.geomspace(1e-8, 200.0, 400)))
    assert np.max(np.abs(sf.bessel_j(nu, x) - jv(nu, x))) <= 1e-14
    assert sf.bessel_j(nu, 0.0) == jv(nu, 0.0)


# --- recurrence / derivative identities ------------------------------------

@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_three_term_recurrence(nu):
    x = np.linspace(0.1, 50.0, 250)
    lhs = sf.bessel_j(nu - 1.0, x) + sf.bessel_j(nu + 1.0, x)
    rhs = 2.0 * nu / x * sf.bessel_j(nu, x)
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + np.abs(sf.bessel_j(nu, x))))


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0])
def test_derivative_identities_vs_central_differences(nu):
    x = np.linspace(0.2, 30.0, 80)
    h = 1e-6
    fd = (sf.bessel_j(nu, x + h) - sf.bessel_j(nu, x - h)) / (2 * h)
    down = sf.bessel_j(nu - 1.0, x) - nu / x * sf.bessel_j(nu, x)
    up = -sf.bessel_j(nu + 1.0, x) + nu / x * sf.bessel_j(nu, x)
    assert np.max(np.abs(down - fd)) < 1e-6
    assert np.max(np.abs(up - fd)) < 1e-6


@pytest.mark.parametrize("nu,sigma", [(0.5, 1.0), (1.5, 1.0), (2.5, 0.7), (1.0, 2.0)])
def test_weighted_k_derivative_identity(nu, sigma):
    # d/dr [(r/s)^nu K_nu(r/s)] = -(1/s) (r/s)^nu K_{nu-1}(r/s)
    r = np.linspace(0.2 * sigma, 5.0 * sigma, 60)
    f = lambda t: (t / sigma) ** nu * sf.bessel_k(nu, t / sigma)
    h = 1e-6
    fd = (f(r + h) - f(r - h)) / (2 * h)
    analytic = -(1.0 / sigma) * (r / sigma) ** nu * sf.bessel_k(nu - 1.0, r / sigma)
    assert np.max(np.abs(fd - analytic) / np.abs(analytic)) < 1e-6


# --- oscillatory quadrature -------------------------------------------------

def test_hankel_gaussian_weight_up():
    # int r^{nu+1} e^{-c r^2} J_nu(rho r) dr = rho^nu/(2c)^{nu+1} e^{-rho^2/(4c)}
    for nu, c, rho in [(0.0, 0.5, 2.0), (1.0, 1.0, 5.0), (0.5, 2.0, 1.0)]:
        got = sf.hankel_integral(lambda r: np.exp(-c * r * r), nu + 1.0, nu, rho,
                                 tail_hint=math.sqrt(48.0 / c))
        want = rho ** nu / (2 * c) ** (nu + 1) * math.exp(-rho ** 2 / (4 * c))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_hankel_gaussian_weight_down():
    # int r^{nu-1} e^{-c r^2} J_nu(rho r) dr = 2^{nu-1}/rho^nu lowergamma(nu, rho^2/4c)
    for nu, c, rho in [(1.0, 1.0, 2.0), (1.5, 0.5, 3.0), (2.0, 1.0, 1.0)]:
        got = sf.hankel_integral(lambda r: np.exp(-c * r * r), nu - 1.0, nu, rho,
                                 tail_hint=math.sqrt(48.0 / c))
        want = 2.0 ** (nu - 1.0) / rho ** nu * sf.lower_gamma(nu, rho ** 2 / (4 * c))
        assert got == pytest.approx(want, rel=1e-9)


def test_hankel_zero_profile():
    got = sf.hankel_integral(lambda r: np.zeros_like(r), 1.0, 0.0, 3.0, tail_hint=1.0)
    assert got == 0.0


def test_hankel_double_transform_returns_profile():
    # applying the order-mu transform twice recovers f(t)/(2 pi)^2
    mu = 0.0
    f = lambda r: np.exp(-0.8 * r * r)
    hint = math.sqrt(48.0 / 0.8)

    def g(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        return np.array([sf.hankel_integral(f, 1.0, mu, 2 * math.pi * p,
                                            tail_hint=hint) for p in rho])

    for t in (0.3, 1.0, 2.2):
        back = sf.hankel_integral(g, 1.0, mu, 2 * math.pi * t, tail_hint=2.0)
        assert back == pytest.approx(float(f(np.array(t))) / (2 * math.pi) ** 2,
                                     rel=1e-7)


def test_hankel_rho_domain():
    with pytest.raises(ValueError):
        sf.hankel_integral(lambda r: np.exp(-r * r), 1.0, 0.0, 0.0, tail_hint=7.0)


def short_budget(monkeypatch, max_segments=8, nodes_per_segment=8):
    """Quadrature at a segment budget and panel order below the module's."""
    monkeypatch.setattr(sf, "_MAX_SEGMENTS", max_segments)
    monkeypatch.setattr(sf, "_NODES_PER_SEGMENT", nodes_per_segment)


def test_hankel_nonconvergence_error(monkeypatch):
    short_budget(monkeypatch)
    # 1/sqrt(r)-type tail needs far more than 8 segments at this frequency
    with pytest.raises(sf.HankelConvergenceError):
        sf.hankel_integral(lambda r: 1.0 / (1.0 + r), 0.0, 0.0, 50.0, tail_hint=1.0)


# frequencies spanning the default spectral grid, times 2 pi
FREQS = 2 * math.pi * np.geomspace(1e-3, 20.0, 48)


@pytest.mark.parametrize("f,weight,nu,hint", [
    (lambda r: np.exp(-r * r), 1.0, 0.0, math.sqrt(48.0)),             # d=2 Gaussian
    (lambda r: np.exp(-0.7 * r * r), 2.5, 1.5, math.sqrt(48.0 / 0.7)),  # d=3 Gaussian
    (lambda r: 1.0 / (1.0 + r * r), 1.0, 0.0, 8.0),                   # iterated-mean tail
    (lambda r: np.zeros_like(r), 1.0, 0.0, 1.0),
], ids=["gaussian-d2", "gaussian-d3", "cauchy", "zero"])
def test_hankel_array_matches_scalar_calls(f, weight, nu, hint):
    got = sf.hankel_integral(f, weight, nu, FREQS, tail_hint=hint)
    want = np.array([sf.hankel_integral(f, weight, nu, float(p), tail_hint=hint)
                     for p in FREQS])
    assert got.shape == FREQS.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_hankel_array_with_one_nonconvergent_frequency(monkeypatch):
    short_budget(monkeypatch)
    f = lambda r: np.exp(-r * r)
    # the low frequencies settle within the budget; rho = 400 needs ~900 segments
    rho = np.array([0.5, 1.0, 2.0])
    got = sf.hankel_integral(f, 1.0, 0.0, rho, tail_hint=7.0)
    np.testing.assert_allclose(got, 0.5 * np.exp(-rho ** 2 / 4), rtol=1e-9)
    with pytest.raises(sf.HankelConvergenceError, match=r"rho=400 .*1 of 4"):
        sf.hankel_integral(f, 1.0, 0.0, np.array([0.5, 1.0, 2.0, 400.0]), tail_hint=7.0)


@pytest.mark.parametrize("max_segments", [9, 10, 11, 12])
def test_hankel_budget_ending_inside_a_block(max_segments, monkeypatch):
    # segments are evaluated in blocks ending at k = 4, 8, 12, ...; budgets of 10 to 12
    # cut the last block short, and rho = 5 takes exactly 12 segments
    f = lambda r: np.exp(-r * r)
    hint = math.sqrt(48.0)
    rho = np.array([0.5, 2.0, 4.0, 4.5, 5.0])[:4 + (max_segments >= 12)]
    want = sf.hankel_integral(f, 1.0, 0.0, rho, tail_hint=hint)
    with monkeypatch.context() as m:
        m.setattr(sf, "_MAX_SEGMENTS", max_segments)
        got = sf.hankel_integral(f, 1.0, 0.0, rho, tail_hint=hint)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    np.testing.assert_allclose(got, 0.5 * np.exp(-rho ** 2 / 4), rtol=1e-9)
    short_budget(monkeypatch, max_segments)
    with pytest.raises(sf.HankelConvergenceError,
                       match=rf"no convergence after {max_segments} segments at rho=400 .*1 of 4"):
        sf.hankel_integral(f, 1.0, 0.0, np.array([0.5, 1.0, 2.0, 400.0]), tail_hint=7.0)


def _profile_calls(f, *args, **kwargs):
    calls = []

    def counted(r):
        calls.append(r.size)
        return f(r)

    sf.hankel_integral(counted, *args, **kwargs)
    return len(calls)


@pytest.mark.parametrize("f,weight,nu,hint", [
    (lambda r: np.exp(-r * r), 1.0, 0.0, math.sqrt(48.0)),
    (lambda r: np.exp(-0.7 * r * r), 2.5, 1.5, math.sqrt(48.0 / 0.7)),
], ids=["gaussian-d2", "gaussian-d3"])
def test_hankel_frequencies_stopping_inside_a_block(f, weight, nu, hint, monkeypatch):
    # one segment per call counts the segments each frequency takes on its own
    with monkeypatch.context() as m:
        m.setattr(sf, "_SEGMENT_BLOCK", 1)
        segments = np.array([_profile_calls(f, weight, nu, float(p), tail_hint=hint)
                             for p in FREQS])
    # blocks end at segment k = 4, 8, ...: these frequencies stop before the end of one
    # while the slowest keep running
    inside = ((segments - 1) % 4 != 0) & (segments < segments.max())
    assert np.count_nonzero(inside) >= 5
    got = sf.hankel_integral(f, weight, nu, FREQS, tail_hint=hint)
    want = np.array([sf.hankel_integral(f, weight, nu, float(p), tail_hint=hint)
                     for p in FREQS])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_hankel_one_profile_call_per_block_of_segments(monkeypatch):
    f = lambda r: np.exp(-r * r)
    hint = math.sqrt(48.0)
    calls = _profile_calls(f, 1.0, 0.0, FREQS, tail_hint=hint)
    monkeypatch.setattr(sf, "_SEGMENT_BLOCK", 1)
    segments = _profile_calls(f, 1.0, 0.0, FREQS, tail_hint=hint)
    assert segments >= 30
    assert calls <= math.ceil(segments / 4) + 1


def _iterated_mean_loop(psums):
    """Reference: the level-by-level averaging that _iterated_mean computes in one product."""
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


@pytest.mark.parametrize("n", range(1, 49))
def test_iterated_mean_matches_the_averaging_loop(n):
    rng = np.random.default_rng(n)
    # partial sums of alternating series with random terms, decay rates and scales
    k = np.arange(n)
    terms = rng.uniform(0.5, 2.0, (64, n)) * (-1.0) ** k \
        / (1.0 + k) ** rng.uniform(0.3, 2.0, (64, 1)) * 10.0 ** rng.uniform(-5, 5, (64, 1))
    alternating = np.cumsum(terms, axis=1)
    constant = np.repeat([[2.5], [-1e-7], [0.0]], n, axis=1)     # every level ties
    with_nan = alternating[:16].copy()
    with_nan[np.arange(16), rng.integers(0, n, 16)] = np.nan
    rows = np.vstack([alternating, constant, with_nan])
    want_best, want_err = _iterated_mean_loop(rows)
    best, err = sf._iterated_mean(rows)
    scale = np.max(np.abs(np.nan_to_num(rows)), axis=1)
    assert np.array_equal(np.isnan(best), np.isnan(want_best))
    assert np.array_equal(np.isinf(err), np.isinf(want_err))
    fin = np.isfinite(want_best)
    assert np.all(np.abs(best[fin] - want_best[fin]) <= 1e-15 * scale[fin])
    fin = np.isfinite(want_err)
    assert np.all(np.abs(err[fin] - want_err[fin]) <= 1e-15 * scale[fin])


def test_hankel_scalar_rho_returns_float():
    got = sf.hankel_integral(lambda r: np.exp(-r * r), 1.0, 0.0, 2.0, tail_hint=7.0)
    assert type(got) is float
    assert got == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_radial_moment_gaussian():
    # int r^3 e^{-r^2} dr = 1/2
    got = sf.radial_moment(lambda r: np.exp(-r * r), 3.0, tail_hint=7.0)
    assert got == pytest.approx(0.5, rel=1e-11)


# --- profiles of several columns ----------------------------------------------

def _gauss(r):
    return np.exp(-r * r)


@pytest.mark.parametrize("cols,hint", [
    ((_gauss, lambda r: r * r * np.exp(-r * r)), math.sqrt(48.0)),
    # Cauchy stops by the iterated mean, the Gaussian beside it directly
    ((lambda r: 1.0 / (1.0 + r * r), _gauss), 8.0),
    ((np.zeros_like, _gauss), math.sqrt(48.0)),
], ids=["gaussian-r2gaussian", "cauchy-gaussian", "zero-gaussian"])
def test_hankel_columns_match_per_column_calls(cols, hint):
    got = sf.hankel_integral(lambda r: np.stack([f(r) for f in cols]), 1.0, 0.0, FREQS,
                             tail_hint=hint)
    assert got.shape == FREQS.shape + (len(cols),)
    for j, f in enumerate(cols):
        want = sf.hankel_integral(f, 1.0, 0.0, FREQS, tail_hint=hint)
        assert np.max(np.abs(got[:, j] - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)
    # a scalar frequency keeps the column axis
    one = sf.hankel_integral(lambda r: np.stack([f(r) for f in cols]), 1.0, 0.0, 2.0,
                             tail_hint=hint)
    assert one.shape == (len(cols),)


def test_hankel_columns_share_one_profile_call_per_block(monkeypatch):
    hint = math.sqrt(48.0)
    pair = lambda r: np.stack([_gauss(r), r * r * _gauss(r)])
    calls = _profile_calls(pair, 1.0, 0.0, FREQS, tail_hint=hint)
    monkeypatch.setattr(sf, "_SEGMENT_BLOCK", 1)
    segments = _profile_calls(pair, 1.0, 0.0, FREQS, tail_hint=hint)
    assert calls <= math.ceil(segments / 4) + 1


def test_hankel_columns_without_frequencies():
    got = sf.hankel_integral(lambda r: np.stack([_gauss(r), r]), 1.0, 0.0, np.empty(0),
                             tail_hint=1.0)
    assert got.shape == (0, 2)


@pytest.mark.parametrize("column", [0, 1])
def test_hankel_nonconvergent_column_is_named(column, monkeypatch):
    short_budget(monkeypatch)
    # the 1/(1 + r) tail cannot settle in 8 segments at rho = 2; the Gaussian can
    assert sf.hankel_integral(_gauss, 0.0, 0.0, 2.0, tail_hint=7.0) > 0
    cols = [_gauss, _gauss]
    cols[column] = lambda r: 1.0 / (1.0 + r)
    with pytest.raises(sf.HankelConvergenceError,
                       match=rf"rho=2 in column {column} .*1 of 1 frequencies"):
        sf.hankel_integral(lambda r: np.stack([f(r) for f in cols]), 0.0, 0.0, 2.0,
                           tail_hint=7.0)


def test_radial_moment_columns_match_per_column_calls():
    cols = (_gauss, np.zeros_like, lambda r: 1.0 / (1.0 + r * r) ** 3)
    got = sf.radial_moment(lambda r: np.stack([f(r) for f in cols]), 1.0, tail_hint=7.0)
    assert got.shape == (3,)
    for j, f in enumerate(cols):
        want = sf.radial_moment(f, 1.0, tail_hint=7.0)
        assert abs(got[j] - want) <= 1e-15 * abs(want)
    # int r e^{-r^2} dr = 1/2 and int r/(1 + r^2)^3 dr = 1/4
    np.testing.assert_allclose(got, [0.5, 0.0, 0.25], rtol=1e-11)


# --- input checks -----------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: sf.upper_gamma(1.0, -0.5), "x must be >= 0"),
    (lambda: sf.hankel_integral(lambda r: np.exp(-r * r), 1.0, -0.75, 1.0, tail_hint=7.0),
     "order nu must be >= -1/2"),
    (lambda: sf.hankel_integral(lambda r: np.exp(-r * r), 1.0, 0.0, 1.0, tail_hint=np.inf),
     "tail_hint must be finite and positive"),
    *[(lambda h=h: sf.radial_moment(lambda r: np.exp(-r * r), 1.0, tail_hint=h),
       "tail_hint must be finite and positive") for h in (np.inf, np.nan, 0.0, -1.0)],
], ids=["upper_gamma-x-negative", "hankel-nu-below-half", "hankel-tail-hint-inf",
        "moment-tail-hint-inf", "moment-tail-hint-nan", "moment-tail-hint-0",
        "moment-tail-hint-negative"])
def test_bad_specfun_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
