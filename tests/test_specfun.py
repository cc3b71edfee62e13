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
        sf.hankel_integral(lambda r: np.exp(-r * r), 1.0, 0.0, 0.0)


def test_hankel_nonconvergence_error():
    cfg = sf.HankelQuadConfig(segment_tol=1e-10, max_segments=8, nodes_per_segment=8)
    # 1/sqrt(r)-type tail needs far more than 8 segments at this frequency
    with pytest.raises(sf.HankelConvergenceError):
        sf.hankel_integral(lambda r: 1.0 / (1.0 + r), 0.0, 0.0, 50.0,
                           cfg=cfg, tail_hint=1.0)


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


def test_hankel_array_with_one_nonconvergent_frequency():
    cfg = sf.HankelQuadConfig(segment_tol=1e-10, max_segments=8, nodes_per_segment=8)
    f = lambda r: np.exp(-r * r)
    # the low frequencies settle within the budget; rho = 400 needs ~900 segments
    rho = np.array([0.5, 1.0, 2.0])
    got = sf.hankel_integral(f, 1.0, 0.0, rho, cfg=cfg, tail_hint=7.0)
    np.testing.assert_allclose(got, 0.5 * np.exp(-rho ** 2 / 4), rtol=1e-9)
    with pytest.raises(sf.HankelConvergenceError, match=r"rho=400 .*1 of 4"):
        sf.hankel_integral(f, 1.0, 0.0, np.array([0.5, 1.0, 2.0, 400.0]),
                           cfg=cfg, tail_hint=7.0)


def test_hankel_scalar_rho_returns_float():
    got = sf.hankel_integral(lambda r: np.exp(-r * r), 1.0, 0.0, 2.0, tail_hint=7.0)
    assert type(got) is float
    assert got == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        sf.HankelQuadConfig(segment_tol=0.0)
    with pytest.raises(ValueError):
        sf.HankelQuadConfig(max_segments=4)
    with pytest.raises(ValueError):
        sf.HankelQuadConfig(nodes_per_segment=4)


def test_radial_moment_gaussian():
    # int r^3 e^{-r^2} dr = 1/2
    got = sf.radial_moment(lambda r: np.exp(-r * r), 3.0, tail_hint=7.0)
    assert got == pytest.approx(0.5, rel=1e-11)
