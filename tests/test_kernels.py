"""Kernel evaluation, derivatives, families and constructions."""

import math
import warnings

import numpy as np
import pytest

from trikernels import kernels as K
from conftest import (annulus_point, bessel_derivatives, cauchy_derivatives, fd_jacobian,
                      gaussian_derivatives, projector_oracle, random_rotation)

R_GRID = np.geomspace(0.05, 5.0, 64)


@pytest.fixture
def example1():
    return K.family_example1(1.5, 1.0, 1.0, 2)


@pytest.fixture
def example2():
    return K.family_example2(1.5, 1.0, 1.0, 2)


# --- eval_matrix -------------------------------------------------------------

# every kernel kind: scalar, both families, both constructions, both Hodge parts
ORACLE_KERNELS = {
    "gaussian": lambda: K.gaussian_kernel(1.0, 3),
    "cauchy": lambda: K.cauchy_kernel(0.8, 2),
    "bessel": lambda: K.bessel_kernel(1.0, 3.5, 2),
    "example1": lambda: K.family_example1(1.5, 1.0, 1.0, 2),
    "example2": lambda: K.family_example2(1.0, 1.0, 2.0, 3),
    "curl_free": lambda: K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2),
    "div_free": lambda: K.make_div_free(K.gaussian_profile(0.25, 1.0), 3),
    "hodge_curl_free": lambda: K.gaussian_hodge_pair(1.0, 2)[0],
    "hodge_div_free": lambda: K.gaussian_hodge_pair(1.0, 3)[1],
}


@pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
def test_eval_matrix_matches_projector_oracle(name, rng):
    k = ORACLE_KERNELS[name]()
    x = rng.normal(size=(4, 6, k.dim)) * rng.choice([0.05, 0.5, 1.5, 4.0], size=(4, 6, 1))
    x[0, 0] = 0.0
    batched = K.eval_matrix(k, x)
    assert batched.shape == (4, 6, k.dim, k.dim)
    for idx in np.ndindex(x.shape[:-1]):
        want = projector_oracle(k, x[idx])
        assert np.max(np.abs(K.eval_matrix(k, x[idx]) - want)) <= 1e-14 * abs(k.k0)
        assert np.max(np.abs(batched[idx] - want)) <= 1e-14 * abs(k.k0)


@pytest.mark.parametrize("extra", [None, "k0", "small_r_ktilde", "dk_par", "dk_perp",
                                   "ktilde_fn"])
def test_radial_is_the_only_constructor_input(extra):
    # a kernel is its radial callable: no per-coefficient route, no stored limits
    radial = K.gaussian_kernel(1.0, 2).radial
    with pytest.raises(TypeError):
        if extra is None:
            K.TriKernel(dim=2, tail_scale=1.0)
        else:
            K.TriKernel(dim=2, radial=radial, tail_scale=1.0, **{extra: 1.0})


def test_eval_at_zero_is_scaled_identity():
    k = K.gaussian_kernel(0.5, 3)  # e^{-r^2/2}, k0 = 1
    np.testing.assert_allclose(K.eval_matrix(k, np.zeros(3)), np.eye(3))


def test_example1_matrix_along_axis(example1):
    got = K.eval_matrix(example1, np.array([1.0, 0.0]))
    want = np.diag([math.exp(-1.0), -0.5 * math.exp(-1.0)])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_rotation_equivariance(rng):
    kernels = [
        K.family_example1(1.5, 1.0, 1.0, 2),
        K.family_example2(1.0, 1.0, 2.0, 3),
        K.gaussian_kernel(1.0, 3),
    ]
    for k in kernels:
        for _ in range(34):  # >= 100 rotations across the three kernels
            x = rng.normal(size=k.dim)
            rot = random_rotation(rng, k.dim)
            lhs = K.eval_matrix(k, rot @ x)
            rhs = rot @ K.eval_matrix(k, x) @ rot.T
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_eigenstructure(rng, example1):
    for _ in range(20):
        x = rng.normal(size=2)
        r = np.linalg.norm(x)
        vals = np.sort(np.linalg.eigvalsh(K.eval_matrix(example1, x)))
        want = np.sort([float(example1.k_par(r)), float(example1.k_perp(r))])
        np.testing.assert_allclose(vals, want, atol=1e-10)
    k3 = K.gaussian_kernel(1.0, 3)
    x = rng.normal(size=3)
    vals = np.linalg.eigvalsh(K.eval_matrix(k3, x))
    r = np.linalg.norm(x)
    np.testing.assert_allclose(vals, np.full(3, float(k3.k_par(r))), atol=1e-12)


def test_symmetry_and_evenness(rng, example2):
    x = rng.normal(size=2)
    m = K.eval_matrix(example2, x)
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_allclose(m, K.eval_matrix(example2, -x), atol=1e-15)


# --- ktilde ------------------------------------------------------------------

def test_ktilde_families(example1, example2):
    np.testing.assert_allclose(K.ktilde(example1, R_GRID),
                               1.5 * np.exp(-R_GRID ** 2), rtol=1e-13)
    np.testing.assert_allclose(K.ktilde(example2, R_GRID),
                               -1.5 * np.exp(-R_GRID ** 2), rtol=1e-13)
    assert K.ktilde(example1, 0.0) == 1.5
    assert K.ktilde(example2, 0.0) == -1.5


def test_ktilde_scalar_kernel_is_zero():
    k = K.gaussian_kernel(1.0, 2)
    assert np.all(K.ktilde(k, R_GRID) == 0.0)


# --- field_jacobian ----------------------------------------------------------

def matrix_derivative(k, x, axis):
    """d k(x) / dx_axis from the field Jacobian: J(x, I)[l, j, axis] = (d_axis k(x) e_l)_j."""
    return K.field_jacobian(k, x, np.eye(k.dim))[:, :, axis].T


def test_field_jacobian_vs_finite_differences(rng):
    kernels = [
        K.family_example1(2.0, 1.0, 1.0, 2),
        K.family_example2(1.5, 1.0, 1.0, 2),
        K.gaussian_kernel(1.0, 3),
        K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2),
        K.make_div_free(K.gaussian_profile(0.25, 1.0), 3),
    ]
    for k in kernels:
        for _ in range(8):
            x = annulus_point(rng, k.dim, 0.1, 5.0)
            fd = fd_jacobian(k, x, 2, 1e-6)
            for axis in range(k.dim):
                an = matrix_derivative(k, x, axis)
                assert np.max(np.abs(an - fd[axis])) < 1e-6


def test_field_jacobian_scalar_gaussian_axis_point():
    k = K.gaussian_kernel(0.5, 2)  # e^{-r^2/2}
    got = matrix_derivative(k, np.array([1.0, 0.0]), 0)
    np.testing.assert_allclose(got, -math.exp(-0.5) * np.eye(2), atol=1e-14)


def test_field_jacobian_oddness(rng, example1):
    x = rng.normal(size=2)
    for alpha in (np.eye(2), rng.normal(size=2)):
        lhs = K.field_jacobian(example1, -x, alpha)
        rhs = -K.field_jacobian(example1, x, alpha)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_field_jacobian_is_zero_at_the_origin(rng, example1):
    # the smooth even kernel has derivative 0 at x = 0; every term of J carries x
    for alpha in (np.eye(2), rng.normal(size=2)):
        assert np.all(K.field_jacobian(example1, np.zeros(2), alpha) == 0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_field_jacobian_batched_equals_single_calls(rng, d):
    k = K.make_div_free(K.gaussian_profile(0.25, 1.0), d)
    x = rng.normal(size=(4, 5, d))
    x[0, 0] = 0.0
    alpha = rng.normal(size=(4, 5, d))
    batched = K.field_jacobian(k, x, alpha)
    shared = K.field_jacobian(k, x, alpha[1, 2])
    assert batched.shape == shared.shape == (4, 5, d, d)
    for idx in np.ndindex(4, 5):
        np.testing.assert_array_equal(batched[idx], K.field_jacobian(k, x[idx], alpha[idx]))
        np.testing.assert_array_equal(shared[idx], K.field_jacobian(k, x[idx], alpha[1, 2]))


# --- constructions -----------------------------------------------------------

def test_curl_free_gaussian_matches_family_boundary():
    b, c = 1.0, 1.0
    built = K.make_curl_free(K.gaussian_profile(b / (2 * c), c), 2)
    boundary = K.family_example2(2 * b * c, b, c, 2)
    np.testing.assert_allclose(built.k_par(R_GRID), boundary.k_par(R_GRID), atol=1e-14)
    np.testing.assert_allclose(built.k_perp(R_GRID), boundary.k_perp(R_GRID), atol=1e-14)
    assert built.k0 == pytest.approx(b)
    assert built.small_r_ktilde == pytest.approx(-2 * b * c)


def test_curl_free_condition_residual():
    built = K.make_curl_free(K.gaussian_profile(0.7, 1.3), 2)
    scale = max(np.max(np.abs(built.k_par(R_GRID))), np.max(np.abs(built.k_perp(R_GRID))))
    assert np.max(np.abs(K.curl_free_residual(built, R_GRID))) <= 1e-10 * scale


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
def test_cauchy_d3_matches_finite_differences(sigma):
    # f''' = r^3 D^3 f + 3 r D^2 f from the fused tuple, D = (1/r) d/dr
    d2 = cauchy_derivatives(sigma).d2
    r = np.linspace(0.0, 6.0 * sigma, 241)
    h = 1e-3 * sigma
    fd = (-d2(r + 2 * h) + 8 * d2(r + h) - 8 * d2(r - h) + d2(r - 2 * h)) / (12 * h)
    _, _, g, g1 = K.cauchy_profile(sigma).fused(r)
    d3 = r ** 3 * g1 + 3.0 * r * g
    assert np.max(np.abs(d3 - fd)) <= 1e-9 * np.max(np.abs(d3))


def test_curl_free_zero_profile_gives_zero_kernel():
    zero = K.ScalarProfile(lambda r, order=3: [np.zeros_like(np.asarray(r, float))] * (order + 1),
                           tail_scale=1.0)
    k = K.make_curl_free(zero, 2)
    assert np.all(k.k_par(R_GRID) == 0.0) and np.all(k.k_perp(R_GRID) == 0.0)
    assert k.k0 == 0.0


def test_div_free_gaussian_matches_family_boundary():
    b, c = 1.0, 1.0
    for d in (2, 3, 4):
        built = K.make_div_free(K.gaussian_profile(b / (2 * c * (d - 1)), c), d)
        boundary = K.family_example1(2 * b * c / (d - 1), b, c, d)
        np.testing.assert_allclose(built.k_par(R_GRID), boundary.k_par(R_GRID), atol=1e-14)
        np.testing.assert_allclose(built.k_perp(R_GRID), boundary.k_perp(R_GRID), atol=1e-14)


def test_div_free_condition_residual():
    built = K.make_div_free(K.gaussian_profile(0.4, 2.0), 3)
    scale = max(np.max(np.abs(built.k_par(R_GRID))), np.max(np.abs(built.k_perp(R_GRID))))
    assert np.max(np.abs(K.div_free_residual(built, R_GRID))) <= 1e-10 * scale


def test_div_free_d3_specialization():
    # the d=3 coefficients equal the general-dimension formula at d=3
    prof = gaussian_derivatives(0.3, 1.0)
    built = K.make_div_free(K.gaussian_profile(0.3, 1.0), 3)
    r = R_GRID
    kpar_d3 = -2.0 / r * prof.d1(r)
    kperp_d3 = -prof.d1(r) / r - prof.d2(r)
    np.testing.assert_allclose(built.k_par(r), kpar_d3, atol=1e-14)
    np.testing.assert_allclose(built.k_perp(r), kperp_d3, atol=1e-14)


def test_bessel_type_curl_free_closed_form():
    # coefficients in terms of the modified Bessel functions, order nu = ell - d/2
    nu, sigma, c0 = 2.5, 1.0, 1.0
    prof = K.bessel_profile(nu, sigma, c0)
    built = K.make_curl_free(prof, 3)
    r = np.linspace(0.2, 4.0, 40)
    z = r / sigma
    from trikernels.specfun import bessel_k
    kperp_want = c0 / sigma ** 2 * z ** (nu - 1) * bessel_k(nu - 1, z)
    kpar_want = c0 / sigma ** 2 * z ** (nu - 1) * (
        (2 * nu - 1) * bessel_k(nu - 1, z) - z * bessel_k(nu, z))
    np.testing.assert_allclose(built.k_perp(r), kperp_want, rtol=1e-10)
    np.testing.assert_allclose(built.k_par(r), kpar_want, rtol=1e-10)


def test_bessel_type_div_free_closed_form():
    nu, sigma, c0, d = 2.5, 1.0, 1.0, 3
    prof = K.bessel_profile(nu, sigma, c0)
    built = K.make_div_free(prof, d)
    r = np.linspace(0.2, 4.0, 40)
    z = r / sigma
    from trikernels.specfun import bessel_k
    kpar_want = c0 / sigma ** 2 * (d - 1) * z ** (nu - 1) * bessel_k(nu - 1, z)
    kperp_want = c0 / sigma ** 2 * z ** (nu - 1) * (
        (2 * nu + d - 3) * bessel_k(nu - 1, z) - z * bessel_k(nu, z))
    np.testing.assert_allclose(built.k_par(r), kpar_want, rtol=1e-10)
    np.testing.assert_allclose(built.k_perp(r), kperp_want, rtol=1e-10)


# --- family regions ----------------------------------------------------------

def test_region_membership():
    assert K.in_D1(1.5, 1.0, 1.0, 2)
    assert not K.in_D1(3.0, 1.0, 1.0, 2)
    assert K.in_D2(0.0, 0.5, 1.0)
    assert K.in_D2(1.5, 1.0, 1.0)
    assert not K.in_D2(3.0, 1.0, 1.0)
    # slanted boundary steepens with dimension
    assert K.in_D1(1.0, 0.5, 1.0, 2) and not K.in_D1(1.0, 0.5, 1.0, 3)


def test_family_values_at_zero():
    k = K.family_example1(1.5, 1.0, 1.0, 2)
    assert float(k.k_par(1e-13)) == pytest.approx(1.0)
    assert k.k0 == 1.0
    np.testing.assert_allclose(K.eval_matrix(k, np.zeros(2)), np.eye(2))


def test_family_boundaries_satisfy_conditions():
    b, c, d = 1.0, 1.0, 2
    div_boundary = K.family_example1(2 * b * c, b, c, d)
    assert np.max(np.abs(K.div_free_residual(div_boundary, R_GRID))) < 1e-12
    curl_boundary = K.family_example2(2 * b * c, b, c, d)
    assert np.max(np.abs(K.curl_free_residual(curl_boundary, R_GRID))) < 1e-12


def test_coefficient_bound_for_pd_instances():
    # |kpar|, |kperp| <= k0 for certified-positive parameterizations
    grid = np.geomspace(1e-3, 30.0, 400)
    instances = [
        K.family_example1(1.5, 1.0, 1.0, 2),
        K.family_example2(1.5, 1.0, 1.0, 2),
        K.family_example1(1.0, 2.0, 0.5, 3),
        K.gaussian_kernel(1.0, 2),
        K.cauchy_kernel(1.0, 3),
    ]
    for k in instances:
        assert min(k.generator[1]) >= 0
        assert k.k0 >= 0
        assert np.all(np.abs(k.k_par(grid)) <= k.k0 * (1 + 1e-12))
        assert np.all(np.abs(k.k_perp(grid)) <= k.k0 * (1 + 1e-12))


# --- closed-form Hodge pair --------------------------------------------------

def test_gaussian_hodge_pair_values():
    k1, k2 = K.gaussian_hodge_pair(1.0, 2)
    assert float(k1.k_perp(np.array(1.0))) == pytest.approx((1 - math.exp(-1)) / 2,
                                                            rel=1e-13)
    r = R_GRID
    gauss = np.exp(-r * r)
    np.testing.assert_allclose(k1.k_par(r) + k2.k_par(r), gauss, atol=1e-12)
    np.testing.assert_allclose(k1.k_perp(r) + k2.k_perp(r), gauss, atol=1e-12)


@pytest.mark.parametrize("c,d", [(1.0, 2), (2.0, 3), (0.5, 4)])
def test_gaussian_hodge_pair_conditions(c, d):
    k1, k2 = K.gaussian_hodge_pair(c, d)
    assert np.max(np.abs(K.curl_free_residual(k1, R_GRID))) < 1e-10
    assert np.max(np.abs(K.div_free_residual(k2, R_GRID))) < 1e-10
    assert k1.k0 + k2.k0 == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("c", [1.0, 16.0])
@pytest.mark.parametrize("d", [2, 3])
def test_gaussian_hodge_pair_matches_its_series(c, d):
    # with y = -c r^2: h = sum y^m / (m! (d+2m)), t = Dh = -2c sum y^m / (m! (d+2m+2))
    # and Dt = 4c^2 sum y^m / (m! (d+2m+4)), D = (1/r) d/dr; the curl-free part is
    # (h, t, t, Dt), the div-free part (e - h, -t, -2c e - t, -Dt) with e = e^{-c r^2}
    def series(y, shift, scale=1.0):
        return scale * math.fsum(y ** m / (math.factorial(m) * (d + 2 * m + shift))
                                 for m in range(40))

    r = np.geomspace(1e-8, 1.5, 64) / math.sqrt(c)
    y = -c * r * r
    h = np.array([series(v, 0) for v in y])
    t = np.array([series(v, 2, -2.0 * c) for v in y])
    dt = np.array([series(v, 4, 4.0 * c * c) for v in y])
    e = np.array([math.fsum(v ** m / math.factorial(m) for m in range(40)) for v in y])
    k1, k2 = K.gaussian_hodge_pair(c, d)
    for got, want in ((k1.radial(r, True), (h, t, t, dt)),
                      (k2.radial(r, True), (e - h, -t, -2.0 * c * e - t, -dt))):
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12)


@pytest.mark.parametrize("nu", [2.625, 3.5, 4.25])
@pytest.mark.parametrize("d", [2, 3])
def test_bessel_constructions_take_exact_limits_at_the_origin(nu, d):
    # z^nu K_nu(z) = 2^{nu-1} Gamma(nu) [1 - z^2/(4(nu-1)) + z^4/(32(nu-1)(nu-2)) + ...]
    # + O(z^{2nu}); with z = r/sigma the r^2 and r^4 coefficients c2, c4 give
    # f''(0) = 2 c2 and f''''(0) = 24 c4, which exist for nu > 2
    a, sigma = 1.7, 0.125
    lead = a * 2.0 ** (nu - 1.0) * math.gamma(nu)
    f2 = 2.0 * lead * -1.0 / (4.0 * (nu - 1.0) * sigma ** 2)
    f4 = 24.0 * lead / (32.0 * (nu - 1.0) * (nu - 2.0) * sigma ** 4)
    prof = K.bessel_profile(nu, sigma, a)
    # f'/r -> f''(0) and (f'' - f'/r)/r^2 -> f''''(0)/3 at the origin
    cf, df = K.make_curl_free(prof, d), K.make_div_free(prof, d)
    assert cf.k0 == pytest.approx(-f2, rel=1e-12)
    assert cf.small_r_ktilde == pytest.approx(-f4 / 3.0, rel=1e-12)
    assert df.k0 == pytest.approx(-(d - 1) * f2, rel=1e-12)
    assert df.small_r_ktilde == pytest.approx(f4 / 3.0, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("make", [K.make_curl_free, K.make_div_free],
                         ids=["curl_free", "div_free"])
def test_bessel_constructions_below_order_two_give_k0_identity_at_the_origin(make, d):
    # for 1 < nu <= 2 ktilde ~ r^(2 nu - 4) has no limit, and small_r_ktilde is the
    # profile's floor value; it multiplies x x^T = 0, so no matrix sees it
    k = make(K.bessel_profile(1.5, 0.8, 1.3), d)
    assert abs(k.small_r_ktilde) > 1e6 * abs(k.k0) > 0
    got = K.eval_matrix(k, np.zeros((3, d)))
    assert np.array_equal(got, np.broadcast_to(k.k0 * np.eye(d), (3, d, d)))
    assert np.array_equal(K.eval_matrix(k, np.zeros(d)), k.k0 * np.eye(d))


def _cauchy_series(sigma):
    """(c, p) with 1 / (1 + r^2/sigma^2) = sum c r^p near the origin."""
    return [((-1.0) ** k / sigma ** (2 * k), 2.0 * k) for k in range(12)]


def _bessel_series(nu, sigma):
    """(c, p) with z^nu K_nu(z) = sum c r^p, z = r/sigma, for non-integer nu.

    K_nu = pi (I_-nu - I_nu) / (2 sin(nu pi)) and the power series of I_+-nu.
    """
    pre = math.pi / (2.0 * math.sin(nu * math.pi))
    terms = []
    for k in range(8):
        base = 1.0 / (4.0 ** k * math.factorial(k) * sigma ** (2 * k))
        terms.append((pre * 2.0 ** nu * base / math.gamma(k - nu + 1.0), 2.0 * k))
        terms.append((-pre * 2.0 ** -nu * base / (math.gamma(k + nu + 1.0) * sigma ** (2 * nu)),
                      2.0 * k + 2.0 * nu))
    return terms


@pytest.mark.parametrize("prof, terms, sigma", [
    (K.cauchy_profile(0.3), _cauchy_series(0.3), 0.3),
    (K.cauchy_profile(2.5), _cauchy_series(2.5), 2.5),
    (K.bessel_profile(2.625, 0.7), _bessel_series(2.625, 0.7), 0.7),
    (K.bessel_profile(3.5, 0.7), _bessel_series(3.5, 0.7), 0.7),
], ids=["cauchy-0.3", "cauchy-2.5", "bessel-2.625", "bessel-3.5"])
def test_profile_g_matches_taylor_series_near_the_origin(prof, terms, sigma):
    # g = D^2 f = (f'' - f'/r)/r^2 of sum c r^p is sum c p (p - 2) r^(p - 4), and
    # D^3 f is sum c p (p - 2) (p - 4) r^(p - 6), term by term; forming g from
    # f'' and f'/r would cancel ~(r/sigma)^2 of both
    r = np.geomspace(1e-7, 1e-2, 41) * sigma
    _, _, g, g1 = prof.fused(r, 3)
    want = sum(c * p * (p - 2.0) * r ** (p - 4.0) for c, p in terms)
    assert np.max(np.abs(g / want - 1.0)) <= 1e-12
    want = sum(c * p * (p - 2.0) * (p - 4.0) * r ** (p - 6.0) for c, p in terms)
    assert np.max(np.abs(g1 / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("prof, oracle, width", [
    (K.gaussian_profile(0.3, 1.0), gaussian_derivatives(0.3, 1.0), 1.0),
    (K.gaussian_profile(1.7, 16.0), gaussian_derivatives(1.7, 16.0), 0.25),
    (K.cauchy_profile(0.3), cauchy_derivatives(0.3), 0.3),
    (K.cauchy_profile(2.5), cauchy_derivatives(2.5), 2.5),
    (K.bessel_profile(2.625, 0.7, 1.3), bessel_derivatives(2.625, 0.7, 1.3), 0.7),
    (K.bessel_profile(3.5, 0.7, 1.3), bessel_derivatives(3.5, 0.7, 1.3), 0.7),
    (K.bessel_profile(4.25, 2.0), bessel_derivatives(4.25, 2.0, 1.0), 2.0),
], ids=["gaussian-1", "gaussian-16", "cauchy-0.3", "cauchy-2.5", "bessel-2.625",
        "bessel-3.5", "bessel-4.25"])
def test_profile_d3_matches_the_closed_form_derivatives(prof, oracle, width):
    # D^2 f = (f'' - f'/r)/r^2 and D^3 f = (f''' - 3 r D^2 f)/r^3 from the test-side
    # closed forms at r >= 0.1 width, where each quotient cancels little; the
    # second takes the tuple's D^2 f, since two nested quotients of independently
    # rounded Bessel values cancel to 1e-11 at 0.1 sigma
    r = np.linspace(0.1, 4.0, 40) * width
    _, _, d2f, d3f = prof.fused(r, 3)
    for got, want in ((d2f, (oracle.d2(r) - oracle.d1(r) / r) / r ** 2),
                      (d3f, (oracle.d3(r) - 3.0 * r * d2f) / r ** 3)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("nu", [1.0001, 1.5, 2.0, 2.5, 3.0])
def test_bessel_floor_values_stay_finite(nu):
    # for 1 < nu <= 3 some of D f, D^2 f and D^3 f diverge at the origin and the
    # tuple holds their values at the floor z = 1e-8; no entry overflows, and the
    # constructions' coefficients stay finite at, below and above the floor
    sigma = 0.5
    r = np.concatenate([[0.0, 1e-12], np.geomspace(1e-9, 10.0, 41)]) * sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prof = K.bessel_profile(nu, sigma, 1.3)
        assert all(np.all(np.isfinite(entry)) for entry in prof.fused(r, 3))
        for make in (K.make_curl_free, K.make_div_free):
            assert all(np.all(np.isfinite(c)) for c in make(prof, 2).radial(r, True))


def test_bessel_tuple_takes_one_bessel_call_per_entry(monkeypatch):
    # phi_m(z) = z^m K_m(z) with (1/z) d/dz phi_m = -phi_{m-1}: D^j f is a phi_{nu-j}
    orders = []
    real = K.bessel_k
    monkeypatch.setattr(K, "bessel_k", lambda nu, x: orders.append(nu) or real(nu, x))
    prof = K.bessel_profile(3.5, 0.7)
    calls = []
    for order in range(4):
        orders.clear()
        prof.fused(np.geomspace(1e-9, 10.0, 7), order)
        calls.append(len(orders))
    assert calls == [1, 2, 3, 4]


def test_gaussian_hodge_pair_derivatives(rng):
    k1, k2 = K.gaussian_hodge_pair(1.0, 2)
    for k in (k1, k2):
        for _ in range(5):
            x = annulus_point(rng, 2, 0.2, 4.0)
            fd = fd_jacobian(k, x, 2, 1e-6)
            for axis in range(2):
                np.testing.assert_allclose(matrix_derivative(k, x, axis), fd[axis], atol=1e-6)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("make, sign", [(K.make_div_free, 1.0), (K.make_curl_free, -1.0)],
                         ids=["div_free", "curl_free"])
def test_gaussian_construction_ktilde_exact_at_small_r(make, sign, d):
    # ktilde = +-g = +-4ac^2 e^{-cr^2} in closed form; (f'' - f'/r)/r^2 from the
    # profile's derivatives loses ~1e-6 to cancellation at r = 1e-6
    a, c = 0.3, 16.0
    k = make(K.gaussian_profile(a, c), d)
    r = np.geomspace(1e-7, 1.0, 57)
    x = np.zeros((len(r), d))
    x[:, 0] = r
    want = sign * 4.0 * a * c * c * np.exp(-c * r * r)
    got = K.pair_coefficients(k, x.T).ktilde
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


def test_pair_coefficients_coordinate_major(rng, example1):
    # (d, ...) displacements: a strided view of point-major data and its
    # contiguous copy give the same values
    x = rng.normal(size=(4, 5, 2))
    x[0, 0] = 0.0
    view = np.moveaxis(x, -1, 0)
    strided = K.pair_coefficients(example1, view, derivatives=True)
    contiguous = K.pair_coefficients(example1, np.ascontiguousarray(view), derivatives=True)
    assert strided.r.shape == (4, 5)
    for name in ("r", "kperp", "ktilde", "dkperp_r", "dktilde_r"):
        np.testing.assert_array_equal(getattr(strided, name), getattr(contiguous, name))


# --- input checks ---------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: K.bessel_profile(1.5, sigma=0.0), "sigma must be positive"),
    (lambda: K.bessel_profile(0.0), "nu must be positive for a bounded profile"),
    (lambda: K.TriKernel(dim=1, radial=K.gaussian_kernel(1.0, 2).radial, tail_scale=1.0),
     "ambient dimension must be >= 2"),
    *[(lambda make=make, s=s: make(s), "tail_scale must be finite and positive")
      for make in (lambda s: K.TriKernel(dim=2, radial=K.gaussian_kernel(1.0, 2).radial,
                                         tail_scale=s),
                   lambda s: K.ScalarProfile(K.gaussian_profile(1.0, 1.0).fused, s))
      for s in (0.0, -1.0, np.nan, np.inf)],
    (lambda: K.eval_matrix(K.gaussian_kernel(1.0, 2), np.zeros(3)),
     "expected vectors of length 2"),
    (lambda: K.field_jacobian(K.gaussian_kernel(1.0, 2), np.zeros(3), np.ones(3)),
     "expected vectors of length 2"),
    (lambda: K.pair_coefficients(K.gaussian_kernel(1.0, 2), np.zeros(3)),
     "expected vectors of length 2"),
    (lambda: K.pair_coefficients(K.gaussian_kernel(1.0, 2), 0.0), "expected vectors of length 2"),
    (lambda: K.in_D1(1.0, 1.0, 0.0, 2), "c must be positive"),
    (lambda: K.in_D2(1.0, 1.0, -1.0), "c must be positive"),
    (lambda: K.family_example1(1.0, 1.0, 0.0, 2), "c must be positive"),
    (lambda: K.family_example2(1.0, 1.0, -1.0, 2), "c must be positive"),
    (lambda: K.gaussian_hodge_pair(0.0, 2), "c must be positive"),
], ids=["bessel-sigma-0", "bessel-nu-0", "dim-1",
        *[f"{name}-tail-scale-{s}" for name in ("kernel", "profile")
          for s in ("0", "negative", "nan", "inf")],
        "eval_matrix-length", "field_jacobian-length",
        "pair_coefficients-length", "pair_coefficients-0-d",
        "in_D1-c-0", "in_D2-c-negative", "example1-c-0", "example2-c-negative",
        "hodge_pair-c-0"])
def test_bad_kernel_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("make", [
    lambda: K.TriKernel(dim=2, radial=K.gaussian_kernel(1.0, 2).radial),
    lambda: K.ScalarProfile(K.gaussian_profile(1.0, 1.0).fused),
], ids=["kernel", "profile"])
def test_a_missing_tail_scale_is_a_type_error(make):
    with pytest.raises(TypeError, match="tail_scale"):
        make()
