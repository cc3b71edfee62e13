"""Spectral transforms, PD certification, and the Hodge decomposition."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trikernels import cli
from trikernels import kernels as K
from trikernels import spectral as S
from trikernels import specfun as sf
from conftest import (CLI_KERNELS, derivative_pair, hodge_split_quietly, mixed_gaussian_kernel,
                      random_rotation)

QUICK_RHO = np.geomspace(1e-3, 6.0, 48)


# --- forward map -------------------------------------------------------------

def test_forward_map_scalar_gaussian():
    # k(r) = e^{-r^2/2} in the plane transforms to 2 pi e^{-2 pi^2 rho^2}
    k = K.gaussian_kernel(0.5, 2)
    grid = np.geomspace(0.01, 2.0, 40)
    s = S.forward_map(k, grid)
    want = 2 * math.pi * np.exp(-2 * math.pi ** 2 * grid ** 2)
    hp_half, _ = S.spectral_pair_at(k, 0.5)
    assert hp_half == pytest.approx(2 * math.pi * math.exp(-math.pi ** 2 / 2), rel=1e-8)
    mask = want >= 1e-8 * want.max()
    np.testing.assert_allclose(s.h_par_samples[mask], want[mask], rtol=1e-7)
    # scalar input collapses the pair
    np.testing.assert_allclose(s.h_par_samples, s.h_perp_samples, atol=1e-14)


def test_forward_map_cauchy():
    k = K.cauchy_kernel(1.0, 3)
    grid = np.geomspace(0.05, 2.0, 12)
    s = S.forward_map(k, grid)
    want = S.cauchy_spectrum(1.0, 3)
    np.testing.assert_allclose(s.h_par_samples, want.h_par(grid), rtol=1e-7)


def test_forward_map_example1_closed_form():
    a, b, c = 1.5, 1.0, 1.0
    k = K.family_example1(a, b, c, 2)
    grid = np.geomspace(1e-3, 4.0, 30)
    s = S.forward_map(k, grid)
    cf = S.example1_spectrum(a, b, c, 2)
    peak = max(np.abs(cf.h_par(grid)).max(), np.abs(cf.h_perp(grid)).max())
    assert np.max(np.abs(s.h_par_samples - cf.h_par(grid))) < 1e-6 * peak
    assert np.max(np.abs(s.h_perp_samples - cf.h_perp(grid))) < 1e-6 * peak


def test_forward_map_example2_closed_form():
    a, b, c = 1.5, 1.0, 1.0
    k = K.family_example2(a, b, c, 2)
    grid = np.geomspace(1e-3, 4.0, 30)
    s = S.forward_map(k, grid)
    cf = S.example2_spectrum(a, b, c, 2)
    peak = max(np.abs(cf.h_par(grid)).max(), np.abs(cf.h_perp(grid)).max())
    assert np.max(np.abs(s.h_par_samples - cf.h_par(grid))) < 1e-6 * peak
    assert np.max(np.abs(s.h_perp_samples - cf.h_perp(grid))) < 1e-6 * peak


@pytest.mark.parametrize("d,ell,sigma", [(2, 3.0, 1.0), (3, 3.0, 1.0), (2, 4.0, 0.8)])
def test_forward_map_sobolev_kernel_green_identity(d, ell, sigma):
    # the normalized Bessel-type kernel inverts the operator whose symbol
    # is (1 + 4 pi^2 sigma^2 rho^2)^ell, so its spectrum is the reciprocal
    k = K.bessel_kernel(sigma, ell, d)
    grid = np.geomspace(0.02, 2.0, 14)
    s = S.forward_map(k, grid)
    want = (1 + 4 * np.pi ** 2 * sigma ** 2 * grid ** 2) ** (-ell)
    np.testing.assert_allclose(s.h_par_samples, want, rtol=1e-8)
    np.testing.assert_allclose(s.h_perp_samples, want, rtol=1e-8)


def test_bessel_div_free_spectrum():
    # double-curl construction multiplies the generator spectrum by (2 pi rho)^2
    # and moves it entirely into the transverse coefficient
    prof = K.bessel_profile(1.5, 1.0, K.sobolev_green_constant(1.0, 3.0, 3))
    kdf = K.make_div_free(prof, 3)
    g = np.geomspace(0.05, 3.0, 12)
    s = S.forward_map(kdf, g)
    assert np.max(np.abs(s.h_par_samples)) <= 1e-8 * np.max(np.abs(s.h_perp_samples))
    want = (2 * np.pi * g) ** 2 * (1 + 4 * np.pi ** 2 * g ** 2) ** (-3.0)
    np.testing.assert_allclose(s.h_perp_samples, want, rtol=1e-8)


def test_forward_map_rejects_bad_grid():
    k = K.gaussian_kernel(1.0, 2)
    with pytest.raises(ValueError):
        S.forward_map(k, np.array([0.0, 1.0]))


def test_forward_map_one_radial_call_per_bessel_call(monkeypatch):
    # kpar and kperp share the J_mu nodes and one radial call; r^2 ktilde takes the J_mu+1 pass
    k = K.gaussian_kernel(1.0, 2)
    radial_calls, jv_sizes = [], []

    def radial(s, derivatives=False):
        radial_calls.append(np.size(s))
        return k.radial(s, derivatives)

    counted = K.TriKernel(dim=k.dim, radial=radial, tail_scale=k.tail_scale)
    radial_calls.clear()
    jv = sf._jv
    monkeypatch.setattr(sf, "_jv", lambda nu, x: jv_sizes.append(np.size(x)) or jv(nu, x))
    s = S.forward_map(counted, np.geomspace(1e-3, 20.0, 32))
    assert len(radial_calls) == len(jv_sizes) > 0
    # one J_mu pass per coefficient takes 54,880 Bessel arguments on this grid
    assert sum(jv_sizes) <= 0.7 * 53536
    want = S.forward_map(replace(k, generator=None), np.geomspace(1e-3, 20.0, 32))
    assert np.array_equal(s.h_par_samples, want.h_par_samples)
    assert np.array_equal(s.h_perp_samples, want.h_perp_samples)


# --- kernels with a generator ---------------------------------------------------
#
# A generated kernel takes one J_mu pass of its profile; `replace(k,
# generator=None)` is the same kernel on the generic two-pass path, its oracle.

GRID_32 = np.geomspace(1e-3, 20.0, 32)

MATRIX_FAMILIES = [name for name in CLI_KERNELS if name not in ("gaussian", "cauchy", "bessel")]


def generated(name, dim):
    return cli.build_kernel({**CLI_KERNELS[name], "dim": dim})


def grid_of(k, which):
    return S._grid_for(k) if which == "default" else GRID_32


@pytest.mark.parametrize("which", ["default", "n32"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(CLI_KERNELS))
def test_generator_spectrum_matches_the_generic_transform(name, dim, which):
    k = generated(name, dim)
    assert k.generator is not None
    grid = grid_of(k, which)
    got = S.spectral_pair_at(k, grid)
    want = S.spectral_pair_at(replace(k, generator=None), grid)
    peak = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-10 * peak


@pytest.mark.parametrize("which", ["default", "n32"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", MATRIX_FAMILIES)
def test_generated_tail_scale_reads_the_scalar_transform(name, dim, which):
    # q = 4 pi^2 rho^2 lifts f's quadrature noise above the 1e-14 floor; read
    # off f's own samples, the tail is no longer than the generic path's, and
    # the inverse map of the spectrum keeps its error
    k = generated(name, dim)
    grid = grid_of(k, which)
    s, ref = S.forward_map(k, grid), S.forward_map(replace(k, generator=None), grid)
    assert s.tail_scale <= ref.tail_scale
    r = np.geomspace(0.01, 3.0, 7)

    def inverse_error(spectrum):
        kp, kq = S.inverse_map(spectrum, r)
        return max(np.max(np.abs(kp - k.k_par(r))), np.max(np.abs(kq - k.k_perp(r))))

    assert inverse_error(s) <= 1.1 * inverse_error(ref)


@pytest.mark.parametrize("name, dim", [("gaussian", 2), ("example1_in", 3),
                                       ("gaussian_div_free", 2), ("bessel_curl_free", 3)])
def test_generated_forward_map_is_one_single_column_pass(monkeypatch, name, dim):
    k = generated(name, dim)
    calls, jv_sizes = [], []
    hankel, jv = S.hankel_integral, sf._jv

    def counted(f, weight_power, nu, rho, **kw):
        out = hankel(f, weight_power, nu, rho, **kw)
        calls.append((nu, np.shape(out)))
        return out

    monkeypatch.setattr(S, "hankel_integral", counted)
    monkeypatch.setattr(sf, "_jv", lambda nu, x: jv_sizes.append(np.size(x)) or jv(nu, x))
    S.forward_map(k, GRID_32)
    assert calls == [(k.mu, (32,))]
    if name == "gaussian":
        # the generic path takes 34,080 Bessel arguments on this grid
        assert sum(jv_sizes) <= 21000


# --- inverse map and the involution -------------------------------------------

def test_involution_on_example1():
    k = K.family_example1(1.5, 1.0, 1.0, 2)
    s = S.forward_map(k)
    r = np.geomspace(0.05, 5.0, 50)
    kp, kq = S.inverse_map(s, r)
    assert np.max(np.abs(kp - k.k_par(r))) <= 1e-5
    assert np.max(np.abs(kq - k.k_perp(r))) <= 1e-5


def test_inverse_of_gaussian_spectrum():
    s = S.gaussian_spectrum(0.5, 2)  # spectrum of e^{-r^2/2}
    r = np.geomspace(0.05, 4.0, 25)
    kp, kq = S.inverse_map(s, r)
    np.testing.assert_allclose(kp, np.exp(-0.5 * r ** 2), atol=1e-9)
    np.testing.assert_allclose(kq, np.exp(-0.5 * r ** 2), atol=1e-9)


def test_inverse_of_cauchy_spectrum():
    s = S.cauchy_spectrum(1.0, 3)
    r = np.geomspace(0.05, 5.0, 30)
    kp, kq = S.inverse_map(s, r)
    want = 1.0 / (1.0 + r ** 2)
    np.testing.assert_allclose(kp, want, rtol=1e-8)
    np.testing.assert_allclose(kq, want, rtol=1e-8)


def test_involution_on_example2():
    k = K.family_example2(1.5, 1.0, 1.0, 2)
    s = S.forward_map(k)
    r = np.geomspace(0.05, 5.0, 30)
    kp, kq = S.inverse_map(s, r)
    assert np.max(np.abs(kp - k.k_par(r))) <= 1e-5
    assert np.max(np.abs(kq - k.k_perp(r))) <= 1e-5


def test_inverse_scalar_spectrum_collapses():
    s = S.gaussian_spectrum(1.0, 3)
    r = np.geomspace(0.1, 3.0, 10)
    kp, kq = S.inverse_map(s, r)
    np.testing.assert_allclose(kp, kq, atol=1e-10)


def test_tabulated_tail_scale_ends_where_the_spectrum_does():
    # samples at the quadrature noise floor must not stretch the tail scale
    got = S.forward_map(K.gaussian_kernel(1.0, 2)).tail_scale
    want = S.gaussian_spectrum(1.0, 2).tail_scale
    assert want / 1.5 <= got <= 1.5 * want


def test_inverse_small_r_limit_matches_k0():
    s = S.gaussian_spectrum(1.0, 2)
    kp, kq = S.inverse_map(s, np.array([1e-4, 5e-4]))
    np.testing.assert_allclose(kp, 1.0, rtol=1e-9)
    np.testing.assert_allclose(kq, 1.0, rtol=1e-9)


@pytest.mark.parametrize("s", [S.example1_spectrum(1.0, 1.0, 1.0, 3),
                               S.mixed_gaussian_spectrum(1.0, 2.0, 2),
                               S.forward_map(K.cauchy_kernel(1.0, 2))],
                         ids=["example1", "mixed", "tabulated-cauchy"])
def test_inverse_limits_one_loop_matches_two_moments(s):
    # the moments of hpar and hpar - hperp from one panel loop, each at its own stop
    p = 2.0 * s.mu + 1.0
    m_par = sf.radial_moment(s.h_par, p, tail_hint=s.tail_scale)
    m_diff = sf.radial_moment(lambda q: s.h_par(q) - s.h_perp(q), p, tail_hint=s.tail_scale)
    lead = 2.0 * math.pi ** (s.mu + 1.0) / math.gamma(s.mu + 1.0)
    cross = (2.0 * s.mu + 1.0) * math.pi ** (s.mu + 1.0) / math.gamma(s.mu + 2.0)
    want = lead * m_par - cross * m_diff
    assert abs(S.inverse_limits(s) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("c", [1.0, 100.0, 1e4])
def test_inverse_small_r_branch_scales_with_the_spectrum(c):
    # the r -> 0 limit stands in only where the kernel has not moved from k0,
    # however narrow the kernel is
    r = np.array([1e-4, 5e-4, 9e-4])
    kp, kq = S.inverse_map(S.forward_map(K.gaussian_kernel(c, 2)), r)
    want = np.exp(-c * r ** 2)
    np.testing.assert_allclose(kp, want, rtol=0, atol=1e-6)
    np.testing.assert_allclose(kq, want, rtol=0, atol=1e-6)


# --- certification ------------------------------------------------------------

def test_certify_positive_families():
    for k in (K.family_example1(1.5, 1.0, 1.0, 2), K.family_example2(1.5, 1.0, 1.0, 2)):
        v = S.certify_pd(k, QUICK_RHO)
        assert v.positive and v.strictly


def test_certify_negative_example1():
    v = S.certify_pd(K.family_example1(3.0, 1.0, 1.0, 2), QUICK_RHO)
    assert not v.positive
    # the longitudinal coefficient starts at pi (b - a/2) < 0
    assert v.min_h_par == pytest.approx(math.pi * (1.0 - 1.5), rel=1e-3)


def test_certify_mixed_gaussian_non_example():
    k = mixed_gaussian_kernel(1.0, 2.0, 2)
    v = S.certify_pd(k, QUICK_RHO)
    assert not v.positive
    assert v.min_h_par < -1e-4  # fails in the longitudinal coefficient
    equal = mixed_gaussian_kernel(1.5, 1.5, 2)
    assert S.certify_pd(equal, QUICK_RHO).positive


def test_certify_zero_kernel_positive_but_not_strict():
    zero = K.family_example1(0.0, 0.0, 1.0, 2)
    v = S.certify_pd(zero, QUICK_RHO)
    assert v.positive and not v.strictly


def test_verdict_records_grid_and_tol():
    v = S.certify_pd(K.gaussian_kernel(1.0, 2), QUICK_RHO, tol=1e-7)
    assert v.tol == 1e-7
    assert v.n_grid == len(QUICK_RHO)
    assert v.rho_min == pytest.approx(QUICK_RHO[0])


def test_bochner_quadratic_form_nonnegative(rng):
    for k in (K.family_example1(1.5, 1.0, 1.0, 2), K.gaussian_kernel(1.0, 3)):
        for _ in range(5):
            x = rng.normal(size=(5, k.dim))
            al = rng.normal(size=(5, k.dim))
            total = 0.0
            for i in range(5):
                for j in range(5):
                    total += al[i] @ K.eval_matrix(k, x[i] - x[j]) @ al[j]
            assert total >= -1e-9


# --- mixed Gaussian closed form ----------------------------------------------

def test_mixed_gaussian_reduces_to_scalar_when_equal():
    c = 1.3
    s = S.mixed_gaussian_spectrum(c, c, 2)
    ref = S.gaussian_spectrum(c, 2)
    rho = np.geomspace(1e-3, 3.0, 50)
    np.testing.assert_allclose(s.h_par(rho), ref.h_par(rho), rtol=1e-10)
    np.testing.assert_allclose(s.h_perp(rho), ref.h_perp(rho), rtol=1e-10)


def test_mixed_gaussian_planar_symmetry():
    # in the plane the two coefficients swap under exchanging the rates
    s12 = S.mixed_gaussian_spectrum(1.0, 2.0, 2)
    s21 = S.mixed_gaussian_spectrum(2.0, 1.0, 2)
    rho = np.geomspace(0.01, 3.0, 40)
    np.testing.assert_allclose(s12.h_par(rho), s21.h_perp(rho), rtol=1e-12)


def test_mixed_gaussian_goes_negative():
    s = S.mixed_gaussian_spectrum(1.0, 2.0, 2)
    rho = np.linspace(0.8, 3.0, 50)
    assert np.min(s.h_par(rho)) < -1e-4


def test_mixed_gaussian_matches_quadrature():
    for d in (2, 3):
        k = mixed_gaussian_kernel(1.0, 2.0, d)
        grid = np.geomspace(0.05, 2.5, 16)
        s = S.forward_map(k, grid)
        cf = S.mixed_gaussian_spectrum(1.0, 2.0, d)
        peak = max(np.abs(cf.h_par(grid)).max(), np.abs(cf.h_perp(grid)).max())
        assert np.max(np.abs(s.h_par_samples - cf.h_par(grid))) < 1e-6 * peak
        assert np.max(np.abs(s.h_perp_samples - cf.h_perp(grid))) < 1e-6 * peak


# --- construction spectra: masked coefficients --------------------------------

def test_div_free_construction_kills_h_par():
    k = K.make_div_free(K.gaussian_profile(0.5, 1.0), 2)
    grid = np.geomspace(0.05, 4.0, 20)
    s = S.forward_map(k, grid)
    assert np.max(np.abs(s.h_par_samples)) <= 1e-6 * np.max(np.abs(s.h_perp_samples))


def test_curl_free_construction_kills_h_perp():
    k = K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2)
    grid = np.geomspace(0.05, 4.0, 20)
    s = S.forward_map(k, grid)
    assert np.max(np.abs(s.h_perp_samples)) <= 1e-6 * np.max(np.abs(s.h_par_samples))


def test_masked_spectrum_inverts_to_condition_satisfying_kernel():
    # and conversely: a spectrum with h_par = 0 inverts to a div-free pair
    base = S.gaussian_spectrum(1.0, 2)
    masked = S.Spectrum(dim=2, h_par=lambda p: np.zeros_like(np.asarray(p, float)),
                        h_perp=base.h_perp, tail_scale=base.tail_scale)
    r = np.linspace(0.1, 4.0, 40)
    kp, kq = S.inverse_map(masked, r)
    # div-free condition via central differences of the sampled coefficients
    h = r[1] - r[0]
    dk = (kp[2:] - kp[:-2]) / (2 * h)
    resid = (2 - 1) * (kp[1:-1] - kq[1:-1]) / r[1:-1] + dk
    assert np.max(np.abs(resid)) < 5e-3 * np.max(np.abs(kq))


# --- spectral matrix eigenstructure -------------------------------------------

def test_spectrum_matrix_eigenvectors(rng):
    s = S.example1_spectrum(1.5, 1.0, 1.0, 2)
    for _ in range(10):
        xi = rng.normal(size=2)
        m = S.spectrum_matrix(s, xi)
        rho = np.linalg.norm(xi)
        v = m @ xi
        np.testing.assert_allclose(v, float(s.h_par(rho)) * xi, atol=1e-12)
        perp = np.array([-xi[1], xi[0]])
        np.testing.assert_allclose(m @ perp, float(s.h_perp(rho)) * perp, atol=1e-12)


def test_spectrum_matrix_rotation_equivariance(rng):
    s = S.gaussian_spectrum(1.0, 3)
    xi = rng.normal(size=3)
    rot = random_rotation(rng, 3)
    np.testing.assert_allclose(S.spectrum_matrix(s, rot @ xi),
                               rot @ S.spectrum_matrix(s, xi) @ rot.T, atol=1e-12)


# --- Hodge split ---------------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_split():
    return hodge_split_quietly(K.gaussian_kernel(1.0, 2))


def test_hodge_split_transverse_closed_form(gaussian_split):
    k1, _ = gaussian_split
    r = np.geomspace(0.05, 5.0, 60)
    want = (1 - np.exp(-r ** 2)) / (2 * r ** 2)
    assert np.max(np.abs(k1.k_perp(r) - want)) < 1e-6


def test_hodge_split_components_sum(gaussian_split):
    k1, k2 = gaussian_split
    r = np.geomspace(0.05, 5.0, 60)
    gauss = np.exp(-r ** 2)
    assert np.max(np.abs(k1.k_par(r) + k2.k_par(r) - gauss)) < 1e-6
    assert np.max(np.abs(k1.k_perp(r) + k2.k_perp(r) - gauss)) < 1e-6


def test_hodge_split_matches_closed_pair(gaussian_split):
    k1, k2 = gaussian_split
    c1, c2 = K.gaussian_hodge_pair(1.0, 2)
    r = np.geomspace(0.05, 5.0, 60)
    assert np.max(np.abs(k1.k_par(r) - c1.k_par(r))) < 1e-6
    assert np.max(np.abs(k2.k_perp(r) - c2.k_perp(r))) < 1e-6


@pytest.mark.parametrize("c", [1.0, 16.0])
def test_hodge_parts_ktilde_below_the_first_grid_radius(c):
    # ktilde of the curl-free part of e^{-c r^2} in the plane, with y = -c r^2:
    # t = -2c sum y^m / (m! (d+2m+2)); the div-free part has -t
    def t(r, d=2):
        y = -c * r * r
        return -2.0 * c * math.fsum(y ** m / (math.factorial(m) * (d + 2 * m + 2))
                                    for m in range(40))

    k = K.gaussian_kernel(c, 2)
    curl_free, div_free = hodge_split_quietly(k)
    r0 = 1e-3 * k.tail_scale / 7.0          # the default grid's first radius
    r = np.array([1e-11, 1e-6, r0 / 2, 2 * r0, 10 * r0])
    want = np.array([t(x) for x in r])
    np.testing.assert_allclose(K.ktilde(curl_free, r), want, rtol=1e-5)
    np.testing.assert_allclose(K.ktilde(div_free, r), -want, rtol=1e-5)


def coefficients(k, r):
    """(kperp, ktilde, dkpar, dkperp) of k at radii r."""
    kperp, kt, *_ = radial = k.radial(np.square(r), True)
    return (kperp, kt) + derivative_pair(r, *radial)


def worst_gaussian_pair_deviation(parts, c, d, r):
    """Max over both parts and all four coefficients of the deviation from
    gaussian_hodge_pair(c, d), each coefficient scaled by (1, c, sqrt c, sqrt c)."""
    scale = (1.0, c, math.sqrt(c), math.sqrt(c))
    return max(np.max(np.abs(a - b)) / s
               for part, exact in zip(parts, K.gaussian_hodge_pair(c, d))
               for a, b, s in zip(coefficients(part, r), coefficients(exact, r), scale))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c", [1.0, 16.0])
def test_hodge_split_matches_the_gaussian_pair_everywhere(c, d):
    # at r = 0, across the band [r0, 1.1 r0] above the first node, on and
    # between the nodes and far beyond the last one the split is exact to
    # quadrature; test_hodge_split_is_exact_between_and_below_the_nodes pins it
    # to rounding
    k = K.gaussian_kernel(c, d)
    parts = hodge_split_quietly(k)
    scale = k.tail_scale / 7.0
    grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)     # the default nodes
    r = np.concatenate([[0.0], np.linspace(grid[0], 1.1 * grid[0], 50), grid,
                        [10.0 * grid[-1], 100.0 * grid[-1]]])
    assert worst_gaussian_pair_deviation(parts, c, d, r) <= 1e-8
    between = np.geomspace(grid[0], grid[-1], 1000)
    assert worst_gaussian_pair_deviation(parts, c, d, between) <= 1e-7


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_hodge_split_below_a_coarse_grid(c):
    # below the first node, 0.05, one Gauss-Legendre panel from r = 0 gives G
    parts = hodge_split_quietly(K.gaussian_kernel(c, 2), np.geomspace(0.05, 5.0, 24))
    r = np.linspace(0.0, 0.05, 101)
    assert worst_gaussian_pair_deviation(parts, c, 2, r) <= 1e-6


COARSE_GRID = np.geomspace(0.05, 5.0, 24)


def between_and_below(k, r_grid):
    """1,000 radii across the nodes and 100 below the first one, for the
    default nodes when r_grid is None."""
    if r_grid is None:
        scale = k.tail_scale / 7.0
        r_grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)
    return np.geomspace(r_grid[0], r_grid[-1], 1000), np.linspace(0.0, r_grid[0], 101)[:-1]


@pytest.mark.parametrize("r_grid", [None, COARSE_GRID], ids=["default", "coarse"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c", [1.0, 16.0])
def test_hodge_split_is_exact_between_and_below_the_nodes(c, d, r_grid):
    # each radius gets its own Gauss-Legendre panel from the node below it,
    # so the split meets the closed pair to rounding wherever it is read
    k = K.gaussian_kernel(c, d)
    parts = hodge_split_quietly(k, r_grid)
    for r in between_and_below(k, r_grid):
        assert worst_gaussian_pair_deviation(parts, c, d, r) <= 1e-13


@pytest.mark.parametrize("r_grid", [None, COARSE_GRID], ids=["default", "coarse"])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_hodge_split_of_cauchy_is_the_ball_mean_between_and_below_the_nodes(sigma, r_grid):
    k = K.cauchy_kernel(sigma, 2)
    curl_free, _ = hodge_split_quietly(k, r_grid)
    between, below = between_and_below(k, r_grid)
    r = np.concatenate([between, below[1:]])
    want = sigma ** 2 * np.log1p(np.square(r / sigma)) / (2.0 * r ** 2)
    assert np.max(np.abs(curl_free.k_perp(r) - want)) <= 1e-13 * k.k0


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_hodge_split_of_cauchy_matches_the_ball_mean(sigma):
    # for a scalar kernel, kperp of the curl-free part is the mean of kpar over
    # the ball of radius r divided by d: sigma^2 ln(1 + r^2/sigma^2) / (2 r^2)
    k = K.cauchy_kernel(sigma, 2)
    curl_free, _ = hodge_split_quietly(k)
    scale = k.tail_scale / 7.0
    grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)
    r = np.concatenate([grid, np.geomspace(grid[0], grid[-1], 1000)])
    want = sigma ** 2 * np.log1p(np.square(r / sigma)) / (2.0 * r ** 2)
    assert np.max(np.abs(curl_free.k_perp(r) - want)) <= 1e-7 * k.k0


@pytest.mark.parametrize("make", [
    lambda: K.family_example1(1.0, 1.0, 1.0, 2),          # inside D1
    lambda: K.gaussian_kernel(1.0, 3),
], ids=["example1", "gaussian_d3"])
def test_hodge_parts_have_their_masked_coefficient_zero(make):
    # the Fourier characterization, independent of how the split is built:
    # hperp of the curl-free part and hpar of the div-free part vanish.  Not
    # for Cauchy, whose r^-d component tails truncate at ~3e-3 of the peak
    curl_free, div_free = hodge_split_quietly(make())
    s_cf, s_df = S.forward_map(curl_free), S.forward_map(div_free)
    assert np.max(np.abs(s_cf.h_perp_samples)) <= 1e-6 * np.max(np.abs(s_cf.h_par_samples))
    assert np.max(np.abs(s_df.h_par_samples)) <= 1e-6 * np.max(np.abs(s_df.h_perp_samples))


@pytest.mark.parametrize("r_grid", [
    [0.0, 1.0, 2.0], [-1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 1.0, 2.0],
    [1.0, np.inf], [np.nan, 1.0], [], [[1.0, 2.0]],
], ids=["zero", "negative", "unsorted", "repeated", "infinite", "nan", "empty", "2-d"])
def test_hodge_split_rejects_a_bad_r_grid(r_grid):
    with pytest.raises(ValueError, match="r grid"):
        S.hodge_split(K.gaussian_kernel(1.0, 2), r_grid=r_grid)


def test_hodge_split_derivatives_off_the_grid(gaussian_split):
    # beyond the grid G = -int_0^R s^d D / r^(d+2), the multipole, carries the
    # derivatives; below it the Gauss-Legendre panel from r = 0 does
    r0 = 1e-3 * K.gaussian_kernel(1.0, 2).tail_scale / 7.0
    for part, exact in zip(gaussian_split, K.gaussian_hodge_pair(1.0, 2)):
        far = np.array([30.0, 60.0])
        np.testing.assert_allclose(coefficients(part, far)[2:], coefficients(exact, far)[2:],
                                   rtol=1e-5)
        near = np.array([r0 / 2])
        np.testing.assert_allclose(coefficients(part, near)[2:], coefficients(exact, near)[2:],
                                   rtol=0, atol=1e-3)


def test_hodge_split_warns_on_heavy_tails():
    with pytest.warns(S.HeavyTailWarning):
        S.hodge_split(K.gaussian_kernel(1.0, 2))


def test_hodge_split_tabulates_from_two_radial_calls():
    # B and ktilde at the panel nodes and at two radii near 0; a part then
    # takes one radial call with derivatives on the 16 points of the panel
    # below each radius, and the calls without derivatives are k's own values
    k = K.family_example1(1.0, 1.0, 1.0, 2)
    calls = []

    def radial(s, derivatives=False):
        calls.append((derivatives, np.size(s)))
        return k.radial(s, derivatives)

    counted = K.TriKernel(dim=k.dim, radial=radial, tail_scale=k.tail_scale)
    calls.clear()
    curl_free, _ = hodge_split_quietly(counted, np.geomspace(0.05, 5.0, 24))
    # the four 16-point calls are the parts' k0 and the heavy-tail check at R
    assert [n for deriv, n in calls if deriv] == [16 * 24, 2, 16, 16, 16, 16]
    assert all(n == 1 for deriv, n in calls if not deriv)
    calls.clear()
    curl_free.radial(np.square(np.linspace(0.0, 8.0, 10)), True)
    assert calls == [(True, 10), (True, 16 * 10)]


def test_hodge_split_of_div_free_input_is_trivial():
    r = np.geomspace(0.05, 4.0, 30)
    kdf = K.make_div_free(K.gaussian_profile(0.5, 1.0), 2)
    part_cf, part_df = hodge_split_quietly(kdf)
    scale = np.max(np.abs(kdf.k_par(r)))
    assert np.max(np.abs(part_cf.k_par(r))) < 1e-8 * scale
    assert np.max(np.abs(part_df.k_par(r) - kdf.k_par(r))) < 1e-6 * scale

    # and a curl-free input: its div-free part, the complement, carries only
    # the inversion error of the curl-free one
    kcf = K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2)
    part_cf, part_df = hodge_split_quietly(kcf)
    scale = np.max(np.abs(kcf.k_par(r)))
    assert np.max(np.abs(part_df.k_par(r))) < 1e-6 * scale
    assert np.max(np.abs(part_df.k_perp(r))) < 1e-6 * scale
    assert np.max(np.abs(part_cf.k_par(r) - kcf.k_par(r))) < 1e-6 * scale


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make, zero", [
    (lambda d: K.make_curl_free(K.gaussian_profile(0.5, 1.0), d), 1),
    (lambda d: K.make_div_free(K.gaussian_profile(0.5, 1.0), d), 0),
    (lambda d: K.make_div_free(K.bessel_profile(3.5, 1.0), d), 0),
    (lambda d: K.family_example1(2.0 / (d - 1), 1.0, 1.0, d), 0),   # b = (d-1) a / (2c)
    (lambda d: K.family_example2(2.0, 1.0, 1.0, d), 1),             # b = a / (2c)
], ids=["curl_free", "div_free", "bessel_div_free", "example1_D1_edge", "example2_D2_edge"])
def test_hodge_split_of_a_generated_kernel_without_scalar_term_is_exact(make, zero, dim):
    # w_s = 0: one part is exactly the zero kernel and the other is k itself,
    # with no integrals, hence no truncation and no HeavyTailWarning
    k = make(dim)
    assert k.generator[1][0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", S.HeavyTailWarning)
        parts = S.hodge_split(k)
    s = np.square(np.concatenate([[0.0], np.linspace(0.05, 5.0, 200)]))
    for coefficient in parts[zero].radial(s, True):
        assert np.all(coefficient == 0.0)
    for got, want in zip(parts[1 - zero].radial(s, True), k.radial(s, True)):
        assert np.array_equal(got, want)


def test_hodge_split_of_a_generated_curl_and_div_sum_matches_the_integrals():
    # with both w_c and w_d nonzero, the parts are the constructions of the
    # scaled profiles; the radial integrals of the generic path agree
    prof = K.gaussian_profile(1.0, 1.0)
    curl_free, div_free = K.make_curl_free(prof, 2), K.make_div_free(prof, 2)
    wc, wd = 0.5, 2.0

    def radial(s, derivatives=False):
        return tuple(wc * a + wd * b for a, b in zip(curl_free.radial(s, derivatives),
                                                     div_free.radial(s, derivatives)))

    k = K.TriKernel(dim=2, radial=radial, tail_scale=prof.tail_scale,
                    generator=(prof, (0.0, wc, wd)))
    exact = S.hodge_split(k)
    integrals = hodge_split_quietly(replace(k, generator=None))
    s = np.square(np.linspace(0.05, 5.0, 200))
    for part, want, w, unit in zip(exact, integrals, (wc, wd), (curl_free, div_free)):
        for got, ref, built in zip(part.radial(s, True), want.radial(s, True),
                                   unit.radial(s, True)):
            assert np.array_equal(got, w * built)
            assert np.max(np.abs(got - ref)) <= 1e-6 * abs(k.k0)


@pytest.mark.parametrize("make", [
    lambda: K.gaussian_kernel(1.0, 2),
    lambda: K.gaussian_kernel(1.0, 3),
    lambda: K.cauchy_kernel(1.0, 2),
    lambda: K.family_example1(1.0, 1.0, 1.0, 2),          # inside D1
], ids=["gaussian_d2", "gaussian_d3", "cauchy", "example1"])
def test_hodge_split_parts_sum_to_the_kernel(make):
    # the div-free part is the complement k - curl_free, so the sum is k to
    # rounding in every coefficient: below, on and beyond the spline grid
    k = make()
    scale = k.tail_scale / 7.0
    r_grid = np.geomspace(1e-3 * scale, 24.0 * scale, 512)
    k1, k2 = hodge_split_quietly(k, r_grid)
    r = np.concatenate([[0.0, r_grid[0] / 10, r_grid[0] / 2], r_grid[::7],
                        [2.0 * r_grid[-1], 10.0 * r_grid[-1]]])
    tol = 1e-15 * abs(k.k0)
    assert np.max(np.abs(k1.k_par(r) + k2.k_par(r) - k.k_par(r))) <= tol
    s = np.square(r)
    for c1, c2, c in zip(k1.radial(s, True), k2.radial(s, True), k.radial(s, True)):
        assert np.max(np.abs(c1 + c2 - c)) <= tol
    # and each part meets its differential characterization to rounding,
    # which checks how the derivatives are assembled
    assert np.max(np.abs(K.curl_free_residual(k1, r))) <= 1e-14 * abs(k.k0) / scale
    assert np.max(np.abs(K.div_free_residual(k2, r))) <= 1e-14 * abs(k.k0) / scale


def test_hodge_orthogonality_defect_scales_inversely_with_area(gaussian_split):
    k1, k2 = gaussian_split
    # components decay like 1/r^2, so the pairing defect over a ball of
    # radius R is ~ 1/R^2 relative; radius 8 sits near 1.6e-2
    ip8, n1, n2 = S.hodge_orthogonality(k1, k2, 8.0)
    assert abs(ip8) / (n1 * n2) == pytest.approx(1.0 / 64.0, rel=0.15)
    ip200, m1, m2 = S.hodge_orthogonality(k1, k2, 200.0)
    assert abs(ip200) / (m1 * m2) <= 1e-4


def relative_pairing(k1, k2, radius):
    inner, n1, n2 = S.hodge_orthogonality(k1, k2, radius)
    return abs(inner) / (n1 * n2)


def panel_pairing(k1, k2, radius, panels):
    """The relative pairing by composite 16-point Gauss-Legendre on uniform panels."""
    d = k1.dim
    t, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, radius, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    r = (edges[:-1, None] + half * (1.0 + t)).ravel()
    weight = (half * w).ravel() * r ** (d - 1)
    p1, q1, p2, q2 = k1.k_par(r), k1.k_perp(r), k2.k_par(r), k2.k_perp(r)
    inner = weight @ (p1 * p2 + (d - 1) * q1 * q2)
    sq1 = weight @ (p1 * p1 + (d - 1) * q1 * q1)
    sq2 = weight @ (p2 * p2 + (d - 1) * q2 * q2)
    return abs(inner) / math.sqrt(sq1 * sq2)


@pytest.mark.parametrize("radius", [198.0, 6260.0])
def test_hodge_orthogonality_radii_budget(radius):
    # one panel quadrature ending at R: the number of radii does not grow with R
    k1, k2 = K.gaussian_hodge_pair(1.0, 2)
    seen = []

    def counted(r):
        seen.append(np.size(r))
        return k1.k_par(r)

    S.hodge_orthogonality(replace(k1, k_par=counted), k2, radius)
    assert 0 < sum(seen) <= 1500


@pytest.mark.parametrize("d", [2, 3])
def test_hodge_orthogonality_is_scale_invariant(d):
    # the closed-form pair at R = 200 tail/7 is one shape at every width c
    rels = [relative_pairing(*K.gaussian_hodge_pair(c, d), 200.0 * math.sqrt(48.0 / c) / 7.0)
            for c in (1e-6, 1e-3, 1.0, 1e3)]
    np.testing.assert_allclose(rels, rels[2], rtol=1e-8)
    ref = panel_pairing(*K.gaussian_hodge_pair(1.0, d), 200.0 * math.sqrt(48.0) / 7.0, 2000)
    assert rels[2] == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("d", [2, 3])
def test_hodge_split_pairs_as_the_closed_pair(d):
    # the numerical parts give the closed pair's pairing, 2.5521e-5 in the plane
    k = K.gaussian_kernel(1.0, d)
    radius = 200.0 * k.tail_scale / 7.0
    assert relative_pairing(*hodge_split_quietly(k), radius) == pytest.approx(
        relative_pairing(*K.gaussian_hodge_pair(1.0, d), radius), rel=1e-9)


def test_hodge_orthogonality_of_a_numerical_split():
    k = K.family_example1(1.0, 1.0, 1.0, 2)
    k1, k2 = hodge_split_quietly(k)
    radius = 200.0 * k.tail_scale / 7.0
    # the parts are their own integrals at every radius, so the geometric
    # panels read them as the uniform ones do (reference 1.05355e-5)
    assert relative_pairing(k1, k2, radius) == pytest.approx(
        panel_pairing(k1, k2, radius, 1000), rel=1e-3)


# --- input checks ---------------------------------------------------------------

@pytest.mark.parametrize("radius", [math.inf, 0.0])
def test_hodge_orthogonality_needs_a_finite_positive_radius(radius):
    # the radius is the moment's panel scale: at infinity the pairing read
    # (nan, nan, nan) and at 0 it read 0
    with pytest.raises(ValueError, match="tail_hint must be finite and positive"):
        S.hodge_orthogonality(*K.gaussian_hodge_pair(1.0, 2), radius)


@pytest.mark.parametrize("call, message", [
    (lambda: S.inverse_map(S.gaussian_spectrum(1.0, 2), [-1.0, 1.0]),
     "r grid must be nonnegative"),
    (lambda: S.spectrum_matrix(S.gaussian_spectrum(1.0, 2), [1.0, 0.0, 0.0]),
     "expected a vector of length 2"),
    (lambda: S.spectrum_matrix(S.gaussian_spectrum(1.0, 2), [0.0, 0.0]),
     "spectral matrix is defined for xi != 0"),
    (lambda: S.mixed_gaussian_spectrum(0.0, 1.0, 2), "c1 and c2 must be positive"),
], ids=["inverse_map-negative-radius", "spectrum_matrix-length", "spectrum_matrix-origin",
        "mixed-c1-0"])
def test_bad_spectral_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
