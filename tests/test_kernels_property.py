"""Property tests: eval_matrix is rotation-equivariant and batch-consistent, the
block Gram matrix is symmetric positive semidefinite, and every family's pair
coefficients match the paper's formulas."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import kernels as K  # noqa: E402
from trikernels import fields as F  # noqa: E402
from conftest import (bessel_derivatives, cauchy_derivatives, derivative_pair,  # noqa: E402
                      gaussian_derivatives, random_rotation)
# the shared kernel table; FAMILIES below pairs kernels with paper oracles
from conftest import FAMILIES as KERNELS  # noqa: E402
from trikernels.specfun import lower_gamma  # noqa: E402


# each table family at width 1
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), dim=st.integers(2, 4),
       n=st.integers(1, 6), scale=st.sampled_from([0.05, 0.5, 2.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_matrix_rotation_equivariant_and_batch_consistent(name, dim, n, scale, seed):
    k = KERNELS[name](1.0, dim, 0.5)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim)) * scale
    rot = random_rotation(rng, dim)
    tol = 1e-13 * abs(k.k0)
    batched = K.eval_matrix(k, x)
    rotated = K.eval_matrix(k, x @ rot.T)
    for i in range(n):
        single = K.eval_matrix(k, x[i])
        np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-15 * abs(k.k0))
        np.testing.assert_allclose(rotated[i], rot @ single @ rot.T, rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), dim=st.sampled_from([2, 3]),
       lam=st.floats(0.25, 0.75), n=st.integers(3, 6), spread=st.sampled_from([0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gram_matrix_is_symmetric_positive_semidefinite(name, dim, lam, n, spread, seed):
    # landmarks in a box about the kernel's width 1, at least a tenth of it
    # apart: at least three of them, since one or two points do not expose a
    # non-PD kernel (example1 outside D1 fails on about half of such draws)
    pts = np.random.default_rng(seed).uniform(-spread, spread, size=(n, dim))
    gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1) + np.eye(n)
    assume(gaps.min() >= 0.1)
    gram = F.assemble_block_matrix(KERNELS[name](1.0, dim, lam), F.LandmarkConfig(pts))
    assert np.array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-12 * np.trace(gram)


# --- pair coefficients against the paper's formulas ---------------------------
#
# Each family's (kpar, kperp, dkpar, dkperp) as the paper writes them, computed
# here from the generating profile's closed-form derivatives value/d1/d2/d3
# (and the incomplete gamma function for the Hodge pair), never from the
# kernel under test.

def _paper_example(sign_par, a, b, c):
    p = gaussian_derivatives(1.0, c)

    def coefficients(r, d):
        e, de = p.value(r), p.d1(r)
        slanted, dslanted = (b - a * r * r) * e, -2.0 * a * r * e + (b - a * r * r) * de
        flat, dflat = b * e, b * de
        if sign_par:   # example1: kpar = b e, kperp = (b - a r^2) e
            return flat, slanted, dflat, dslanted
        return slanted, flat, dslanted, dflat
    return coefficients


def _paper_scalar(p):
    return lambda r, d: (p.value(r), p.value(r), p.d1(r), p.d1(r))


def _paper_curl_free(p):
    return lambda r, d: (-p.d2(r), -p.d1(r) / r, -p.d3(r),
                         -(p.d2(r) * r - p.d1(r)) / (r * r))


def _paper_div_free(p):
    def coefficients(r, d):
        over_r = p.d1(r) / r
        dover_r = (p.d2(r) * r - p.d1(r)) / (r * r)
        return (-(d - 1) * over_r, -(d - 2) * over_r - p.d2(r),
                -(d - 1) * dover_r, -(d - 2) * dover_r - p.d3(r))
    return coefficients


def _paper_hodge(part, c):
    p = gaussian_derivatives(1.0, c)

    def coefficients(r, d):
        mu = d / 2.0 - 1.0
        e, de = p.value(r), p.d1(r)
        h = lower_gamma(mu + 1.0, c * r * r) / (2.0 * c ** (mu + 1.0) * r ** (2.0 * mu + 2.0))
        dh = (e - d * h) / r
        curl_free = (e - (d - 1) * h, h, de - (d - 1) * dh, dh)
        if part == 0:
            return curl_free
        return tuple(g - k for g, k in zip((e, e, de, de), curl_free))
    return coefficients


def _bessel(sigma, offset, d):
    """Normalized Sobolev profile of order nu = offset > 2 (C^4 at the origin),
    and its closed-form derivatives."""
    amp = K.sobolev_green_constant(sigma, offset + d / 2.0, d)
    return K.bessel_profile(offset, sigma, amp), bessel_derivatives(offset, sigma, amp)


# name -> (kernel, paper coefficients, length scale) from drawn (a, b, c) and d;
# a and b lie in [0.1, 3], c in [0.5, 16]
FAMILIES = {
    "gaussian": lambda a, b, c, d: (K.gaussian_kernel(c, d, amplitude=a),
                                    _paper_scalar(gaussian_derivatives(a, c)), c ** -0.5),
    "cauchy": lambda a, b, c, d: (K.cauchy_kernel(b, d), _paper_scalar(cauchy_derivatives(b)), b),
    "bessel": lambda a, b, c, d: (K.bessel_kernel(b, 2.5 + a + d / 2.0, d),
                                  _paper_scalar(_bessel(b, 2.5 + a, d)[1]), b),
    "example1": lambda a, b, c, d: (K.family_example1(a, b, c, d),
                                    _paper_example(True, a, b, c), c ** -0.5),
    "example2": lambda a, b, c, d: (K.family_example2(a, b, c, d),
                                    _paper_example(False, a, b, c), c ** -0.5),
    "curl_free_gaussian": lambda a, b, c, d: (
        K.make_curl_free(K.gaussian_profile(a, c), d),
        _paper_curl_free(gaussian_derivatives(a, c)), c ** -0.5),
    "div_free_gaussian": lambda a, b, c, d: (
        K.make_div_free(K.gaussian_profile(a, c), d),
        _paper_div_free(gaussian_derivatives(a, c)), c ** -0.5),
    "curl_free_cauchy": lambda a, b, c, d: (
        K.make_curl_free(K.cauchy_profile(b), d), _paper_curl_free(cauchy_derivatives(b)), b),
    "div_free_cauchy": lambda a, b, c, d: (
        K.make_div_free(K.cauchy_profile(b), d), _paper_div_free(cauchy_derivatives(b)), b),
    "curl_free_bessel": lambda a, b, c, d: (
        K.make_curl_free(_bessel(b, 2.5 + a, d)[0], d),
        _paper_curl_free(_bessel(b, 2.5 + a, d)[1]), b),
    "div_free_bessel": lambda a, b, c, d: (
        K.make_div_free(_bessel(b, 2.5 + a, d)[0], d),
        _paper_div_free(_bessel(b, 2.5 + a, d)[1]), b),
    "hodge_curl_free": lambda a, b, c, d: (K.gaussian_hodge_pair(c, d)[0],
                                           _paper_hodge(0, c), c ** -0.5),
    "hodge_div_free": lambda a, b, c, d: (K.gaussian_hodge_pair(c, d)[1],
                                          _paper_hodge(1, c), c ** -0.5),
}


def _coefficients(k, r):
    """(kpar, kperp, dkpar, dkperp) of k from the primitive, at radii r along e_1."""
    x = np.zeros(np.shape(r) + (k.dim,))
    x[..., 0] = r
    c = K.pair_coefficients(k, np.moveaxis(x, -1, 0), derivatives=True)
    return (c.kperp + c.r2 * c.ktilde, c.kperp) + derivative_pair(r, *c[1:])


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), dim=st.sampled_from([2, 3]),
       a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0), c=st.floats(0.5, 16.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_coefficients_match_paper_formulas(name, dim, a, b, c, seed):
    k, paper, scale = FAMILIES[name](a, b, c, dim)
    r = scale * np.random.default_rng(seed).uniform(0.1, 3.0, 16)
    got = _coefficients(k, r)
    want = paper(r, dim)
    labels = ("kpar", "kperp", "dkpar", "dkperp")
    for label, g, w in zip(labels, got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)),
                                   err_msg=f"{name} {label}")

    # radial is the weighted map w_s scalar + w_c curl + w_d div of the
    # generator's tuple, which the spectral side reads instead of radial
    assert (k.generator is None) == name.startswith("hodge")
    if k.generator is not None:
        profile, weights = k.generator
        units = (K.scalar_kernel(profile, dim), K.make_curl_free(profile, dim),
                 K.make_div_free(profile, dim))
        labels = ("kperp", "ktilde", "dkperp_r", "dktilde_r")
        s = np.square(r)
        columns = zip(*(unit.radial(s, True) for unit in units))
        for label, g, unit_columns in zip(labels, k.radial(s, True), columns):
            w = sum(weight * column for weight, column in zip(weights, unit_columns))
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)),
                                       err_msg=f"{name} generator {label}")

    # the derivatives are those of the coefficients: 4th-order central differences
    h = 1e-3 * scale
    at = [_coefficients(k, r + j * h) for j in (-2, -1, 1, 2)]
    for i, label in ((0, "dkpar"), (1, "dkperp")):
        fd = (at[0][i] - 8.0 * at[1][i] + 8.0 * at[2][i] - at[3][i]) / (12.0 * h)
        np.testing.assert_allclose(got[2 + i], fd, rtol=0,
                                   atol=1e-7 * np.max(np.abs(got[2 + i])),
                                   err_msg=f"{name} {label}")

    # the origin row holds the limits exactly; at r = 1e-13 the values hold them
    # to rounding and the odd derivatives are O(r)
    kpar0, kperp0, dkpar0, dkperp0 = _coefficients(k, np.zeros(1))
    assert kperp0[0] == k.k0 and kpar0[0] == k.k0
    assert dkpar0[0] == 0.0 and dkperp0[0] == 0.0
    tiny = 1e-13
    row = K.pair_coefficients(k, np.eye(dim)[0] * tiny, derivatives=True)
    dkpar, dkperp = derivative_pair(*row)
    size = abs(k.k0) / scale ** 2 + abs(k.small_r_ktilde)
    assert abs(row.kperp - k.k0) <= 1e-12 * abs(k.k0)
    assert abs(row.ktilde - k.small_r_ktilde) <= 1e-12 * size
    assert abs(dkpar) <= 10.0 * tiny * size and abs(dkperp) <= 10.0 * tiny * size
    # ... and the limits are the paper's: k0 is kperp at the origin, and the
    # small-r ktilde is (kpar - kperp)/r^2 as r -> 0
    rz = 1e-4 * scale
    wpar, wperp, _, _ = paper(np.array([rz]), dim)
    assert k.k0 == pytest.approx(wperp[0], rel=1e-6)
    # for a Bessel profile the quotient at rz differs from its limit by a term in
    # z^(2 nu - 4), z = rz / sigma: 1.7e-5 relative at nu = 2.6, the drawn minimum
    kt_tol = 2e-5 if "bessel" in name else 1e-5
    assert k.small_r_ktilde == pytest.approx((wpar[0] - wperp[0]) / rz ** 2, rel=kt_tol,
                                             abs=1e-9 * size)
