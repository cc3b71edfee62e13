"""Interpolation, field evaluation, and pointwise field calculus."""

import math
import tracemalloc

import numpy as np
import pytest

from trikernels import fields as F
from trikernels import kernels as K
from conftest import FAMILIES, annulus_point, curl_norm, fd_jacobian, projector_oracle


# --- landmark configuration ---------------------------------------------------

def test_landmarks_reject_coincident_points():
    with pytest.raises(ValueError):
        F.LandmarkConfig(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        F.LandmarkConfig(np.array([[0.0, 0.0], [1e-10, 0.0]]))


def test_landmarks_shape():
    cfg = F.LandmarkConfig(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert cfg.n == 2 and cfg.dim == 2


# --- block matrix ---------------------------------------------------------------

def test_block_matrix_single_landmark():
    k = K.gaussian_kernel(1.0, 2)
    cfg = F.LandmarkConfig(np.array([[0.3, -0.2]]))
    np.testing.assert_allclose(F.assemble_block_matrix(k, cfg), np.eye(2))


def test_block_matrix_two_points_gaussian():
    k = K.gaussian_kernel(0.5, 2)  # e^{-r^2/2}
    cfg = F.LandmarkConfig(np.array([[0.0, 0.0], [1.0, 0.0]]))
    m = F.assemble_block_matrix(k, cfg)
    np.testing.assert_allclose(m[:2, 2:], math.exp(-0.5) * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(m, m.T, atol=0.0)


def test_block_matrix_dim_mismatch():
    k = K.gaussian_kernel(1.0, 3)
    with pytest.raises(ValueError):
        F.assemble_block_matrix(k, F.LandmarkConfig(np.array([[0.0, 0.0]])))


def test_block_matrix_positive_definite(rng):
    for k in (K.gaussian_kernel(1.0, 2), K.family_example1(1.5, 1.0, 1.0, 2)):
        for _ in range(5):
            pts = rng.normal(size=(5, 2)) * 2.0
            gram = F.assemble_block_matrix(k, F.LandmarkConfig(pts))
            assert np.linalg.eigvalsh(gram).min() > 0


def test_blockwise_quadratic_form_consistency(rng):
    k = K.family_example1(1.5, 1.0, 1.0, 2)
    pts = rng.normal(size=(4, 2))
    al = rng.normal(size=(4, 2))
    gram = F.assemble_block_matrix(k, F.LandmarkConfig(pts))
    direct = sum(al[a] @ K.eval_matrix(k, pts[a] - pts[b]) @ al[b]
                 for a in range(4) for b in range(4))
    assert al.ravel() @ gram @ al.ravel() == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda: K.gaussian_kernel(1.0, 2),
    lambda: K.family_example1(1.5, 1.0, 1.0, 2),
    lambda: K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2),
    lambda: K.make_div_free(K.gaussian_profile(0.5, 1.0), 2),
], ids=["gaussian", "example1", "curl_free", "div_free"])
def test_block_matrix_equals_per_pair_blocks(make, rng):
    k = make()
    pts = rng.normal(size=(7, 2))
    gram = F.assemble_block_matrix(k, F.LandmarkConfig(pts))
    for a in range(7):
        for b in range(7):
            want = projector_oracle(k, pts[a] - pts[b])
            got = gram[2 * a:2 * a + 2, 2 * b:2 * b + 2]
            assert np.max(np.abs(got - want)) <= 1e-14 * abs(k.k0)
    np.testing.assert_array_equal(gram, gram.T)


# --- interpolation ---------------------------------------------------------------

def test_interpolate_zero_targets():
    k = K.gaussian_kernel(1.0, 2)
    cfg = F.LandmarkConfig(np.array([[0.0, 0.0], [1.0, 1.0]]))
    res = F.interpolate(k, cfg, np.zeros((2, 2)))
    assert np.all(res.momenta.vectors == 0.0)
    assert res.norm_sq == 0.0
    assert np.all(res.interpolant(np.array([[0.3, 0.4]])) == 0.0)


def test_interpolate_single_landmark_closed_form():
    k = K.gaussian_kernel(1.0, 2, amplitude=2.0)  # k0 = 2
    cfg = F.LandmarkConfig(np.array([[0.0, 0.0]]))
    beta = np.array([[3.0, -1.0]])
    res = F.interpolate(k, cfg, beta)
    np.testing.assert_allclose(res.momenta.vectors, beta / 2.0)
    assert res.norm_sq == pytest.approx(np.sum(beta ** 2) / 2.0)


def test_interpolate_reproduces_constraints(rng):
    k = K.gaussian_kernel(0.5, 2)
    pts = rng.normal(size=(4, 2))
    beta = rng.normal(size=(4, 2))
    cfg = F.LandmarkConfig(pts)
    res = F.interpolate(k, cfg, beta)
    resid = np.max(np.linalg.norm(res.interpolant(pts) - beta, axis=1))
    assert resid <= 1e-10
    assert res.norm_sq == pytest.approx(float(res.momenta.vectors.ravel() @ beta.ravel()))


def test_interpolate_minimal_norm_property(rng):
    k = K.gaussian_kernel(0.5, 2)
    pts = rng.normal(size=(4, 2))
    beta = rng.normal(size=(4, 2))
    cfg = F.LandmarkConfig(pts)
    best = F.interpolate(k, cfg, beta)
    for _ in range(20):
        extra = rng.normal(size=(3, 2)) * 2.0
        gamma = rng.normal(size=(3, 2)) * 0.5
        # re-solve the same constraints with the extra centers contributing
        adjusted = beta - F.field_apply(k, extra, gamma, pts)
        res = F.interpolate(k, cfg, adjusted)
        allpts = np.vstack([pts, extra])
        allmom = np.vstack([res.momenta.vectors, gamma])
        gram = F.assemble_block_matrix(k, F.LandmarkConfig(allpts))
        norm_sq = float(allmom.ravel() @ gram @ allmom.ravel())
        assert norm_sq >= best.norm_sq - 1e-9


def test_interpolate_near_singular_raises():
    # a rank-one kernel matrix: zero kernel is degenerate
    zero = K.family_example1(0.0, 0.0, 1.0, 2)
    cfg = F.LandmarkConfig(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(F.NearSingularMatrixError) as err:
        F.interpolate(zero, cfg, np.ones((2, 2)))
    assert err.value.condition >= 0.0


# --- field evaluation --------------------------------------------------------------

def test_field_apply_matches_the_matrix_sum():
    # field_apply works coordinate-major internally; its values must equal
    # the sum of kernel matrices applied to the momenta, for any input layout
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(FAMILIES)),
           d=st.sampled_from([2, 3]), m=st.integers(1, 40), n=st.integers(1, 6),
           layout=st.sampled_from(["C", "F", "single"]), on_center=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def check(name, d, m, n, layout, on_center, seed):
        k = FAMILIES[name](1.0, d, 0.5)
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(n, d))
        momenta = rng.normal(size=(n, d))
        pts = rng.normal(size=(1 if layout == "single" else m, d)) * 1.5
        if on_center:
            pts[0] = centers[-1]        # the zero-radius branch
        points = {"C": pts, "F": np.ascontiguousarray(pts.T).T, "single": pts[0]}[layout]
        before = [a.copy() for a in (centers, momenta, points)]
        got = F.field_apply(k, centers, momenta, points)
        terms = K.eval_matrix(k, pts[:, None, :] - centers[None]) @ momenta[None, :, :, None]
        want = terms[..., 0].sum(axis=1)
        scale = np.abs(terms).sum(axis=1).max()
        if layout == "single":
            want = want[0]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        for a, b in zip((centers, momenta, points), before):
            assert np.array_equal(a, b)

    check()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_field_apply_is_the_same_on_both_sides_of_a_chunk_boundary(name, d):
    # M N just over 2 PAIR_BUDGET gives three chunks, the last one ragged; a
    # one-point tail joins the chunk before it, and past N = PAIR_BUDGET / 2
    # a chunk is the two-point minimum.  A lone point is evaluated as the
    # two-point chunk of itself twice, so any split of the points into
    # pieces, one-point pieces among them, gives the same bits, and so does
    # each point on its own, as a (d,) point or through snapshot_field
    k = FAMILIES[name](1.0, d, 0.5)
    rng = np.random.default_rng(2 * len(name) + d)
    step = F.PAIR_BUDGET // 6
    for n, m in ((6, 2 * step + 40), (6, 2 * step + 1), (F.PAIR_BUDGET // 2 + 1, 7)):
        centers = rng.normal(size=(n, d))
        momenta = rng.normal(size=(n, d))
        pts = rng.normal(size=(m, d)) * 1.5
        terms = K.eval_matrix(k, pts[:, None, :] - centers[None]) @ momenta[None, :, :, None]
        want = terms[..., 0].sum(axis=1)
        scale = np.abs(terms).sum(axis=1).max()
        lone = int(rng.integers(1, m - 2))
        cuts = np.unique(np.append(rng.choice(np.arange(1, m), size=3), [lone, lone + 1, m - 1]))
        for layout in ("C", "F"):
            points = {"C": pts, "F": np.ascontiguousarray(pts.T).T}[layout]
            got = F.field_apply(k, centers, momenta, points)
            pieces = [F.field_apply(k, centers, momenta, part) for part in np.split(points, cuts)]
            assert np.array_equal(got, np.concatenate(pieces))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
            assert got.T.flags.c_contiguous and not got.flags.owndata
        for j in (0, lone, m - 1):
            single = F.field_apply(k, centers, momenta, pts[j])
            assert single.shape == (d,) and np.array_equal(single, got[j])
            one = F.field_apply(k, centers, momenta, pts[j:j + 1])
            assert np.array_equal(one, got[j:j + 1])
            assert one.T.flags.c_contiguous and not one.flags.owndata
            assert np.max(np.abs(single - want[j])) <= 1e-13 * scale
        if n == 6:      # a LandmarkConfig holds its N^2 distances while checking them
            field = F.snapshot_field(k, F.LandmarkConfig(centers), F.MomentaSet(momenta))
            assert all(np.array_equal(field(pts[j]), got[j]) for j in (0, lone, m - 1))


@pytest.mark.parametrize("make", [
    lambda c: K.gaussian_kernel(c, 2),
    lambda c: K.family_example1(2.0 * c, 1.0, c, 2),
    lambda c: K.make_curl_free(K.gaussian_profile(1.0 / (2.0 * c), c), 2),
], ids=["gaussian", "example1", "curl_free"])
def test_field_apply_memory_does_not_grow_with_the_points(make):
    # the registration evaluation: N = 100 centres, 10^4 points.  A chunk of
    # PAIR_BUDGET // N = 81 points holds at most PAIR_BUDGET pairs: the
    # displacements (d doubles a pair) and about a dozen pair-sized
    # coefficient arrays, under (d + 16) * 8 B * PAIR_BUDGET = 1.1 MiB, next
    # to the chunks' (d, m) values, the (d, M) result they are joined into
    # and the (d, M) copy of the points, 3 * 16 B * M = 0.46 MiB.  4 MiB
    # leaves room for a kernel's own temporaries; evaluating all 10^6 pairs
    # at once peaks at 54-61 MiB
    k = make(81.0)
    axis = np.linspace(-1.0, 1.0, 10)
    centers = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], -1)
    momenta = np.random.default_rng(0).normal(size=centers.shape)
    axis = np.linspace(-1.2, 1.2, 100)
    pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], -1)
    tracemalloc.start()
    try:
        F.field_apply(k, centers, momenta, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


# --- snapshot fields -------------------------------------------------------------

def test_snapshot_field_zero_momenta():
    k = K.gaussian_kernel(1.0, 2)
    cfg = F.LandmarkConfig(np.array([[0.0, 0.0], [1.0, 0.0]]))
    field = F.snapshot_field(k, cfg, F.MomentaSet(np.zeros((2, 2))))
    pts = np.array([[0.2, 0.3], [-1.0, 0.5]])
    assert np.all(field(pts) == 0.0)


def test_snapshot_field_matches_direct_sum(rng):
    k = K.family_example2(1.5, 1.0, 1.0, 2)
    pts = rng.normal(size=(3, 2))
    al = rng.normal(size=(3, 2))
    field = F.snapshot_field(k, F.LandmarkConfig(pts), F.MomentaSet(al))
    y = rng.normal(size=2)
    direct = sum(K.eval_matrix(k, y - pts[b]) @ al[b] for b in range(3))
    np.testing.assert_allclose(field(y), direct, atol=1e-13)


def test_snapshot_field_three_kernel_setup():
    # the three-landmark unit-momentum configuration evaluates finitely
    # under the scalar, curl-free and div-free kernels alike
    q = np.array([[-1.0, 0.0], [-0.5, 1.0], [1.0, 0.0]])
    al = np.array([[1 / math.sqrt(2), 1 / math.sqrt(2)],
                   [-2 / math.sqrt(5), 1 / math.sqrt(5)],
                   [-2 / math.sqrt(5), -1 / math.sqrt(5)]])
    cfg, mom = F.LandmarkConfig(q), F.MomentaSet(al)
    kernels = [K.gaussian_kernel(1.0, 2),
               K.family_example2(2.0, 1.0, 1.0, 2),
               K.family_example1(2.0, 1.0, 1.0, 2)]
    grid = np.stack(np.meshgrid(np.linspace(-2.5, 2.5, 12),
                                np.linspace(-2.0, 2.5, 12)), axis=-1).reshape(-1, 2)
    for k in kernels:
        vals = F.snapshot_field(k, cfg, mom)(grid)
        assert np.all(np.isfinite(vals))
        # at each landmark the field contains the self term k0 * alpha
        at_q = F.snapshot_field(k, cfg, mom)(q)
        assert np.all(np.isfinite(at_q))


def test_example1_field_vortices():
    # single-center field with first-axis momentum vanishes at (0, +-sqrt(b/a))
    a, b = 2.0, 1.0
    k = K.family_example1(a, b, 1.0, 2)
    e1 = np.array([1.0, 0.0])
    for sign in (+1.0, -1.0):
        z = F.field_zero(k, e1, np.array([0.05, sign * 0.65]))
        np.testing.assert_allclose(z, [0.0, sign * math.sqrt(b / a)], atol=1e-9)



def test_field_zero_evaluates_the_kernel_once_per_step():
    # the residual k(x) alpha and the Jacobian share one radial call, so no
    # displacement is evaluated twice: 4 Newton steps and 5 residuals here
    k = K.family_example1(2.0, 1.0, 1.0, 2)
    radii = []

    def radial(s, derivatives=False):
        radii.append(float(np.ravel(s)[0]))
        return k.radial(s, derivatives)

    counted = K.TriKernel(dim=2, radial=radial, tail_scale=k.tail_scale)
    radii.clear()
    z = F.field_zero(counted, np.array([1.0, 0.0]), np.array([0.05, 0.65]))
    np.testing.assert_allclose(z, [0.0, math.sqrt(0.5)], atol=1e-9)
    assert len(radii) == len(set(radii)) == 5

# --- divergence and curl ----------------------------------------------------------

def test_divergence_examples():
    k = K.gaussian_kernel(0.5, 2)  # e^{-r^2/2}
    x, e1 = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    assert F.divergence_at(k, x, e1) == pytest.approx(-math.exp(-0.5), rel=1e-12)
    # transverse momentum kills the radial prefactor
    assert F.divergence_at(k, x, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)


def test_divergence_zero_for_div_free(rng):
    k = K.make_div_free(K.gaussian_profile(0.5, 1.0), 2)
    for _ in range(10):
        x = rng.normal(size=2)
        al = rng.normal(size=2)
        if np.linalg.norm(x) < 0.05:
            continue
        assert abs(F.divergence_at(k, x, al)) <= 1e-10


def test_curl_zero_for_curl_free(rng):
    k = K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2)
    for _ in range(10):
        x = rng.normal(size=2)
        al = rng.normal(size=2)
        if np.linalg.norm(x) < 0.05:
            continue
        assert abs(F.curl_magnitude_at(k, x, al)) <= 1e-10


def test_curl_zero_for_parallel_momentum(rng):
    k = K.gaussian_kernel(1.0, 2)
    x = rng.normal(size=2)
    assert F.curl_magnitude_at(k, x, 3.0 * x) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("make", [
    lambda: K.gaussian_kernel(1.0, 2),
    lambda: K.family_example1(1.0, 1.0, 1.0, 3),
    lambda: K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2),
    lambda: K.make_div_free(K.gaussian_profile(0.25, 1.0), 3),
], ids=["gaussian", "example1_3d", "curl_free", "div_free"])
def test_divergence_and_curl_batched_equal_per_point(make, rng):
    k = make()
    x = rng.normal(size=(5, 3, k.dim))
    al = rng.normal(size=(3, k.dim))  # one momentum per column, broadcast over rows
    div = F.divergence_at(k, x, al)
    curl = F.curl_magnitude_at(k, x, al)
    assert div.shape == curl.shape == (5, 3)
    for i, j in np.ndindex(5, 3):
        one_div = F.divergence_at(k, x[i, j], al[j])
        one_curl = F.curl_magnitude_at(k, x[i, j], al[j])
        assert isinstance(one_div, float) and isinstance(one_curl, float)
        assert div[i, j] == pytest.approx(one_div, rel=1e-14, abs=1e-15 * abs(k.k0))
        assert curl[i, j] == pytest.approx(one_curl, rel=1e-14, abs=1e-15 * abs(k.k0))
    x[2, 1] = 0.0
    assert F.divergence_at(k, x, al)[2, 1] == 0.0
    assert F.curl_magnitude_at(k, x, al)[2, 1] == 0.0


def test_divergence_matches_finite_differences(rng):
    kernels = [K.gaussian_kernel(1.0, 2), K.family_example1(1.5, 1.0, 1.0, 2),
               K.family_example2(1.5, 1.0, 1.0, 2), K.gaussian_kernel(1.0, 3)]
    for k in kernels:
        for _ in range(10):
            x = annulus_point(rng, k.dim, 0.2, 4.0)
            al = rng.normal(size=k.dim)
            assert F.divergence_at(k, x, al) == pytest.approx(
                np.trace(fd_jacobian(k, x, 2, 1e-6) @ al), abs=1e-6)


def test_curl_matches_finite_differences_2d(rng):
    for k in (K.gaussian_kernel(1.0, 2), K.family_example2(1.5, 1.0, 1.0, 2)):
        for _ in range(10):
            x = annulus_point(rng, 2, 0.2, 4.0)
            al = rng.normal(size=2)
            assert abs(F.curl_magnitude_at(k, x, al)) == pytest.approx(
                curl_norm(fd_jacobian(k, x, 2, 1e-6) @ al), abs=1e-6)


def test_curl_matches_finite_differences_3d(rng):
    k = K.family_example1(1.0, 1.0, 1.0, 3)
    for _ in range(10):
        x = annulus_point(rng, 3, 0.2, 4.0)
        al = rng.normal(size=3)
        want = curl_norm(fd_jacobian(k, x, 2, 1e-6) @ al)
        assert abs(F.curl_magnitude_at(k, x, al)) == pytest.approx(want, abs=1e-6)


# --- input checks ---------------------------------------------------------------

def no_zero_field_kernel():
    """kperp = ktilde = 1, so D kperp = D ktilde = 0: the field (1 + x1^2, x1 x2)
    of alpha = e1 has no zero and an invertible Jacobian off x1 = 0, where
    Newton's x1 wanders."""
    def radial(s, derivatives=False):
        one = np.ones_like(s)
        return (one, one, 0.0 * s, 0.0 * s) if derivatives else (one, one)

    return K.TriKernel(dim=2, radial=radial, tail_scale=1.0)


TWO_POINTS = F.LandmarkConfig([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: F.LandmarkConfig(np.zeros((2, 2, 2))), ValueError, "points must be an"),
    (lambda: F.MomentaSet(np.zeros((2, 2, 2))), ValueError, "vectors must be an"),
    (lambda: F.snapshot_field(K.gaussian_kernel(1.0, 2), TWO_POINTS, F.MomentaSet([[1.0, 0.0]])),
     ValueError, "momenta shape must match the landmark configuration"),
    (lambda: F.interpolate(K.gaussian_kernel(1.0, 2), TWO_POINTS, np.zeros((3, 2))),
     ValueError, "targets must be an"),
    (lambda: F.field_zero(no_zero_field_kernel(), np.array([1.0, 0.0]), np.array([0.3, 0.2])),
     RuntimeError, "field zero search did not converge"),
    (lambda: F.divergence_at(K.gaussian_kernel(1.0, 2), np.ones(3), np.ones(3)),
     ValueError, "expected vectors of length 2"),
    (lambda: F.curl_magnitude_at(K.gaussian_kernel(1.0, 2), np.ones(3), np.ones(3)),
     ValueError, "expected vectors of length 2"),
    (lambda: F.field_apply(K.gaussian_kernel(1.0, 2), np.zeros((1, 3)), np.ones((1, 3)),
                           np.ones((4, 3))),
     ValueError, "expected vectors of length 2"),
    (lambda: F.snapshot_field(K.make_div_free(K.gaussian_profile(0.25, 1.0), 2),
                              F.LandmarkConfig(np.zeros((1, 3))),
                              F.MomentaSet(np.ones((1, 3))))(np.zeros((2, 3))),
     ValueError, "expected vectors of length 2"),
], ids=["landmarks-3-d", "momenta-3-d", "snapshot-momenta-count", "interpolate-targets",
        "field_zero-no-zero", "divergence-length", "curl-length", "field_apply-length",
        "snapshot-length"])
def test_bad_fields_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
