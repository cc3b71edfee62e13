"""Geodesic shooting, conservation diagnostics and grid transport."""

import numpy as np
import pytest

from trikernels import dynamics as D
from trikernels import fields as F
from trikernels import kernels as K
from conftest import B16, C16, curlfree16, derivative_pair, divfree16, row_a, row_b, scalar16


# --- hamiltonian ---------------------------------------------------------------

def test_hamiltonian_zero_momenta():
    q0, _ = row_a()
    s = D.PhaseState(q0.points, np.zeros_like(q0.points), 0.0)
    assert D.hamiltonian(scalar16(), s) == 0.0


def test_hamiltonian_single_landmark():
    k = K.gaussian_kernel(1.0, 2, amplitude=0.5)
    s = D.PhaseState(np.array([[0.2, 0.3]]), np.array([[3.0, -4.0]]), 0.0)
    assert D.hamiltonian(k, s) == pytest.approx(0.5 * 0.5 * 25.0)


def test_hamiltonian_matches_block_matrix(rng):
    k = K.family_example1(1.0, B16, C16, 2)
    q = rng.normal(size=(3, 2)) * 0.3
    p = rng.normal(size=(3, 2))
    s = D.PhaseState(q, p, 0.0)
    gram = F.assemble_block_matrix(k, F.LandmarkConfig(q))
    assert D.hamiltonian(k, s) == pytest.approx(0.5 * p.ravel() @ gram @ p.ravel(),
                                                rel=1e-12)


@pytest.mark.parametrize("make", [lambda: K.family_example1(1.0, B16, C16, 2),
                                  curlfree16, divfree16])
def test_hamiltonian_at_coincident_landmarks_is_gram_quadratic(make):
    # landmarks 0 and 1 coincide and 2 sits 1e-13 from them;
    # LandmarkConfig refuses such points, so the Gram form 1/2 p^T G p is
    # summed from its blocks k(q_a - q_b), which are k0 I for these pairs
    k = make()
    q = np.array([[0.1, -0.2], [0.1, -0.2], [0.1 + 1e-13, -0.2], [0.3, 0.05]])
    p = np.array([[1.0, 2.0], [-0.5, 1.5], [2.0, 1.0], [0.3, 0.7]])
    gram_form = 0.5 * sum(p[a] @ K.eval_matrix(k, q[a] - q[b]) @ p[b]
                          for a in range(4) for b in range(4))
    assert D.hamiltonian(k, D.PhaseState(q, p, 0.0)) == pytest.approx(gram_form, rel=1e-12)


def test_row_a_initial_value_direct_sum():
    k = scalar16()
    q0, p0 = row_a()
    s = D.PhaseState(q0.points, p0.vectors, 0.0)
    direct = 0.5 * sum(
        p0.vectors[a] @ K.eval_matrix(k, q0.points[a] - q0.points[b]) @ p0.vectors[b]
        for a in range(2) for b in range(2))
    assert D.hamiltonian(k, s) == pytest.approx(direct, rel=1e-14)


# --- hamilton_rhs ----------------------------------------------------------------

def test_rhs_zero_momenta():
    q0, _ = row_a()
    dq, dp = D.hamilton_rhs(scalar16(), D.PhaseState(q0.points,
                                                     np.zeros_like(q0.points), 0.0))
    assert np.all(dq == 0.0) and np.all(dp == 0.0)


def test_rhs_single_landmark_straight_line():
    k = K.gaussian_kernel(1.0, 2)
    dq, dp = D.hamilton_rhs(k, D.PhaseState(np.array([[0.0, 0.0]]),
                                            np.array([[1.0, 0.0]]), 0.0))
    np.testing.assert_allclose(dq, [[1.0, 0.0]])
    np.testing.assert_allclose(dp, [[0.0, 0.0]])


@pytest.mark.parametrize("make", [scalar16, divfree16, curlfree16])
def test_rhs_matches_hamiltonian_gradient(make, rng):
    k = make()
    h = 1e-6
    for _ in range(50):
        q = rng.normal(size=(3, 2)) * 0.3
        p = rng.normal(size=(3, 2)) * 2.0
        dq, dp = D.hamilton_rhs(k, D.PhaseState(q, p, 0.0))
        scale = max(1.0, np.max(np.abs(dp)))
        for a in range(3):
            for i in range(2):
                qp, qm = q.copy(), q.copy()
                qp[a, i] += h
                qm[a, i] -= h
                fd = -(D.hamiltonian(k, D.PhaseState(qp, p, 0.0))
                      - D.hamiltonian(k, D.PhaseState(qm, p, 0.0))) / (2 * h)
                assert abs(dp[a, i] - fd) / scale < 1e-6
                pp, pm = p.copy(), p.copy()
                pp[a, i] += h
                pm[a, i] -= h
                fdq = (D.hamiltonian(k, D.PhaseState(q, pp, 0.0))
                       - D.hamiltonian(k, D.PhaseState(q, pm, 0.0))) / (2 * h)
                assert abs(dq[a, i] - fdq) / max(1.0, np.max(np.abs(dq))) < 1e-6


def test_rhs_coalescence_error():
    k = scalar16()
    q = np.array([[0.0, 0.0], [1e-8, 0.0]])
    p = np.ones((2, 2))
    with pytest.raises(D.CoalescenceError):
        D.hamilton_rhs(k, D.PhaseState(q, p, 0.0))


def example1_boundary16():
    # example1 on the D1 boundary b = (d - 1) a / (2c): div-free, with its own radial
    return K.family_example1(2.0 * C16 * B16, B16, C16, 2)


def rhs_reference(k, q, p):
    """The landmark-major right-hand side: states (B, N, d), displacements
    (B, N, N, d) and matmul contractions over the trailing coordinate axis,
    from the radial derivatives dkpar and dkperp with 1/r clamped at 1e-12.
    Returns (dq, dp, r)."""
    x = q[..., :, None, :] - q[..., None, :, :]
    c = K.pair_coefficients(k, np.moveaxis(x, -1, 0), derivatives=True)
    dkpar, dkperp = derivative_pair(*c)
    inv_r = 1.0 / np.maximum(c.r, 1e-12)
    u = (x @ p[..., :, :, None])[..., 0]                  # x_ab . p_a
    w = -u.mT                                             # x_ab . p_b
    kw = c.ktilde * w
    dq = c.kperp @ p + (kw[..., None, :] @ x)[..., 0, :]
    uw = u * w * np.square(inv_r)
    radial = (dkpar * uw + dkperp * (p @ p.mT - uw)) * inv_r - 2.0 * c.ktilde * uw
    grad = (radial[..., None, :] @ x)[..., 0, :] + kw.sum(axis=-1)[..., None] * p \
        + (c.ktilde * u) @ p
    return dq, -grad, c.r


@pytest.mark.parametrize("batch", [1, 9])
@pytest.mark.parametrize("n", [1, 2, 36, 100])
@pytest.mark.parametrize("make", [scalar16, divfree16, curlfree16, example1_boundary16])
def test_rhs_matches_the_landmark_major_formula(make, n, batch, rng):
    k = make()
    q = rng.uniform(-0.5, 0.5, (batch, n, 2))
    p = rng.normal(size=(batch, n, 2)) * 15.0
    want_dq, want_dp, want_r = rhs_reference(k, q, p)
    q, p = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (q, p))   # (d, B, N)
    dq, dp = np.empty_like(q), np.empty_like(p)
    r = D._rhs(k, q, p, dq, dp)
    scale = max(np.max(np.abs(want_dq)), np.max(np.abs(want_dp)))
    assert np.max(np.abs(dq.transpose(1, 2, 0) - want_dq)) <= 1e-13 * scale
    assert np.max(np.abs(dp.transpose(1, 2, 0) - want_dp)) <= 1e-13 * scale
    assert np.array_equal(r, want_r)


@pytest.mark.parametrize("batch", [1, 9])
@pytest.mark.parametrize("n", [1, 2, 36, 100])
@pytest.mark.parametrize("make", [scalar16, divfree16, curlfree16, example1_boundary16])
def test_rhs_dp_is_minus_the_field_jacobian_contraction(make, n, batch, rng):
    # dp_a = -sum_b J(q_a - q_b, p_b)^T p_a: the fused dp is the field Jacobian's transpose
    k = make()
    q = rng.uniform(-0.5, 0.5, (batch, n, 2))
    p = rng.normal(size=(batch, n, 2)) * 15.0
    jac = K.field_jacobian(k, q[:, :, None, :] - q[:, None, :, :], p[:, None, :, :])
    want = -np.einsum("Babji,Baj->Bai", jac, p)
    qc, pc = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (q, p))   # (d, B, N)
    dq, dp = np.empty_like(qc), np.empty_like(pc)
    D._rhs(k, qc, pc, dq, dp)
    assert np.max(np.abs(dp.transpose(1, 2, 0) - want)) <= 1e-13 * np.max(np.abs(dp))

    # without dp, _rhs writes the same dq and r and evaluates no radial derivatives
    flags = []
    spy = K.TriKernel(dim=2, radial=lambda r, derivatives=False:
                      flags.append(derivatives) or k.radial(r, derivatives),
                      tail_scale=k.tail_scale)
    flags.clear()
    dq_only = np.empty_like(qc)
    assert np.array_equal(D._rhs(spy, qc, pc, dq_only), D._rhs(k, qc, pc, dq, dp))
    assert np.array_equal(dq_only, dq)
    assert flags == [False]


def full_scan(r, t):
    """Every member's closest pair, for members with more than N entries of
    r below the threshold: _coalesced without its early exit."""
    n = r.shape[-1]
    out = {}
    for m in np.flatnonzero((r < D.COALESCENCE_TOL).sum(axis=(-2, -1)) > n):
        flat = (r[m] + np.diag(np.full(n, np.inf))).ravel()
        idx = int(np.argmin(flat))
        out[int(m)] = D.CoalescenceError((idx // n, idx % n), t, float(flat[idx]))
    return out


@pytest.mark.parametrize("case", ["none", "one-of-several", "coincident"])
def test_coalesced_early_exit_matches_full_scan(case, rng):
    k = scalar16()
    q = rng.uniform(-1.0, 1.0, (5, 4, 2))
    if case == "one-of-several":
        q[3, 2] = q[3, 0] + [3e-7, -2e-7]
    elif case == "coincident":
        q[0, 1] = q[0, 3]
    q, p = np.ascontiguousarray(q.transpose(2, 0, 1)), rng.normal(size=q.shape).transpose(2, 0, 1)
    r = D._rhs(k, q, p, np.empty_like(q), np.empty_like(q))
    want = {"none": {}, "one-of-several": {3: (0, 2)}, "coincident": {0: (1, 3)}}[case]

    def summary(errors):
        return {m: (e.pair, e.time, e.distance, str(e)) for m, e in errors.items()}

    got = D._coalesced(r, 0.25)
    assert summary(got) == summary(full_scan(r, 0.25))
    assert {m: e.pair for m, e in got.items()} == want


# --- shoot -----------------------------------------------------------------------

def test_shoot_zero_momenta_is_static():
    q0, _ = row_a()
    traj = D.shoot(scalar16(), q0, F.MomentaSet(np.zeros((2, 2))),
                   D.IntegratorConfig(step=1e-2))
    assert np.max(np.abs(traj.q - q0.points)) == 0.0
    assert np.all(traj.hamiltonians == 0.0)


def test_shoot_single_landmark_unit_translation():
    k = K.gaussian_kernel(1.0, 2)  # k0 = 1
    traj = D.shoot(k, F.LandmarkConfig(np.array([[0.0, 0.0]])),
                   F.MomentaSet(np.array([[1.0, 0.0]])), D.IntegratorConfig(step=1e-2))
    np.testing.assert_allclose(traj.q[-1], [[1.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("make", [scalar16, divfree16, curlfree16])
def test_energy_conservation_row_a(make):
    k = make()
    q0, p0 = row_a()
    traj = D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-3, record_every=10))
    h0 = traj.hamiltonians[0]
    assert traj.energy_drift() <= 1e-6 * max(1.0, abs(h0))


def test_time_reversal():
    k = scalar16()
    q0, p0 = row_a()
    fwd = D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-3, record_every=1000))
    back = D.shoot(k, F.LandmarkConfig(fwd.q[-1]), F.MomentaSet(-fwd.p[-1]),
                   D.IntegratorConfig(step=1e-3, record_every=1000))
    assert np.max(np.abs(back.q[-1] - q0.points)) <= 1e-6
    assert np.max(np.abs(-back.p[-1] - p0.vectors)) <= 1e-6


def test_rk4_fourth_order_convergence():
    k = scalar16()
    q0, p0 = row_a()

    def endpoint(step):
        t = D.shoot(k, q0, p0, D.IntegratorConfig(step=step, record_every=10 ** 9))
        return np.concatenate([t.q[-1].ravel(), t.p[-1].ravel()])

    h = 4e-3
    ref = endpoint(h / 8)
    e_coarse = np.linalg.norm(endpoint(h) - ref)
    e_fine = np.linalg.norm(endpoint(h / 2) - ref)
    assert 12.0 <= e_coarse / e_fine <= 20.0


def test_euler_scheme_is_first_order():
    k = scalar16()
    q0, p0 = row_a()

    def endpoint(step):
        t = D.shoot(k, q0, p0, D.IntegratorConfig(scheme="euler", step=step,
                                                  record_every=10 ** 9))
        return t.q[-1].ravel()

    ref = D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-3, record_every=10 ** 9))
    r = ref.q[-1].ravel()
    e1 = np.linalg.norm(endpoint(4e-2) - r)
    e2 = np.linalg.norm(endpoint(2e-2) - r)
    assert 1.6 <= e1 / e2 <= 2.4


def test_row_b_label_parity_antisymmetry():
    k = scalar16()
    q0, p0 = row_b()
    traj = D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-3, record_every=50))
    assert np.max(np.abs(traj.q[:, 0, :] + traj.q[:, 1, :])) <= 1e-9
    assert np.max(np.abs(traj.p[:, 0, :] + traj.p[:, 1, :])) <= 1e-9


def test_shoot_coalescence_abort():
    # strong head-on momenta with a curl-free kernel drive the pair together
    k = curlfree16()
    q0 = F.LandmarkConfig(np.array([[-0.05, 0.0], [0.05, 0.0]]))
    p0 = F.MomentaSet(np.array([[60.0, 0.0], [-60.0, 0.0]]))
    with pytest.raises(D.CoalescenceError) as err:
        D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-3))
    assert set(err.value.pair) == {0, 1}
    assert 0.0 < err.value.time <= 1.0


def test_path_energy():
    k = scalar16()
    q0, p0 = row_a()
    traj = D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-3, record_every=10))
    pe = D.path_energy(k, traj)
    assert abs(pe - 2 * traj.hamiltonians[0]) <= 1e-4 * abs(2 * traj.hamiltonians[0])
    zero = D.shoot(k, q0, F.MomentaSet(np.zeros((2, 2))), D.IntegratorConfig(step=1e-2))
    assert D.path_energy(k, zero) == 0.0


def test_path_energy_single_landmark():
    k = K.gaussian_kernel(1.0, 2, amplitude=2.0)
    traj = D.shoot(k, F.LandmarkConfig(np.array([[0.0, 0.0]])),
                   F.MomentaSet(np.array([[1.0, 2.0]])), D.IntegratorConfig(step=1e-2))
    assert D.path_energy(k, traj) == pytest.approx(2.0 * 5.0, rel=1e-12)


# --- flow grid -------------------------------------------------------------------

def test_flow_grid_identity_for_zero_momenta():
    k = scalar16()
    q0, _ = row_a()
    spec = D.GridSpec(lo=(-0.5, -0.5), hi=(0.5, 0.5), n=(11, 11))
    fg = D.flow_grid(k, q0, F.MomentaSet(np.zeros((2, 2))), spec, D.IntegratorConfig(step=1e-2))
    assert np.max(np.abs(fg.transported - fg.original)) == 0.0
    np.testing.assert_allclose(fg.jacobian_det, 1.0, atol=1e-12)


def test_flow_grid_far_points_unmoved():
    k = scalar16()  # width 0.25: points 2.5 away feel nothing
    q0, p0 = row_a()
    spec = D.GridSpec(lo=(-3.0, 2.5), hi=(-2.5, 3.0), n=(6, 6))
    fg = D.flow_grid(k, q0, p0, spec, D.IntegratorConfig(step=2e-3))
    assert np.max(np.linalg.norm(fg.transported - fg.original, axis=1)) < 1e-6


def test_flow_grid_volume_preservation_div_free():
    k = divfree16()
    q0 = F.LandmarkConfig(np.array([[0.0, 0.0]]))
    p0 = F.MomentaSet(np.array([[3.0, 0.0]]))
    spec = D.GridSpec(lo=(-0.4, -0.4), hi=(0.6, 0.4), n=(51, 41))  # spacing 0.02
    fg = D.flow_grid(k, q0, p0, spec, D.IntegratorConfig(step=1e-3))
    assert np.max(np.abs(fg.jacobian_det - 1.0)) <= 1e-2


def test_flow_grid_scalar_kernel_compresses():
    k = scalar16()
    q0 = F.LandmarkConfig(np.array([[0.0, 0.0]]))
    p0 = F.MomentaSet(np.array([[3.0, 0.0]]))
    spec = D.GridSpec(lo=(-0.4, -0.4), hi=(0.6, 0.4), n=(51, 41))
    fg = D.flow_grid(k, q0, p0, spec, D.IntegratorConfig(step=1e-3))
    assert np.max(np.abs(fg.jacobian_det - 1.0)) > 0.05


# the transport benchmark's lattice and step, and its strongest sampled momentum
TRANSPORT_SPEC = D.GridSpec(lo=(-0.3, -0.5), hi=(1.1, 0.7), n=(36, 31))


def transport_momenta(mag=20.0, theta=-0.3):
    return F.MomentaSet(np.array([[mag * np.cos(theta), mag * np.sin(theta)],
                                  [mag * np.cos(theta), -mag * np.sin(theta)]]))


def test_flow_grid_lattice_independent_of_record_every():
    k = curlfree16()
    q0, _ = row_a()
    spec = D.GridSpec(lo=(-0.3, -0.5), hi=(1.1, 0.7), n=(15, 13))
    grids = [D.flow_grid(k, q0, transport_momenta(), spec,
                         D.IntegratorConfig(step=1e-2, record_every=r)).transported
             for r in (1, 10, 50)]
    for g in grids[1:]:
        assert np.array_equal(g, grids[0])


@pytest.mark.parametrize("scheme", D.SCHEMES)
def test_flow_grid_trajectory_equals_shoot(scheme):
    k = divfree16()
    q0, p0 = row_a()
    cfg = D.IntegratorConfig(scheme=scheme, step=1e-2, record_every=7)
    traj = D.shoot(k, q0, p0, cfg)
    fg = D.flow_grid(k, q0, p0, D.GridSpec(lo=(-0.2, -0.3), hi=(0.8, 0.5), n=(6, 5)), cfg)
    for name in ("times", "q", "p", "hamiltonians"):
        assert np.array_equal(getattr(fg.trajectory, name), getattr(traj, name)), name
    assert fg.trajectory.step == traj.step


@pytest.mark.parametrize("make_kernel", [scalar16, curlfree16, divfree16])
def test_flow_grid_converges_to_refined_step(make_kernel):
    k = make_kernel()
    q0, _ = row_a()

    def lattice(step, record_every):
        cfg = D.IntegratorConfig(step=step, record_every=record_every)
        return D.flow_grid(k, q0, transport_momenta(), TRANSPORT_SPEC, cfg).transported

    assert np.max(np.abs(lattice(1e-2, 10) - lattice(2.5e-3, 1))) <= 1e-5


def test_flow_grid_points_on_landmarks_follow_them():
    # the field at a landmark is that landmark's velocity, stage by stage
    k = curlfree16()
    q0, _ = row_a()
    spec = D.GridSpec(lo=(0.0, 0.0), hi=(0.15, 0.15), n=(2, 2))  # holds both landmarks
    fg = D.flow_grid(k, q0, transport_momenta(), spec, D.IntegratorConfig(step=1e-2))
    assert np.array_equal(fg.original[:2], q0.points)
    assert np.max(np.abs(fg.transported[:2] - fg.trajectory.q[-1])) <= 1e-12


def test_flow_grid_coalescence_matches_shoot():
    k = curlfree16()
    q0 = F.LandmarkConfig(np.array([[-0.05, 0.0], [0.05, 0.0]]))
    p0 = F.MomentaSet(np.array([[60.0, 0.0], [-60.0, 0.0]]))
    cfg = D.IntegratorConfig(step=2e-3, record_every=100)
    with pytest.raises(D.CoalescenceError) as shot:
        D.shoot(k, q0, p0, cfg)
    with pytest.raises(D.CoalescenceError) as flowed:
        D.flow_grid(k, q0, p0, D.GridSpec(lo=(-0.1, -0.1), hi=(0.1, 0.1), n=(3, 3)), cfg)
    assert str(flowed.value) == str(shot.value)


# each scheme as (stage shifts, weights, divisor), written out here rather than
# read from D.SCHEMES, so that the reference does not take the table it checks
REFERENCE_SCHEMES = {"rk4": ((0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0),
                     "euler": ((), (1.0,), 1.0)}


def test_the_reference_has_every_scheme():
    assert set(REFERENCE_SCHEMES) == set(D.SCHEMES)


def reference_loop(k, q, p, cfg, x=None):
    """Reference loop on separate arrays: out-of-place stage inputs
    y + (shift h) k_j and the combination y + (h / divisor) sum_j weight_j k_j,
    summed in stage order; landmark rates from hamilton_rhs, which raises at
    the first coalesced stage, and the (G, d) lattice x, when given, moved by
    field_apply.  Returns the recorded q and p and the final lattice."""
    shifts, weights, divisor = REFERENCE_SCHEMES[cfg.scheme]
    h = 1.0 / cfg.n_steps

    def rate(y, t):
        dq, dp = D.hamilton_rhs(k, D.PhaseState(y[0], y[1], t))
        return [dq, dp] if x is None else [dq, dp, F.field_apply(k, *y)]

    y = [q, p] if x is None else [q, p, x]
    qs, ps = [q], [p]
    for i in range(cfg.n_steps):
        t = i * h
        ks = [rate(y, t)]
        for c in shifts:
            ks.append(rate([a + (c * h) * b for a, b in zip(y, ks[-1])], t + c * h))
        total = [weights[0] * b for b in ks[0]]
        for w, kj in zip(weights[1:], ks[1:]):
            total = [a + w * b for a, b in zip(total, kj)]
        y = [a + (h / divisor) * b for a, b in zip(y, total)]
        if (i + 1) % cfg.record_every == 0 or i == cfg.n_steps - 1:
            qs.append(y[0])
            ps.append(y[1])
    return np.array(qs), np.array(ps), y[2:]


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("scheme", D.SCHEMES)
def test_flow_grid_is_the_out_of_place_loop_bit_for_bit(scheme, record_every):
    # the flat in-place state must keep the operation order of separate arrays
    k = divfree16()
    q0, _ = row_a()
    p0 = transport_momenta(15.0, 0.1)
    spec = D.GridSpec(lo=(-0.3, -0.5), hi=(1.1, 0.7), n=(9, 7))
    cfg = D.IntegratorConfig(scheme=scheme, step=2e-2, record_every=record_every)
    fg = D.flow_grid(k, q0, p0, spec, cfg)
    qs, ps, [x] = reference_loop(k, q0.points, p0.vectors, cfg, spec.lattice())
    assert np.array_equal(fg.trajectory.q, qs)
    assert np.array_equal(fg.trajectory.p, ps)
    assert np.array_equal(fg.transported, x)
    assert not np.array_equal(x, spec.lattice())


def assert_recorded_hamiltonians(k, traj):
    # each recorded H is 1/2 p . dq from the first stage of the step that leaves
    # its state, or from _ham for the final row
    want = np.array([D.hamiltonian(k, D.PhaseState(q, p, t))
                     for q, p, t in zip(traj.q, traj.p, traj.times)])
    assert np.max(np.abs(traj.hamiltonians - want)) <= 1e-13 * np.max(np.abs(want))


# at step 0.01, 100 is a stride equal to the run and 10**9 one beyond it
@pytest.mark.parametrize("record_every", [1, 3, 7, 100, 10 ** 9])
@pytest.mark.parametrize("scheme", D.SCHEMES)
def test_recorded_hamiltonians_equal_hamiltonian(scheme, record_every):
    k = divfree16()
    q0, p0 = row_a()
    cfg = D.IntegratorConfig(scheme=scheme, step=1e-2, record_every=record_every)
    traj = D.shoot(k, q0, p0, cfg)
    assert len(traj.times) == 100 // record_every + 1 + (100 % record_every > 0)
    assert_recorded_hamiltonians(k, traj)
    fg = D.flow_grid(k, q0, p0, D.GridSpec(lo=(-0.2, -0.3), hi=(0.8, 0.5), n=(3, 3)), cfg)
    for name in ("times", "q", "p", "hamiltonians"):
        assert np.array_equal(getattr(fg.trajectory, name), getattr(traj, name)), name


def test_final_recorded_hamiltonian_is_half_p_dot_qdot():
    # near coalescence the cometric quadratic form, summed on its own, and
    # 1/2 p . dq differ in the 9th digit; every row, the last included, is the latter
    k = scalar16()
    q0, _ = row_a()
    p0 = F.MomentaSet(D.theta_momenta(60.0, [np.pi / 2])[0])
    traj = D.shoot(k, q0, p0, D.IntegratorConfig(step=1e-2))
    q, p = traj.q[-1], traj.p[-1]
    dq, _ = D.hamilton_rhs(k, D.PhaseState(q, p, 1.0))
    assert traj.hamiltonians[-1] == 0.5 * np.sum(p * dq)
    assert traj.hamiltonians[-1] == D.hamiltonian(k, D.PhaseState(q, p, 1.0))


# --- exponential map fans ----------------------------------------------------------

def test_fan_single_angle_equals_shoot():
    k = scalar16()
    q0 = F.LandmarkConfig(np.array([[0.0, -0.125], [0.0, 0.125]]))
    cfg = D.IntegratorConfig(step=2e-3, record_every=50)
    fan = D.exp_map_fan(k, q0, D.theta_momenta(50.0, [0.3]), cfg)
    direct = D.shoot(k, q0, F.MomentaSet(D.theta_momenta(50.0, [0.3])[0]), cfg)
    np.testing.assert_array_equal(fan.trajectories[0].q, direct.q)
    assert not fan.failures


def test_fan_mirror_symmetry():
    # the momentum family reflects across the first axis with swapped labels,
    # and the initial positions do too, so every trajectory in the fan is
    # itself mirror-symmetric: landmark 2's path is the reflection of 1's
    k = scalar16()
    q0 = F.LandmarkConfig(np.array([[0.0, -0.125], [0.0, 0.125]]))
    cfg = D.IntegratorConfig(step=2e-3, record_every=100)
    thetas = [-0.6, 0.3, 1.1]
    fan = D.exp_map_fan(k, q0, D.theta_momenta(50.0, thetas), cfg)
    flip = np.array([1.0, -1.0])
    for traj in fan.trajectories:
        assert np.max(np.abs(traj.q[:, 1, :] - traj.q[:, 0, :] * flip)) <= 1e-9
        assert np.max(np.abs(traj.p[:, 1, :] - traj.p[:, 0, :] * flip)) <= 1e-9


def test_fan_whose_every_member_coalesces_takes_no_final_hamiltonian(monkeypatch):
    # the final row is written only when some member survived; with a tame member
    # its H is the one _ham call of the run
    k = curlfree16()
    q0 = F.LandmarkConfig(np.array([[-0.05, 0.0], [0.05, 0.0]]))
    explosive = [np.array([[m, 0.0], [-m, 0.0]]) for m in (60.0, 61.0, 62.0)]
    tame = np.array([[2.0, 0.0], [2.0, 0.0]])
    cfg = D.IntegratorConfig(step=1e-3, record_every=100)
    calls = []
    ham = D._ham

    def counted(*args):
        calls.append(args)
        return ham(*args)

    monkeypatch.setattr(D, "_ham", counted)
    fan = D.exp_map_fan(k, q0, explosive + [tame], cfg)
    assert [i for i, _ in fan.failures] == [0, 1, 2] and len(calls) == 1

    def refuse(*args):
        raise AssertionError("_ham called after every member failed")

    monkeypatch.setattr(D, "_ham", refuse)
    fan = D.exp_map_fan(k, q0, explosive, cfg)
    assert [i for i, _ in fan.failures] == [0, 1, 2]
    assert fan.trajectories == [None, None, None]


def test_fan_records_failures_and_continues():
    k = curlfree16()
    q0 = F.LandmarkConfig(np.array([[-0.05, 0.0], [0.05, 0.0]]))
    # one explosive pair plus one tame sample
    family = [np.array([[60.0, 0.0], [-60.0, 0.0]]),
              np.array([[2.0, 0.0], [2.0, 0.0]])]
    fan = D.exp_map_fan(k, q0, family, D.IntegratorConfig(step=1e-3, record_every=100))
    assert len(fan.failures) == 1 and fan.failures[0][0] == 0
    assert fan.trajectories[0] is None and fan.trajectories[1] is not None
    sheet = fan.sheet(0)
    assert np.all(np.isnan(sheet[0])) and np.all(np.isfinite(sheet[1]))


def test_recorded_hamiltonians_of_a_fan_with_a_failure():
    k = curlfree16()
    q0 = F.LandmarkConfig(np.array([[-0.05, 0.0], [0.05, 0.0]]))
    family = [np.array([[2.0, 0.0], [2.0, 0.0]]),
              np.array([[80.0, 0.0], [-80.0, 0.0]]),
              np.array([[5.0, 1.0], [-3.0, 2.0]])]
    fan = D.exp_map_fan(k, q0, family, D.IntegratorConfig(step=2e-3, record_every=3))
    assert [i for i, _ in fan.failures] == [1]
    for i in (0, 2):
        assert_recorded_hamiltonians(k, fan.trajectories[i])


def test_fan_matches_per_member_shoot_with_failures():
    # member 1 coalesces first and leaves the batch, then member 3 does;
    # the others run to t = 1
    k = curlfree16()
    q0 = F.LandmarkConfig(np.array([[-0.05, 0.0], [0.05, 0.0]]))
    family = [np.array([[2.0, 0.0], [2.0, 0.0]]),
              np.array([[80.0, 0.0], [-80.0, 0.0]]),
              np.array([[5.0, 1.0], [-3.0, 2.0]]),
              np.array([[60.0, 0.0], [-60.0, 0.0]]),
              np.array([[20.0, -4.0], [-20.0, 4.0]])]
    cfg = D.IntegratorConfig(step=1e-3, record_every=100)
    fan = D.exp_map_fan(k, q0, family, cfg)
    failures = dict(fan.failures)
    assert sorted(failures) == [1, 3]
    for i, p0 in enumerate(family):
        if i in failures:
            with pytest.raises(D.CoalescenceError) as err:
                D.shoot(k, q0, F.MomentaSet(p0), cfg)
            assert failures[i] == str(err.value)
            with pytest.raises(D.CoalescenceError) as ref:
                reference_loop(k, q0.points, p0, cfg)
            assert failures[i] == str(ref.value)
            assert fan.trajectories[i] is None
            continue
        lone = D.shoot(k, q0, F.MomentaSet(p0), cfg)
        traj = fan.trajectories[i]
        np.testing.assert_array_equal(traj.times, lone.times)
        for got, want in ((traj.q, lone.q), (traj.p, lone.p),
                          (traj.hamiltonians, lone.hamiltonians)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        D.IntegratorConfig(step=0.5)
    for scheme in ("rk2", ["rk4"], None):      # an unhashable name too
        with pytest.raises(ValueError):
            D.IntegratorConfig(scheme=scheme)
    with pytest.raises(ValueError):
        D.IntegratorConfig(record_every=0)


# --- input checks ---------------------------------------------------------------

ONE_FAILURE = D.FanResult(trajectories=[None], failures=[(0, "coalescence")])


@pytest.mark.parametrize("call, message", [
    (lambda: D.shoot(K.gaussian_kernel(1.0, 3), F.LandmarkConfig([[0.0, 0.0]]),
                     F.MomentaSet([[1.0, 0.0]])), "kernel and landmark dimensions differ"),
    (lambda: D.shoot(K.gaussian_kernel(1.0, 2), F.LandmarkConfig([[0.0, 0.0], [1.0, 0.0]]),
                     F.MomentaSet([[1.0, 0.0]])),
     "momenta shape must match the landmark configuration"),
    (lambda: ONE_FAILURE.sheet(0), "no successful trajectories in the fan"),
    (lambda: D.flow_grid(K.gaussian_kernel(1.0, 2), F.LandmarkConfig([[0.0, 0.0]]),
                         F.MomentaSet([[1.0, 0.0]]),
                         D.GridSpec((-1, -1, -1), (1, 1, 1), (3, 3, 3))),
     "grid lo, hi and n must each have length 2"),
    (lambda: D.flow_grid(K.gaussian_kernel(1.0, 2), F.LandmarkConfig([[0.0, 0.0]]),
                         F.MomentaSet([[1.0, 0.0]]), D.GridSpec((-1, -1), (1, 1), (3, 3, 3))),
     "grid lo, hi and n must each have length 2"),
], ids=["shoot-dimension", "shoot-momenta-count", "fan-sheet-all-failed", "flow_grid-3-d-grid",
        "flow_grid-n-length"])
def test_bad_dynamics_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
