"""Properties of the geodesic dynamics: the batched right-hand side equals
per-member calls; H drift, the time-reversal error and the angular momentum
drift fall at each scheme's order; and the total momentum is conserved."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import dynamics as D  # noqa: E402
from trikernels.fields import LandmarkConfig, MomentaSet  # noqa: E402
from conftest import FAMILIES  # noqa: E402


# each table family at c = 16, the width-0.25 kernels of the shooting experiments
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), dim=st.sampled_from([2, 3]),
       lam=st.floats(0.25, 0.75), batch=st.integers(1, 5), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_rhs_equals_single_member_calls(name, dim, lam, batch, n, seed):
    k = FAMILIES[name](16.0, dim, lam)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(batch, n, dim)) * 0.3
    p = rng.normal(size=(batch, n, dim)) * 10.0
    q, p = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (q, p))   # (d, B, N)
    dq, dp = np.empty_like(q), np.empty_like(p)
    r = D._rhs(k, q, p, dq, dp)
    for m in range(batch):
        dq1, dp1 = np.empty((dim, 1, n)), np.empty((dim, 1, n))
        r1 = D._rhs(k, q[:, m:m + 1], p[:, m:m + 1], dq1, dp1)
        for got, want in ((dq[:, m], dq1[:, 0]), (dp[:, m], dp1[:, 0]), (r[m], r1[0])):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * max(1.0, np.max(np.abs(want))))


# least drift ratio when the step halves from 0.02 to 0.01: order 4 gives 16,
# order 1 gives 2; over every table family, d in {2, 3} and N = 2..6 the least
# measured ratios were 13.9 (rk4) and 1.66 (euler)
LEAST_DRIFT_RATIO = {"rk4": 8.0, "euler": 1.5}


# the draws of the order properties: every table family at c = 1, d in {2, 3},
# 2 <= N <= 6, q ~ U[-1, 1]^d and p ~ N(0, 1)/N, shot at steps 0.02 and 0.01
ORDER_DRAWS = dict(name=st.sampled_from(sorted(FAMILIES)), dim=st.sampled_from([2, 3]),
                   lam=st.floats(0.25, 0.75), n=st.integers(2, 6),
                   seed=st.integers(0, 2 ** 32 - 1))
ORDER_STEPS = (0.02, 0.01)


def order_draw(name, dim, lam, n, seed):
    rng = np.random.default_rng(seed)
    q0 = LandmarkConfig(rng.uniform(-1.0, 1.0, size=(n, dim)))
    return FAMILIES[name](1.0, dim, lam), q0, MomentaSet(rng.normal(size=(n, dim)) / n)


def falls_at_order(errors, least_ratio) -> bool:
    """The error at the finer step is at rounding level or least_ratio times smaller."""
    return errors[1] <= 1e-13 or errors[0] >= least_ratio * errors[1]


@pytest.mark.parametrize("scheme", D.SCHEMES)
@settings(max_examples=12, deadline=None)
@given(**ORDER_DRAWS)
def test_h_drift_falls_at_the_scheme_order_when_the_step_halves(scheme, name, dim, lam, n,
                                                                seed):
    k, q0, p0 = order_draw(name, dim, lam, n, seed)
    drift = []
    for step in ORDER_STEPS:
        cfg = D.IntegratorConfig(scheme=scheme, step=step, record_every=10 ** 9)
        h = D.shoot(k, q0, p0, cfg).hamiltonians
        drift.append(abs(h[-1] - h[0]) / h[0])
    assert falls_at_order(drift, LEAST_DRIFT_RATIO[scheme])


# least ratio of the return error when the step halves: RK4's is O(h^5), so 32,
# and Euler's O(h), so 2; over 150 draws the least measured ratios were 31.8
# (rk4, 118 of whose draws were already at rounding) and 1.93 (euler).  RK4 with
# the second-order weights (2, 1, 1, 2) reads 8 on every draw
LEAST_RETURN_RATIO = {"rk4": 16.0, "euler": 1.5}


@pytest.mark.parametrize("scheme", D.SCHEMES)
@settings(max_examples=12, deadline=None)
@given(**ORDER_DRAWS)
def test_shooting_back_with_minus_p_returns_at_the_scheme_order(scheme, name, dim, lam, n,
                                                                seed):
    # the geodesic equations are reversible: (q(1), -p(1)) shoots back to (q0, -p0)
    k, q0, p0 = order_draw(name, dim, lam, n, seed)
    scale = max(np.max(np.abs(q0.points)), np.max(np.abs(p0.vectors)))
    errors = []
    for step in ORDER_STEPS:
        cfg = D.IntegratorConfig(scheme=scheme, step=step, record_every=10 ** 9)
        fwd = D.shoot(k, q0, p0, cfg)
        back = D.shoot(k, LandmarkConfig(fwd.q[-1]), MomentaSet(-fwd.p[-1]), cfg)
        errors.append(max(np.max(np.abs(back.q[-1] - q0.points)),
                          np.max(np.abs(-back.p[-1] - p0.vectors))) / scale)
    assert falls_at_order(errors, LEAST_RETURN_RATIO[scheme])


def angular_momentum_drift(traj) -> float:
    """max over rows of |L(t) - L(0)| for L = sum_a q_a ^ p_a, relative to the
    run's peak sum_a |q_a| |p_a|"""
    wedge = np.einsum("tai,taj->tij", traj.q, traj.p)
    i, j = np.triu_indices(traj.q.shape[-1], 1)
    L = (wedge - wedge.transpose(0, 2, 1))[:, i, j]
    peak = np.max((np.linalg.norm(traj.q, axis=-1) * np.linalg.norm(traj.p, axis=-1)).sum(axis=1))
    return float(np.max(np.linalg.norm(L - L[0], axis=-1))) / peak


# rotation invariance conserves the angular momentum (Noether) in the flow, and
# RK4 and Euler keep it to their order; over 150 draws the least measured ratios
# were 15.3 (rk4) and 1.76 (euler).  A kernel field that is not rotation
# invariant, such as one whose dp takes 1.001 x_1 for x_1, fails at any step
LEAST_ANGULAR_RATIO = {"rk4": 8.0, "euler": 1.5}


@pytest.mark.parametrize("scheme", D.SCHEMES)
@settings(max_examples=12, deadline=None)
@given(**ORDER_DRAWS)
def test_angular_momentum_drift_falls_at_the_scheme_order(scheme, name, dim, lam, n, seed):
    k, q0, p0 = order_draw(name, dim, lam, n, seed)
    drift = [angular_momentum_drift(D.shoot(k, q0, p0, D.IntegratorConfig(
                 scheme=scheme, step=step, record_every=1))) for step in ORDER_STEPS]
    assert falls_at_order(drift, LEAST_ANGULAR_RATIO[scheme])


def momentum_drift(traj) -> float:
    """max over rows of |sum_a p_a(t) - sum_a p_a(0)|, relative to the run's peak
    sum_a |p_a(t)|: momenta can grow by orders along a shoot"""
    total = traj.p.sum(axis=1)
    peak = np.max(np.linalg.norm(traj.p, axis=-1).sum(axis=1))
    return float(np.max(np.linalg.norm(total - total[0], axis=-1))) / peak


# translation invariance conserves the total momentum (Noether), to rounding at
# any step: at most 9.2e-16 was measured over 312 shoots of every table family
# in d = 2 and 3 with both schemes
@pytest.mark.parametrize("scheme", D.SCHEMES)
@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), dim=st.sampled_from([2, 3]),
       lam=st.floats(0.25, 0.75), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_total_momentum_is_conserved(scheme, name, dim, lam, n, seed):
    k = FAMILIES[name](16.0, dim, lam)
    rng = np.random.default_rng(seed)
    q0 = LandmarkConfig(rng.uniform(-1.0, 1.0, size=(n, dim)))
    p = rng.normal(size=(3, n, dim))
    cfg = D.IntegratorConfig(scheme=scheme, step=0.05)
    fan = D.exp_map_fan(k, q0, p, cfg)
    runs = [t for t in fan.trajectories if t is not None]
    if fan.trajectories[0] is not None:     # the lone shoot of member 0 fails with it
        runs.append(D.shoot(k, q0, MomentaSet(p[0]), cfg))
    for traj in runs:
        assert momentum_drift(traj) <= 1e-13
