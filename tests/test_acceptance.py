"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Two measurement choices are documented here because they are forced by
analysis rather than taste:
* spectra with super-Gaussian decay underflow float64 in their far tail, so
  "relative" accuracy there is asserted pointwise wherever the reference
  exceeds 1e-8 of its peak and peak-relative everywhere;
* the Hodge components decay like r^-2, leaving a truncation defect of
  1/R^2 in the L2 pairing over a ball of radius R, so the orthogonality
  bound of 1e-4 is checked on a ball wide enough (R = 200) for the bound
  to hold; at R = 8 the defect is ~1.6e-2 by calculus, not numerics.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from trikernels import dynamics as D
from trikernels import fields as F
from trikernels import kernels as K
from trikernels import specfun as sf
from trikernels import spectral as S
from conftest import (annulus_point, curl_norm, curlfree16, divfree16, fd_jacobian,
                      hodge_split_quietly, mixed_gaussian_kernel, row_a, row_b, scalar16)


@contextmanager
def verdict(label):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"{label}: FAIL")
        raise
    detail = info.get("detail", "")
    print(f"{label}: PASS{' (' + detail + ')' if detail else ''}")


def test_criterion_01_gaussian_spectrum():
    with verdict("criterion 01 gaussian spectrum") as info:
        t0 = time.time()
        k = K.gaussian_kernel(0.5, 2)  # e^{-r^2/2}
        grid = np.geomspace(0.01, 3.0, 256)
        s = S.forward_map(k, grid)
        exact = 2 * math.pi * np.exp(-2 * math.pi ** 2 * grid ** 2)
        err = np.abs(s.h_par_samples - exact)
        peak = exact.max()
        assert err.max() <= 1e-6 * peak
        mask = exact >= 1e-8 * peak
        assert np.max(err[mask] / exact[mask]) <= 1e-6
        elapsed = time.time() - t0
        assert elapsed < 10.0
        info["detail"] = (f"peak-rel {err.max() / peak:.1e}, "
                          f"pointwise-rel {np.max(err[mask] / exact[mask]):.1e}, "
                          f"{elapsed:.1f}s")


def test_criterion_02_cauchy_spectrum():
    with verdict("criterion 02 cauchy spectrum") as info:
        k = K.cauchy_kernel(1.0, 3)
        grid = np.geomspace(0.05, 3.0, 64)
        s = S.forward_map(k, grid)
        mu = 0.5
        exact = (2 * math.pi * (1.0 / grid) ** mu
                 * sf.bessel_k(mu, 2 * math.pi * grid))
        rel = np.max(np.abs(s.h_par_samples - exact) / np.abs(exact))
        assert rel <= 1e-5
        info["detail"] = f"max pointwise rel {rel:.1e}"


def test_criterion_03_involution():
    with verdict("criterion 03 involution") as info:
        k = K.family_example1(1.5, 1.0, 1.0, 2)
        s = S.forward_map(k)
        r = np.geomspace(0.05, 5.0, 60)
        kp, kq = S.inverse_map(s, r)
        sup = max(np.max(np.abs(kp - k.k_par(r))), np.max(np.abs(kq - k.k_perp(r))))
        assert sup <= 1e-5
        info["detail"] = f"sup err {sup:.1e}"


def test_criterion_04_pd_classification():
    with verdict("criterion 04 pd classification") as info:
        grid = np.geomspace(1e-3, 6.0, 128)
        v1 = S.certify_pd(K.family_example1(1.5, 1.0, 1.0, 2), grid)
        v2 = S.certify_pd(K.family_example2(1.5, 1.0, 1.0, 2), grid)
        assert v1.positive and v1.strictly
        assert v2.positive and v2.strictly
        v3 = S.certify_pd(K.family_example1(3.0, 1.0, 1.0, 2), grid)
        assert not v3.positive

        mixed = mixed_gaussian_kernel(1.0, 2.0, 2)
        v4 = S.certify_pd(mixed, grid)
        assert not v4.positive

        # closed-form spectra agree with quadrature
        probes = np.geomspace(0.05, 2.5, 16)
        for kern, closed in [
            (K.family_example1(1.5, 1.0, 1.0, 2), S.example1_spectrum(1.5, 1.0, 1.0, 2)),
            (K.family_example2(1.5, 1.0, 1.0, 2), S.example2_spectrum(1.5, 1.0, 1.0, 2)),
            (mixed, S.mixed_gaussian_spectrum(1.0, 2.0, 2)),
        ]:
            sq = S.forward_map(kern, probes)
            peak = max(np.abs(closed.h_par(probes)).max(),
                       np.abs(closed.h_perp(probes)).max())
            assert np.max(np.abs(sq.h_par_samples - closed.h_par(probes))) <= 1e-6 * peak
            assert np.max(np.abs(sq.h_perp_samples - closed.h_perp(probes))) <= 1e-6 * peak
        info["detail"] = "verdicts + closed forms vs quadrature at 1e-6"


def test_criterion_05_construction_correctness():
    with verdict("criterion 05 construction correctness") as info:
        r = np.geomspace(0.05, 5.0, 120)
        built_cf = K.make_curl_free(K.gaussian_profile(0.5, 1.0), 2)
        built_df = K.make_div_free(K.gaussian_profile(0.25, 1.0), 2)
        scale_cf = max(np.max(np.abs(built_cf.k_par(r))), np.max(np.abs(built_cf.k_perp(r))))
        scale_df = max(np.max(np.abs(built_df.k_par(r))), np.max(np.abs(built_df.k_perp(r))))
        res_cf = np.max(np.abs(K.curl_free_residual(built_cf, r)))
        res_df = np.max(np.abs(K.div_free_residual(built_df, r)))
        assert res_cf <= 1e-10 * scale_cf
        assert res_df <= 1e-10 * scale_df

        grid = np.geomspace(0.05, 4.0, 24)
        s_cf = S.forward_map(built_cf, grid)
        s_df = S.forward_map(built_df, grid)
        ratio_cf = np.max(np.abs(s_cf.h_perp_samples)) / np.max(np.abs(s_cf.h_par_samples))
        ratio_df = np.max(np.abs(s_df.h_par_samples)) / np.max(np.abs(s_df.h_perp_samples))
        assert ratio_cf <= 1e-6
        assert ratio_df <= 1e-6
        info["detail"] = (f"residuals {res_cf:.1e}/{res_df:.1e}, "
                          f"masked coefficients {ratio_cf:.1e}/{ratio_df:.1e}")


def test_criterion_06_hodge_of_gaussian():
    with verdict("criterion 06 hodge of gaussian") as info:
        k1, k2 = hodge_split_quietly(K.gaussian_kernel(1.0, 2))
        r = np.geomspace(0.05, 5.0, 100)
        closed = (1 - np.exp(-r ** 2)) / (2 * r ** 2)
        dev = np.max(np.abs(k1.k_perp(r) - closed))
        assert dev <= 1e-6
        gauss = np.exp(-r ** 2)
        sum_dev = max(np.max(np.abs(k1.k_par(r) + k2.k_par(r) - gauss)),
                      np.max(np.abs(k1.k_perp(r) + k2.k_perp(r) - gauss)))
        assert sum_dev <= 1e-6
        inner, n1, n2 = S.hodge_orthogonality(k1, k2, 200.0)
        rel = abs(inner) / (n1 * n2)
        assert rel <= 1e-4
        info["detail"] = (f"transverse dev {dev:.1e}, sum dev {sum_dev:.1e}, "
                          f"orthogonality {rel:.1e} at R=200")


def test_criterion_07_interpolation():
    with verdict("criterion 07 interpolation") as info:
        rng = np.random.default_rng(71)
        worst_resid = 0.0
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 3
            n = int(rng.integers(1, 7))
            if trial % 4 < 2:
                k = K.gaussian_kernel(1.0, d)
            else:
                k = K.family_example1(1.0, 1.0, 1.0, d)
            pts = rng.normal(size=(n, d)) * 1.5
            cfg = F.LandmarkConfig(pts)
            beta = rng.normal(size=(n, d))
            res = F.interpolate(k, cfg, beta)
            resid = float(np.max(np.linalg.norm(res.interpolant(pts) - beta, axis=1)))
            worst_resid = max(worst_resid, resid)
            assert resid <= 1e-10

            extra = rng.normal(size=(2, d)) * 2.0
            gamma = rng.normal(size=(2, d)) * 0.4
            adjusted = beta - F.field_apply(k, extra, gamma, pts)
            res2 = F.interpolate(k, cfg, adjusted)
            allpts = np.vstack([pts, extra])
            allmom = np.vstack([res2.momenta.vectors, gamma])
            gram = F.assemble_block_matrix(k, F.LandmarkConfig(allpts))
            assert float(allmom.ravel() @ gram @ allmom.ravel()) >= res.norm_sq - 1e-9
        info["detail"] = f"50 trials, worst residual {worst_resid:.1e}"


def test_criterion_08_field_calculus():
    with verdict("criterion 08 field calculus") as info:
        rng = np.random.default_rng(81)
        families = [
            K.gaussian_kernel(1.0, 2),
            K.family_example1(1.5, 1.0, 1.0, 2),
            K.family_example2(1.5, 1.0, 1.0, 2),
            K.gaussian_kernel(1.0, 3),
        ]
        worst = 0.0
        for k in families:
            for _ in range(200):
                x = annulus_point(rng, k.dim, 0.2, 4.0)
                al = rng.normal(size=k.dim)
                dv = F.divergence_at(k, x, al)
                jac = fd_jacobian(k, x, 4, 1e-3) @ al
                worst = max(worst, abs(dv - np.trace(jac)))
                cm = abs(F.curl_magnitude_at(k, x, al))
                worst = max(worst, abs(cm - curl_norm(jac)))
                assert worst <= 1e-6
        info["detail"] = f"200 points x {len(families)} families, worst dev {worst:.1e}"


def test_criterion_09_dynamics_conservation():
    with verdict("criterion 09 dynamics conservation") as info:
        k = scalar16()
        rows = {"A": row_a(), "B": row_b()}
        drifts = {}
        for name, (q, p) in rows.items():
            t0 = time.time()
            traj = D.shoot(k, q, p, D.IntegratorConfig(step=1e-3, record_every=10))
            assert time.time() - t0 < 30.0
            drift = traj.energy_drift() / abs(traj.hamiltonians[0])
            drifts[name] = drift
            assert drift <= 1e-6

        qa, pa = rows["A"]
        fwd = D.shoot(k, qa, pa, D.IntegratorConfig(step=1e-3, record_every=10 ** 9))
        back = D.shoot(k, F.LandmarkConfig(fwd.q[-1]), F.MomentaSet(-fwd.p[-1]),
                       D.IntegratorConfig(step=1e-3, record_every=10 ** 9))
        rev = max(np.max(np.abs(back.q[-1] - qa.points)),
                  np.max(np.abs(-back.p[-1] - pa.vectors)))
        assert rev <= 1e-6

        def endpoint(step):
            t = D.shoot(k, qa, pa, D.IntegratorConfig(step=step, record_every=10 ** 9))
            return np.concatenate([t.q[-1].ravel(), t.p[-1].ravel()])

        h = 4e-3
        ref = endpoint(h / 8)
        ratio = (np.linalg.norm(endpoint(h) - ref)
                 / np.linalg.norm(endpoint(h / 2) - ref))
        assert 12.0 <= ratio <= 20.0
        info["detail"] = (f"drift A {drifts['A']:.1e}, B {drifts['B']:.1e}, "
                          f"reversal {rev:.1e}, order ratio {ratio:.1f}")


def test_criterion_10_liouville_check():
    with verdict("criterion 10 liouville check") as info:
        kdf, ks = divfree16(), scalar16()
        q0 = F.LandmarkConfig(np.array([[0.0, 0.0]]))
        p0 = F.MomentaSet(np.array([[3.0, 0.0]]))
        spec = D.GridSpec(lo=(-0.4, -0.4), hi=(0.6, 0.4), n=(51, 41))  # spacing 0.02
        icfg = D.IntegratorConfig(step=1e-3, record_every=1)
        devs = {}
        for tag, k in (("div-free", kdf), ("scalar", ks)):
            fg = D.flow_grid(k, q0, p0, spec, icfg)
            devs[tag] = float(np.max(np.abs(fg.jacobian_det - 1.0)))
        assert devs["div-free"] <= 1e-2
        assert devs["scalar"] > 0.05
        info["detail"] = (f"div-free max|det-1| {devs['div-free']:.2e}, "
                          f"scalar {devs['scalar']:.2f}")


def test_criterion_11_figure_reproduction():
    with verdict("criterion 11 figure reproduction") as info:
        # vortices of the first-family field at (0, +-sqrt(b/a)), a=2, b=1
        a, b = 2.0, 1.0
        k1 = K.family_example1(a, b, 1.0, 2)
        e1 = np.array([1.0, 0.0])
        target = math.sqrt(b / a)
        for sign in (1.0, -1.0):
            z = F.field_zero(k1, e1, np.array([0.03, sign * 0.6]))
            assert np.linalg.norm(z - np.array([0.0, sign * target])) <= 1e-3

        # fans under the three width-0.25 kernels render; the converging
        # angles of the gradient-type kernel legitimately reach landmark
        # collision (finite-time for smooth kernels) and are recorded as
        # per-trajectory aborts with the fan continuing
        kernels = {"scalar": scalar16(), "curl-free": curlfree16(), "div-free": divfree16()}
        q0 = F.LandmarkConfig(np.array([[0.0, -0.125], [0.0, 0.125]]))
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 9)
        counts = {}
        for name, k in kernels.items():
            fan = D.exp_map_fan(k, q0, D.theta_momenta(50.0, thetas),
                                D.IntegratorConfig(step=2e-3, record_every=50))
            for traj in fan.trajectories:
                if traj is not None:
                    assert np.all(np.isfinite(traj.q))
            counts[name] = sum(t is not None for t in fan.trajectories)
        assert counts["scalar"] == len(thetas)
        assert counts["div-free"] == len(thetas)
        assert counts["curl-free"] >= len(thetas) // 2
        info["detail"] = ("vortices located to 1e-3; fan members ok: "
                          + ", ".join(f"{n} {c}/{len(thetas)}"
                                      for n, c in counts.items()))


def test_criterion_12_special_function_floor():
    with verdict("criterion 12 special-function floor") as info:
        x = np.linspace(0.1, 50.0, 200)
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
            lhs = sf.bessel_j(nu - 1.0, x) + sf.bessel_j(nu + 1.0, x)
            rhs = 2.0 * nu / x * sf.bessel_j(nu, x)
            assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1 + np.abs(sf.bessel_j(nu, x))))
        for nu, sigma in ((1.5, 1.0), (2.5, 0.7)):
            r = np.linspace(0.2 * sigma, 5.0 * sigma, 40)
            f = lambda t: (t / sigma) ** nu * sf.bessel_k(nu, t / sigma)
            h = 1e-6
            fd = (f(r + h) - f(r - h)) / (2 * h)
            want = -(1.0 / sigma) * (r / sigma) ** nu * sf.bessel_k(nu - 1.0, r / sigma)
            assert np.max(np.abs(fd - want) / np.abs(want)) <= 1e-6
        info["detail"] = "recurrences and weighted-K derivative identities"
