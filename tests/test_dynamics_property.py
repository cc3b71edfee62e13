"""Property test: the batched geodesic right-hand side equals per-member calls."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import dynamics as D  # noqa: E402
from trikernels import kernels as K  # noqa: E402

# the c = 16 width-0.25 kernels of the shooting experiments, as in test_dynamics
C16 = 16.0
B16 = 1.0 / (2.0 * C16)
KERNELS = {
    "scalar": lambda: K.gaussian_kernel(C16, 2, amplitude=B16),
    "div-free": lambda: K.make_div_free(K.gaussian_profile(B16 / (2 * C16), C16), 2),
    "curl-free": lambda: K.make_curl_free(K.gaussian_profile(B16 / (2 * C16), C16), 2),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), batch=st.integers(1, 5),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_rhs_equals_single_member_calls(name, batch, n, seed):
    k = KERNELS[name]()
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(batch, n, 2)) * 0.3
    p = rng.normal(size=(batch, n, 2)) * 10.0
    q, p = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (q, p))   # (d, B, N)
    dq, dp = np.empty_like(q), np.empty_like(p)
    r = D._rhs(k, q, p, dq, dp)
    for m in range(batch):
        dq1, dp1 = np.empty((2, 1, n)), np.empty((2, 1, n))
        r1 = D._rhs(k, q[:, m:m + 1], p[:, m:m + 1], dq1, dp1)
        for got, want in ((dq[:, m], dq1[:, 0]), (dp[:, m], dp1[:, 0]), (r[m], r1[0])):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * max(1.0, np.max(np.abs(want))))
