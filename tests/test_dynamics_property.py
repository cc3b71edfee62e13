"""Property test: the batched geodesic right-hand side equals per-member calls."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import dynamics as D  # noqa: E402
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
