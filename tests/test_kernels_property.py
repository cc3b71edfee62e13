"""Property tests: eval_matrix is rotation-equivariant and batch-consistent."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import kernels as K  # noqa: E402
from conftest import random_rotation  # noqa: E402

KERNELS = {
    "gaussian": lambda d: K.gaussian_kernel(1.0, d),
    "cauchy": lambda d: K.cauchy_kernel(0.8, d),
    "example1": lambda d: K.family_example1(1.5, 1.0, 1.0, d),
    "example2": lambda d: K.family_example2(1.0, 1.0, 2.0, d),
    "curl_free": lambda d: K.make_curl_free(K.gaussian_profile(0.5, 1.0), d),
    "div_free": lambda d: K.make_div_free(K.gaussian_profile(0.25, 1.0), d),
    "hodge_curl_free": lambda d: K.gaussian_hodge_pair(1.0, d)[0],
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), dim=st.integers(2, 4),
       n=st.integers(1, 6), scale=st.sampled_from([0.05, 0.5, 2.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_matrix_rotation_equivariant_and_batch_consistent(name, dim, n, scale, seed):
    k = KERNELS[name](dim)
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
