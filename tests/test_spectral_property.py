"""Property test: the coefficient transform is an involution, so the inverse
map of a kernel's tabulated spectrum returns the kernel's coefficients."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import kernels as K  # noqa: E402
from trikernels import spectral as S  # noqa: E402

# each family at k0 = 1 and width c; lam in [1/4, 3/4] puts the example
# families strictly inside D1 and D2
FAMILIES = {
    "gaussian": lambda c, d, lam: K.gaussian_kernel(c, d),
    "example1": lambda c, d, lam: K.family_example1(lam * 2.0 * c / (d - 1), 1.0, c, d),
    "example2": lambda c, d, lam: K.family_example2(lam * 2.0 * c, 1.0, c, d),
    "curl_free": lambda c, d, lam: K.make_curl_free(K.gaussian_profile(0.5 / c, c), d),
    "div_free": lambda c, d, lam: K.make_div_free(
        K.gaussian_profile(0.5 / (c * (d - 1)), c), d),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(FAMILIES)), dim=st.sampled_from([2, 3]),
       u=st.floats(-0.5, 4.0), lam=st.floats(0.25, 0.75))
def test_inverse_of_forward_map_returns_the_kernel(family, dim, u, lam):
    c = 10.0 ** u
    k = FAMILIES[family](c, dim, lam)
    assert min(k.generator[1]) >= 0 and k.k0 == pytest.approx(1.0)
    r = np.geomspace(1e-3, 3.0, 40) / math.sqrt(c)
    kp, kq = S.inverse_map(S.forward_map(k), r)
    tol = 1e-5 * abs(k.k0)
    assert np.max(np.abs(kp - k.k_par(r))) <= tol
    assert np.max(np.abs(kq - k.k_perp(r))) <= tol
