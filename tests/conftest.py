import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_rotation(rng, d):
    """Haar-ish orthogonal matrix via QR with sign fix."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def projector_oracle(k, x):
    """kpar P + kperp (I - P) at one displacement, k0 I at the origin.

    The paper's form of a TRI kernel, built from the kernel's kpar and
    kperp callables alone, as a reference for the matrix evaluation.
    """
    r = np.linalg.norm(x)
    if r == 0.0:
        return k.k0 * np.eye(k.dim)
    par = np.outer(x, x) / r ** 2
    return float(k.k_par(r)) * par + float(k.k_perp(r)) * (np.eye(k.dim) - par)
