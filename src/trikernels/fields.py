"""Vector-field services built on TRI kernels.

Minimal-norm interpolation of point constraints, evaluation of fields
spanned by kernel translates, the pointwise divergence / rotational
intensity of single-center fields and a Newton search for their zeros,
all from the kernels module's pairwise primitive (through `eval_matrix`,
`pair_coefficients`, `field_jacobian` and the div-free residual).
The interpolation problem

    u(x_a) = beta_a  for all a,   |u| minimal in the kernel's space

is solved by one symmetric positive-definite solve against the block
Gram matrix of d x d kernel blocks; the solution is the span of kernel
translates at the constraint points with the solved coefficients as
momenta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .kernels import TriKernel, _div_factor, _field_and_jacobian, eval_matrix, pair_coefficients

MIN_SEPARATION = 1e-9
# point-centre pairs one chunk of `field_apply` evaluates at once; a d = 2
# chunk's displacements then stay under glibc's default 128 KiB mmap
# threshold, so its work arrays come from the heap in any process
PAIR_BUDGET = 8192


def cho_factor(a, **kwargs):
    """scipy.linalg.cho_factor, imported on first use: scipy.linalg costs
    ~0.3 s of start-up that runs which never interpolate do not need."""
    from scipy.linalg import cho_factor as factor

    return factor(a, **kwargs)


class NearSingularMatrixError(RuntimeError):
    """Block Gram matrix could not be factored, even with jitter."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True)
class LandmarkConfig:
    """An ordered set of pairwise-distinct points in R^d."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2:
            raise ValueError("points must be an (N, d) array")
        if len(pts) > 1:
            diffs = pts[:, None, :] - pts[None, :, :]
            dist = np.linalg.norm(diffs, axis=-1)
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= MIN_SEPARATION:
                raise ValueError("landmarks must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class MomentaSet:
    """Coefficient vectors attached to a landmark configuration."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "vectors", v)
        if v.ndim != 2:
            raise ValueError("vectors must be an (N, d) array")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class InterpolationResult:
    momenta: MomentaSet
    interpolant: Callable
    norm_sq: float
    jittered: bool = False


def assemble_block_matrix(k: TriKernel, cfg: LandmarkConfig) -> np.ndarray:
    """Dense (N d) x (N d) Gram matrix with block (a, b) = k(x_a - x_b).

    One `eval_matrix` call; the diagonal blocks are k0 I, and the matrix
    is exactly symmetric since k(x) = k(-x) = k(x)^T hold exactly.
    """
    if k.dim != cfg.dim:
        raise ValueError("kernel and landmark dimensions differ")
    n, d = cfg.n, cfg.dim
    blocks = eval_matrix(k, cfg.points[:, None, :] - cfg.points[None, :, :])
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def field_apply(k: TriKernel, centers: np.ndarray, momenta: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """Sum_b k(y - x_b) alpha_b evaluated at a batch of points.

    Uses k(x)alpha = kperp(r) alpha + ktilde(r) (x . alpha) x, which
    avoids assembling any matrices.  Points (M, d), or one point (d,),
    give values of the same shape.  The points are walked in chunks of
    PAIR_BUDGET // N, at least two, so no work array grows with M; the
    chunks' (d, m) values are joined into one C-contiguous (d, M) array
    (a lone chunk's values are that array), and the (M, d) result is its
    .T view.  Every chunk holds at least two points, since numpy sums a
    one-point chunk in another order: a one-point last chunk joins the one
    before it, and a lone point (M = 1) is evaluated as the two-point chunk
    of itself twice, keeping a copy of one column.  Every value is then
    bitwise the same for any chunk size and wherever the point sits in a
    batch.
    Within a chunk the displacements are coordinate-major, shape (d, N, m)
    with the points innermost, so no array has a trailing axis of length
    d; points handed in as the .T view of a C-contiguous (d, M) array are
    used without a copy.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.ascontiguousarray(np.atleast_2d(pts).T)          # (d, M)
    count = pts.shape[1]
    if count == 1:
        pts = np.repeat(pts, 2, axis=1)
    m = pts.shape[1]
    step = max(2, PAIR_BUDGET // (len(centers) or 1))
    parts = []
    for start in range(0, max(m - 1, 1), step):
        stop = start + step if start + step < m - 1 else m
        x = pts[:, None, start:stop] - centers.T[:, :, None]   # (d, N, m)
        c = pair_coefficients(k, x)
        dot = np.einsum("inm,ni->nm", x, momenta)
        parts.append(momenta.T @ c.kperp + np.einsum("nm,inm->im", c.ktilde * dot, x))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return out[:, 0] if single else np.ascontiguousarray(out[:, :count]).T


def snapshot_field(k: TriKernel, cfg: LandmarkConfig, momenta: MomentaSet) -> Callable:
    """Closure y -> sum_b k(y - x_b) alpha_b, safe for concurrent batch use."""
    if momenta.n != cfg.n or momenta.dim != cfg.dim:
        raise ValueError("momenta shape must match the landmark configuration")
    centers = cfg.points.copy()
    vecs = momenta.vectors.copy()

    def field(points):
        return field_apply(k, centers, vecs, points)

    return field


def interpolate(k: TriKernel, cfg: LandmarkConfig, targets) -> InterpolationResult:
    """Minimal-norm field matching u(x_a) = beta_a at every landmark.

    Solves the SPD block system by Cholesky; a failed factorization gets
    one retry with diagonal jitter 1e-12 * trace/(N d) before raising
    NearSingularMatrixError (coalescing points or a non-strictly-positive
    kernel).
    """
    beta = targets.vectors if isinstance(targets, MomentaSet) else \
        np.atleast_2d(np.asarray(targets, dtype=float))
    if beta.shape != (cfg.n, cfg.dim):
        raise ValueError("targets must be an (N, d) array")
    gram = assemble_block_matrix(k, cfg)
    rhs = beta.ravel()
    jittered = False
    try:
        factor = cho_factor(gram, check_finite=False)
    except LinAlgError:
        jittered = True
        jitter = 1e-12 * np.trace(gram) / gram.shape[0]
        try:
            factor = cho_factor(gram + jitter * np.eye(gram.shape[0]),
                                check_finite=False)
        except LinAlgError:
            raise NearSingularMatrixError(
                "block kernel matrix is not positive definite",
                condition=float(np.linalg.cond(gram))) from None
    from scipy.linalg import cho_solve

    alpha = cho_solve(factor, rhs, check_finite=False)
    norm_sq = float(alpha @ rhs)
    mom = MomentaSet(alpha.reshape(cfg.n, cfg.dim))
    return InterpolationResult(momenta=mom,
                               interpolant=snapshot_field(k, cfg, mom),
                               norm_sq=norm_sq,
                               jittered=jittered)


def divergence_at(k: TriKernel, x, alpha):
    """Divergence of y -> k(y)alpha at x.

    x and alpha broadcast to (..., d); the result has shape (...), a float
    for single vectors.  Equals (alpha . x) times the div-free residual over
    r, (d+1) ktilde + D kperp + r^2 D ktilde with D = (1/r) d/dr, so the
    value at x = 0 is exactly 0, the trace of the Jacobian there.
    """
    x, alpha = np.asarray(x, dtype=float), np.asarray(alpha, dtype=float)
    if x.shape[-1:] != (k.dim,):
        raise ValueError(f"expected vectors of length {k.dim}")
    c = pair_coefficients(k, np.moveaxis(x, -1, 0), derivatives=True)
    factor = _div_factor(k.dim, c.r2, c.ktilde, c.dkperp_r, c.dktilde_r)
    return (np.einsum("...i,...i->...", alpha, x) * factor)[()]


def curl_magnitude_at(k: TriKernel, x, alpha):
    """Rotational intensity of y -> k(y)alpha at x.

    The curl-free residual over r, ktilde - D kperp, times |alpha ^ x|, the
    norm of the wedge of the two vectors; shapes and the value 0 at x = 0
    as in `divergence_at`.  In the plane this matches the scalar curl of the
    field up to orientation sign; in R^3 it is (up to the same sign) the
    Euclidean norm of the classical curl.
    """
    x, alpha = np.asarray(x, dtype=float), np.asarray(alpha, dtype=float)
    if x.shape[-1:] != (k.dim,):
        raise ValueError(f"expected vectors of length {k.dim}")
    c = pair_coefficients(k, np.moveaxis(x, -1, 0), derivatives=True)
    # |alpha ^ x|^2 as the sum of squared 2x2 minors: exact for parallel vectors
    minors = alpha[..., :, None] * x[..., None, :] - x[..., :, None] * alpha[..., None, :]
    wedge = np.sqrt(0.5 * np.sum(minors * minors, axis=(-2, -1)))
    return ((c.ktilde - c.dkperp_r) * wedge)[()]


def field_zero(k: TriKernel, alpha, x0) -> np.ndarray:
    """Newton search for a zero of the single-center field y -> k(y)alpha.

    Each step takes k(x)alpha and its Jacobian from one kernel evaluation;
    the search stops at |k(x)alpha| < 1e-12 and raises after 60 steps.
    """
    alpha = np.asarray(alpha, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(60):
        v, jacobian = _field_and_jacobian(k, x, alpha)
        if np.linalg.norm(v) < 1e-12:
            return x
        x = x - np.linalg.solve(jacobian, v)
    raise RuntimeError("field zero search did not converge")
