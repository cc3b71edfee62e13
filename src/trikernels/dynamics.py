"""Hamiltonian landmark dynamics and diffeomorphic flow transport.

Landmark positions q and momenta p evolve under the kernel-induced
cometric by

    dq_a/dt = sum_b k(q_a - q_b) p_b
    dp_a/dt = - sum_b [ p_a . (d k / dx^i)(q_a - q_b) p_b ]_i ,

the geodesic equations of the landmark manifold.  The value
H = 1/2 sum_ab p_a . k(q_a - q_b) p_b is conserved along exact
solutions; its drift under the fixed-step integrator is the error
diagnostic every experiment reports.  `shoot` and `exp_map_fan` share
one fixed-step integrator that advances a batch of members with shared
start positions at once, each with its own coalescence test; a single
shoot is a batch of one.  `flow_grid` is that same integrator with an
ambient lattice carried along: each stage moves the lattice with the
velocity field spanned by the landmarks at that stage, yielding the
deformation map and its Jacobian determinants.  The integrator keeps the
whole state (every member's q and p, then the lattice) in one flat
buffer, so the stage inputs and the combination of a `SCHEMES` entry run in
place over all of it at once instead of once per quantity.  Landmarks are
coordinate-major like the lattice: q and p are (d, B, N) blocks and the
displacements (d, B, N, N), so no array has a trailing axis of length d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import LandmarkConfig, MomentaSet, field_apply
from .kernels import TriKernel, pair_coefficients

COALESCENCE_TOL = 1e-6

# name -> (shifts, weights, divisor) of an explicit Runge-Kutta scheme: stage
# j + 1 starts from y + shifts[j] h k_j, and a step adds (h / divisor) times
# sum_j weights[j] k_j summed in stage order, the operation order of
# y + (h/6)(k1 + 2 k2 + 2 k3 + k4)
SCHEMES = {"rk4": ((0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0),
           "euler": ((), (1.0,), 1.0)}


class CoalescenceError(RuntimeError):
    """Two landmarks came closer than the coalescence threshold."""

    def __init__(self, pair: tuple[int, int], time: float, distance: float):
        super().__init__(
            f"landmarks {pair[0]} and {pair[1]} coalesced at t={time:.6f} "
            f"(distance {distance:.3e})")
        self.pair = pair
        self.time = time
        self.distance = distance


@dataclass(frozen=True)
class PhaseState:
    """Positions q, momenta p (both (N, d)) and the time stamp."""

    q: np.ndarray
    p: np.ndarray
    t: float


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator controls.

    scheme : a name in SCHEMES; "euler" serves convergence studies.
    step : time step on [0, 1]; snapped to an exact divisor of 1.
    record_every : stride between stored trajectory samples.
    """

    scheme: str = "rk4"
    step: float = 1e-3
    record_every: int = 1

    def __post_init__(self):
        if self.scheme not in tuple(SCHEMES):       # a tuple compares unhashable values too
            raise ValueError("scheme must be one of " + ", ".join(map(repr, SCHEMES)))
        if not 0 < self.step <= 0.1:
            raise ValueError("step must lie in (0, 0.1]")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(1.0 / self.step)))


@dataclass(frozen=True)
class Trajectory:
    """Stored integration samples on [0, 1] plus the conserved-value series."""

    times: np.ndarray
    q: np.ndarray              # (M, N, d)
    p: np.ndarray              # (M, N, d)
    hamiltonians: np.ndarray   # (M,)
    step: float

    @property
    def n_landmarks(self) -> int:
        return self.q.shape[1]

    @property
    def dim(self) -> int:
        return self.q.shape[2]

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.hamiltonians - self.hamiltonians[0])))


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice over a box: lower corner, upper corner, points per axis."""

    lo: tuple
    hi: tuple
    n: tuple

    def lattice(self) -> np.ndarray:
        axes = [np.linspace(l, h, int(m)) for l, h, m in zip(self.lo, self.hi, self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class FlowGrid:
    """Lattice transport result: rest positions, images, det estimates."""

    spec: GridSpec
    original: np.ndarray       # (G, d)
    transported: np.ndarray    # (G, d)
    jacobian_det: np.ndarray   # (G,)
    trajectory: Trajectory     # the landmark shoot of the same pass


# ---------------------------------------------------------------------------
# Hamiltonian and its vector field, on coordinate-major (d, B, N) states
# ---------------------------------------------------------------------------

def _rhs(k: TriKernel, q: np.ndarray, p: np.ndarray, dq: np.ndarray,
         dp: Optional[np.ndarray] = None):
    """Right-hand side of the geodesic equations for states (d, B, N).

    Writes the rates into dq and, when given, dp, of q's shape, and returns
    r2, the (B, N, N) squared pairwise distances for the coalescence test;
    without dp the radial derivatives are not evaluated.  The displacements
    x_ab = q_a - q_b form one contiguous (d, B, N, N) array; r2, hence every
    coefficient, is bitwise symmetric in a and b.  dp sums the negated
    gradient terms, which are -field_jacobian(x_ab, p_b)^T p_a in fused
    form; with D = (1/r) d/dr their radial part is
    D ktilde (x_ab . p_a)(x_ab . p_b) - D kperp p_a . p_b along x_ab, so no
    term divides by r.  Self-terms contribute 0 to dp: the displacement
    vanishes and the coefficients are finite there.
    """
    x = q[..., :, None] - q[..., None, :]
    c = pair_coefficients(k, x, dp is not None)
    u = np.einsum("iBab,iBa->Bab", x, p)  # x_ab . p_a; its transpose is -x_ab . p_b
    pt = p.transpose(1, 2, 0)             # C @ pt sums C_ab p_b over b
    nkw = c.ktilde * u.mT                 # -ktilde (x_ab . p_b); its transpose is ktilde u
    np.matmul(c.kperp, pt, out=dq.transpose(1, 2, 0))
    np.subtract(dq, np.vecdot(x, nkw), out=dq)
    if dp is None:
        return c.r2

    nradial = c.dktilde_r * u * u.mT - c.dkperp_r * (pt @ pt.mT)
    np.vecdot(x, nradial, out=dp)
    np.add(dp, nkw.sum(axis=-1) * p, out=dp)
    np.subtract(dp, (nkw.mT @ pt).transpose(2, 0, 1), out=dp)
    return c.r2


def _energy(p: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """1/2 sum_a p_a . dq_a per member of (d, B, N) blocks: the Hamiltonian
    when dq is the rate `_rhs` writes at p's state."""
    return 0.5 * np.einsum("ibn,ibn->b", p, dq)


def _ham(k: TriKernel, q: np.ndarray, p: np.ndarray):
    """H for coordinate-major states (d, B, N); one value per member."""
    dq = np.empty(q.shape)
    _rhs(k, q, p, dq)
    return _energy(p, dq)


def hamiltonian(k: TriKernel, s: PhaseState) -> float:
    """H = 1/2 sum_ab p_a . k(q_a - q_b) p_b, the kernel cometric quadratic,
    evaluated as 1/2 sum_a p_a . dq_a/dt."""
    return float(_ham(k, *(np.asarray(a, dtype=float).T[:, None] for a in (s.q, s.p)))[0])


def _coalesced(r2: np.ndarray, t: float) -> dict[int, CoalescenceError]:
    """Batch members whose closest landmark pair is within the threshold.

    r2 holds the (B, N, N) squared distances `_rhs` returns, tested against
    COALESCENCE_TOL^2; an error reports the distance, the square root of its
    entry.  The n diagonal entries of each member's r2 are exactly 0
    (x_aa = q_a - q_a), so a member has a close pair when more than n
    entries lie below the threshold; the pair itself is located only for
    such members.  When the whole batch has exactly B*N entries below it,
    which is every step of a run without coalescence, no member is scanned.
    """
    n = r2.shape[-1]
    below = r2 < COALESCENCE_TOL * COALESCENCE_TOL
    if np.count_nonzero(below) == r2.size // n:         # the diagonals alone
        return {}
    out = {}
    for m in np.flatnonzero(below.sum(axis=(-2, -1)) > n):
        flat = (r2[m] + np.diag(np.full(n, np.inf))).ravel()
        idx = int(np.argmin(flat))
        out[int(m)] = CoalescenceError((idx // n, idx % n), t, math.sqrt(flat[idx]))
    return out


def hamilton_rhs(k: TriKernel, s: PhaseState):
    """(dq/dt, dp/dt) at a phase state; raises on near-coalescence."""
    q, p = (np.ascontiguousarray(np.asarray(a, dtype=float).T[:, None]) for a in (s.q, s.p))
    dq, dp = np.empty_like(q), np.empty_like(p)
    errors = _coalesced(_rhs(k, q, p, dq, dp), s.t)
    if errors:
        raise errors[0]
    return dq[:, 0].T, dp[:, 0].T


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _integrate(k: TriKernel, q0: np.ndarray, momenta: np.ndarray,
               cfg: IntegratorConfig, points: Optional[np.ndarray] = None):
    """Integrate a batch of members from shared positions q0 (N, d).

    `momenta` holds one (N, d) initial momentum per member.  The state is one
    flat buffer: every member's q, then p, both coordinate-major (d, B, N)
    blocks, then, for a batch of one carrying `points` (G, d), the lattice as
    a (d, G) block; `field_apply` takes the .T views of the lattice and of
    q[:, 0] and p[:, 0] without copies, and a further per-point row would be
    one more slice at the end.  The buffers (y, the stage input, then one
    rate buffer per stage of the scheme) are allocated once, each stage writes
    every member's rates at once, and the stage inputs and the combination
    run in place over whole buffers.  Each member has its own coalescence
    test; a member that fails at some stage is reset, once the step ends, to
    q0 with p = 0, where its rates are exactly 0, so it stays there and never
    fails again.  A recorded row (q, p and H = 1/2 sum_a p_a . dq_a) is
    written at the start of the step that leaves its state, with the dq that
    step's first stage has just computed; the final row, written only when
    some member survived, takes dq from `_ham`, so every row is the same
    formula.  Returns, per member, its Trajectory or the CoalescenceError
    that a lone integration of that member raises, and a
    list holding the final points as (G, d) (empty without points).
    """
    shifts, weights, divisor = SCHEMES[cfg.scheme]
    n_steps = cfg.n_steps
    h = 1.0 / n_steps
    p = np.array(momenta, dtype=float).transpose(2, 0, 1)
    rest = q0.T[:, None]
    carry = points is not None
    lattice = np.asarray(points, dtype=float).T if carry else np.empty((len(p), 0))
    s = p.size
    y, tmp, *ks = np.empty((2 + len(weights), 2 * s + lattice.size))
    # views q, p (d, B, N) and lattice (d, G) of each flat buffer
    vy, vtmp, *vks = [
        (b[:s].reshape(p.shape), b[s:2 * s].reshape(p.shape), b[2 * s:].reshape(lattice.shape))
        for b in (y, tmp, *ks)]
    vy[0][...], vy[1][...], vy[2][...] = rest, p, lattice

    rows = np.append(np.arange(0, n_steps, cfg.record_every), n_steps)
    qs, ps = np.zeros((2, len(rows)) + p.shape)
    hs = np.zeros((len(rows), p.shape[1]))
    errors: dict[int, CoalescenceError] = {}

    def rate(state, out, t):
        """Rates at the views `state` of one buffer, into the views `out`."""
        q, p, x = state
        for m, err in _coalesced(_rhs(k, q, p, out[0], out[1]), t).items():
            errors.setdefault(m, err)
        if carry:
            out[2][...] = field_apply(k, q[:, 0].T, p[:, 0].T, x.T).T

    for i in range(n_steps):
        t = i * h
        rate(vy, vks[0], t)
        if i % cfg.record_every == 0:
            row = i // cfg.record_every
            qs[row], ps[row] = vy[:2]
            hs[row] = _energy(vy[1], vks[0][0])
        for kj, c, vk in zip(ks, shifts, vks[1:]):
            np.multiply(kj, c * h, out=tmp)
            np.add(y, tmp, out=tmp)
            rate(vtmp, vk, t + c * h)
        np.multiply(ks[0], weights[0], out=tmp)
        for kj, w in zip(ks[1:], weights[1:]):
            np.multiply(kj, w, out=kj)
            np.add(tmp, kj, out=tmp)
        np.multiply(tmp, h / divisor, out=tmp)
        np.add(y, tmp, out=y)
        if errors:
            if len(errors) == p.shape[1]:
                break
            failed = list(errors)
            vy[0][:, failed], vy[1][:, failed] = rest, 0.0
    else:                              # some member survived: the final row
        qs[-1], ps[-1] = vy[:2]
        hs[-1] = _ham(k, *vy[:2])
    times = rows * h
    return [errors[m] if m in errors else
            Trajectory(times=times, q=qs[:, :, m].mT.copy(), p=ps[:, :, m].mT.copy(),
                       hamiltonians=hs[:, m].copy(), step=h)
            for m in range(len(momenta))], \
        [np.ascontiguousarray(vy[2].T)] if carry else []


def _check_shapes(k: TriKernel, q0: LandmarkConfig, p0: MomentaSet):
    if q0.dim != k.dim:
        raise ValueError("kernel and landmark dimensions differ")
    if p0.n != q0.n or p0.dim != q0.dim:
        raise ValueError("momenta shape must match the landmark configuration")


def shoot(k: TriKernel, q0: LandmarkConfig, p0: MomentaSet,
          cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the geodesic equations on [0, 1] from (q0, p0).

    A batch of one through the integrator that `exp_map_fan` uses for a
    whole fan.  Along exact solutions H is constant (equivalently, the
    instantaneous field norm is), so the recorded series doubles as the
    integrator error diagnostic.  Aborts with CoalescenceError when two
    landmarks approach within the threshold.
    """
    _check_shapes(k, q0, p0)
    (result,), _ = _integrate(k, q0.points, p0.vectors[None], cfg)
    if isinstance(result, CoalescenceError):
        raise result
    return result


def path_energy(k: TriKernel, traj: Trajectory) -> float:
    """Trapezoid value of the path's kinetic energy integral.

    Written through the momenta as int_0^1 p . K(q) p dt, i.e. twice the
    recorded conserved value up to integrator error.
    """
    return float(np.trapezoid(2.0 * _ham(k, traj.q.transpose(2, 0, 1), traj.p.transpose(2, 0, 1)),
                              traj.times))


# ---------------------------------------------------------------------------
# ambient flow transport
# ---------------------------------------------------------------------------

def _lattice_jacobian_det(spec: GridSpec, transported: np.ndarray) -> np.ndarray:
    shape = tuple(int(m) for m in spec.n)
    d = len(shape)
    maps = transported.reshape(shape + (d,))
    spacing = [(spec.hi[i] - spec.lo[i]) / (shape[i] - 1) for i in range(d)]
    jac = np.empty(shape + (d, d))
    for i in range(d):
        # central differences along lattice axis i, one-sided at the faces
        jac[..., :, i] = np.gradient(maps, spacing[i], axis=i, edge_order=1)
    return np.linalg.det(jac).reshape(-1)


def flow_grid(k: TriKernel, q0: LandmarkConfig, p0: MomentaSet, spec: GridSpec,
              cfg: IntegratorConfig = IntegratorConfig()) -> FlowGrid:
    """Shoot from (q0, p0) and carry a lattice along in the same pass.

    Each lattice point follows dx/dt = v(t, x), v the field of the
    moving landmarks, taken at each Runge-Kutta stage's exact (q, p), so
    the lattice does not depend on `record_every`.  `trajectory` equals
    `shoot`'s bit for bit, and coalescence raises the same error.
    Jacobian determinants come from central differences over lattice
    neighbors.
    """
    _check_shapes(k, q0, p0)
    if not len(spec.lo) == len(spec.hi) == len(spec.n) == k.dim:
        raise ValueError(f"grid lo, hi and n must each have length {k.dim}")
    pts = spec.lattice()
    (result,), (x,) = _integrate(k, q0.points, p0.vectors[None], cfg, pts)
    if isinstance(result, CoalescenceError):
        raise result
    return FlowGrid(spec=spec, original=pts, transported=x,
                    jacobian_det=_lattice_jacobian_det(spec, x), trajectory=result)


# ---------------------------------------------------------------------------
# exponential-map fans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FanResult:
    """One trajectory per momentum sample; failures recorded, fan continues."""

    trajectories: list[Optional[Trajectory]]
    failures: list[tuple[int, str]]

    def sheet(self, landmark: int) -> np.ndarray:
        """Positions of one landmark over (parameter, time), NaN on failures."""
        ok = [t for t in self.trajectories if t is not None]
        if not ok:
            raise ValueError("no successful trajectories in the fan")
        m = len(ok[0].times)
        d = ok[0].dim
        out = np.full((len(self.trajectories), m, d), np.nan)
        for i, t in enumerate(self.trajectories):
            if t is not None:
                out[i] = t.q[:, landmark, :]
        return out


def exp_map_fan(k: TriKernel, q0: LandmarkConfig, p_family,
                cfg: IntegratorConfig = IntegratorConfig()) -> FanResult:
    """Shoot every momentum sample of a parameterized family from q0.

    The whole fan is one batched integration.  Failures are per member:
    a member whose landmarks coalesce gets None as its trajectory and a
    `failures` entry with the text of the CoalescenceError that `shoot`
    of that member alone raises; the other members continue unchanged.
    """
    p_list = [p if isinstance(p, MomentaSet) else MomentaSet(np.asarray(p, dtype=float))
              for p in p_family]
    for p0 in p_list:
        _check_shapes(k, q0, p0)
    results = _integrate(k, q0.points, [p0.vectors for p0 in p_list], cfg)[0] if p_list else []
    return FanResult(
        trajectories=[None if isinstance(res, CoalescenceError) else res for res in results],
        failures=[(i, str(res)) for i, res in enumerate(results)
                  if isinstance(res, CoalescenceError)])


def theta_momenta(magnitude: float, thetas) -> list[np.ndarray]:
    """Two-landmark momentum family mirrored across the first axis:
    p = (m(cos t, sin t), m(cos t, -sin t)) for each angle t."""
    out = []
    for th in np.atleast_1d(np.asarray(thetas, dtype=float)):
        out.append(magnitude * np.array([[np.cos(th), np.sin(th)],
                                         [np.cos(th), -np.sin(th)]]))
    return out
