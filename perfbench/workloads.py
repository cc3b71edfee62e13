"""The three benchmark workloads: input generation, execution and checks.

Every experiment's inputs come from ``numpy.random.default_rng([seed, i])``
and are plain JSON, so one seed always yields byte-identical configs and
the library receives nothing but those inputs.  An experiment is split
into ``prepare`` (write config files; untimed), ``execute`` (the library
or CLI work; timed) and ``check`` (read outputs back and compare with
closed forms or tolerances; untimed).

Sizes are smaller than the paper-scale configs in the README so that a
30 s run completes 20-40 experiments per workload; each workload still
runs the same code paths and regimes (see the ``WHY`` strings).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trikernels import cli, dynamics, fields, kernels, spectral

# criteria tolerances (tests/test_acceptance.py)
SPECTRUM_TOL = 1e-6          # peak-relative, criteria 1 and 4
CAUCHY_SPECTRUM_TOL = 1e-5   # criterion 2
GAUSSIAN_HODGE_TOL = 1e-6    # d=2 Gaussian vs closed form, criterion 6
HODGE_SUM_TOL = 1e-4         # k1 + k2 vs k, relative to |k0|
DRIFT_TOL = 1e-6             # relative Hamiltonian drift, criterion 9
RESIDUAL_TOL = 1e-10         # interpolation residual, criterion 7

# input index of the untimed warm-up: first slot of every rotation, far from
# the indices a run measures
WARMUP_INDEX = 18 << 24
# additive recurrence steps (the R2 low-discrepancy sequence)
_R2 = np.array([0.7548776662466927, 0.5698402909980532])


@dataclass
class Outcome:
    """What the checks found for one experiment."""

    ok: bool = True
    problems: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)   # metric -> worst value
    counts: dict = field(default_factory=dict)     # computed counts
    digest: str = ""

    def require(self, cond, message: str):
        if not cond:
            self.ok = False
            self.problems.append(message)

    def worst(self, name: str, value: float):
        self.accuracy[name] = max(self.accuracy.get(name, 0.0), float(value))


def _rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _strata(seed: int, index: int, period: int) -> np.ndarray:
    """Two uniforms in [0, 1) for experiment `index` of a rotation of `period`.

    A seeded offset per rotation slot plus a low-discrepancy step per
    rotation: every run covers each slot's parameter range evenly, so the
    cost mix, not only the inputs, is comparable between seeds.
    """
    offset = np.random.default_rng([seed, index % period, period]).random(2)
    return (offset + (index // period) * _R2) % 1.0


def config_bytes(cfg: dict) -> bytes:
    return json.dumps(cfg, sort_keys=True, indent=1).encode()


def run_cli(argv):
    """cli.main in-process, looked up at call time so tracing sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _check_cli(o: Outcome, name: str, res, expected: int = 0):
    rc, out, err = res
    o.require(rc == expected, f"{name}: exit code {rc}, expected {expected}: {err.strip()[-300:]}")
    o.require("Traceback" not in out + err, f"{name}: traceback")


def _load_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _file_bytes(workdir: Path, suffix: str) -> int:
    return sum(p.stat().st_size for p in workdir.glob("*" + suffix))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _digest_files(workdir: Path) -> list[bytes]:
    return [p.name.encode() + p.read_bytes() for p in sorted(workdir.iterdir())]


class Workload:
    name = ""
    why = ""
    rotation = 1   # experiments per rotation through the workload's kinds

    def kind(self, inp: dict) -> str:
        raise NotImplementedError

    def make_input(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def configs(self, inp: dict) -> dict[str, bytes]:
        """Config files handed to the CLI, by file name."""
        return {}

    def prepare(self, inp: dict, workdir: Path):
        for old in workdir.iterdir():
            old.unlink()
        for fname, data in self.configs(inp).items():
            (workdir / fname).write_bytes(data)

    def execute(self, inp: dict, workdir: Path, rec=None):
        raise NotImplementedError

    def check(self, inp: dict, workdir: Path, raw) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# spectral: Hankel transforms behind certificates, spectra and the Hodge split
# ---------------------------------------------------------------------------

SPECTRAL_KINDS = ("gaussian_d2", "gaussian_d3", "example1_in", "example1_out",
                  "cauchy", "gaussian_div_free")
SPECTRAL_GRID_N = 32                       # certify and spectrum rho grids
HODGE_R = np.geomspace(0.05, 5.0, 24)      # radii the Hodge split is tabulated on


class Spectral(Workload):
    name = "spectral"
    why = ("Hankel quadrature through certify, spectrum and the Hodge split over "
           "six kernels, Cauchy tails and a zero div-free mask; no dynamics")

    rotation = len(SPECTRAL_KINDS)

    def kind(self, inp):
        return inp["kind"]

    def make_input(self, seed, index):
        u, v = _strata(seed, index, self.rotation)
        kind = SPECTRAL_KINDS[index % self.rotation]
        c = float(0.5 + 1.5 * u)
        if kind in ("gaussian_d2", "gaussian_d3"):
            kern = {"family": "gaussian", "b": 1.0, "c": c, "dim": 2 if kind == "gaussian_d2" else 3}
        elif kind.startswith("example1"):
            # D1 boundary (div-free) at a = 2cb/(d-1); inside below it, outside above
            lo, hi = (0.25, 0.75) if kind == "example1_in" else (1.5, 2.5)
            kern = {"family": "example1", "a": float(lo + (hi - lo) * v) * 2.0 * c,
                    "b": 1.0, "c": c, "dim": 2}
        elif kind == "cauchy":
            kern = {"family": "cauchy", "sigma": c, "dim": 2}
        else:
            kern = {"family": "gaussian_div_free", "b": 1.0, "c": c, "dim": 2}
        return {"kind": kind, "kernel": kern}

    def configs(self, inp):
        return {
            "certify.json": config_bytes({"kernel": inp["kernel"],
                                          "certify": {"n": SPECTRAL_GRID_N}}),
            "spectrum.json": config_bytes({"kernel": inp["kernel"],
                                           "spectrum": {"n": SPECTRAL_GRID_N}}),
        }

    def execute(self, inp, workdir, rec=None):
        certify = run_cli(["certify", "--config", str(workdir / "certify.json")])
        spectrum = run_cli(["spectrum", "--config", str(workdir / "spectrum.json"),
                            "--out", str(workdir)])
        k = cli.build_kernel(inp["kernel"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", spectral.HeavyTailWarning)
            k1, k2 = spectral.hodge_split(k, r_grid=HODGE_R)
        table = np.column_stack([HODGE_R, k1.k_par(HODGE_R), k1.k_perp(HODGE_R),
                                 k2.k_par(HODGE_R), k2.k_perp(HODGE_R)])
        return certify, spectrum, table, len(caught)

    def check(self, inp, workdir, raw):
        certify, spectrum, table, heavy = raw
        o = Outcome()
        kind, kb = inp["kind"], inp["kernel"]
        _check_cli(o, "certify", certify, 1 if kind == "example1_out" else 0)
        _check_cli(o, "spectrum", spectrum)
        o.counts["heavy_tail_warnings"] = heavy
        o.counts["csv_bytes"] = _file_bytes(workdir, ".csv")
        if spectrum[0] != 0:
            return o
        par = _load_csv(workdir / "spectrum_hpar.csv")
        perp = _load_csv(workdir / "spectrum_hperp.csv")
        rho, hp, hq = par[:, 0], par[:, 1], perp[:, 1]
        o.require(np.all(np.isfinite(par)) and np.all(np.isfinite(perp)), "spectrum: non-finite")
        dim = kb["dim"]
        if kind == "gaussian_div_free":
            err = np.max(np.abs(hp)) / np.max(np.abs(hq))
        else:
            if kind.startswith("gaussian"):
                s = spectral.gaussian_spectrum(kb["c"], dim, amplitude=kb["b"])
            elif kind == "cauchy":
                s = spectral.cauchy_spectrum(kb["sigma"], dim)
            else:
                s = spectral.example1_spectrum(kb["a"], kb["b"], kb["c"], dim)
            ep, eq = s.h_par(rho), s.h_perp(rho)
            peak = max(np.max(np.abs(ep)), np.max(np.abs(eq)))
            err = max(np.max(np.abs(hp - ep)), np.max(np.abs(hq - eq))) / peak
        tol = CAUCHY_SPECTRUM_TOL if kind == "cauchy" else SPECTRUM_TOL
        o.worst("spectrum_err", err)
        o.require(err <= tol, f"spectrum: peak-relative error {err:.2e} > {tol:g}")

        r, k1p, k1q, k2p, k2q = table.T
        o.require(np.all(np.isfinite(table)), "hodge: non-finite")
        k = cli.build_kernel(kb)
        k0 = abs(k.k0)
        sum_dev = max(np.max(np.abs(k1p + k2p - k.k_par(r))),
                      np.max(np.abs(k1q + k2q - k.k_perp(r)))) / k0
        if kind in ("gaussian_d2", "gaussian_d3"):
            c1, c2 = kernels.gaussian_hodge_pair(kb["c"], dim)
            dev = max(np.max(np.abs(k1p - c1.k_par(r))), np.max(np.abs(k1q - c1.k_perp(r))),
                      np.max(np.abs(k2p - c2.k_par(r))), np.max(np.abs(k2q - c2.k_perp(r)))) / k0
        else:
            dev = sum_dev
        o.worst("hodge_err", dev)
        if kind == "gaussian_d2":
            o.require(dev <= GAUSSIAN_HODGE_TOL, f"hodge: closed-form deviation {dev:.2e}")
        o.require(sum_dev <= HODGE_SUM_TOL, f"hodge: component sum deviation {sum_dev:.2e}")
        o.digest = _digest(certify[1].encode(), *_digest_files(workdir), table)
        return o


# ---------------------------------------------------------------------------
# transport: two-landmark shoots, lattice flow, fans and fields via the CLI
# ---------------------------------------------------------------------------

TRANSPORT_FAMILIES = ("gaussian", "gaussian_curl_free", "gaussian_div_free")
TRANSPORT_STEP = 1e-2
TRANSPORT_GRID = {"lo": [-0.3, -0.5], "hi": [1.1, 0.7], "n": [36, 31]}
FAN_COUNT = 9


class Transport(Workload):
    name = "transport"
    why = ("N=2 geodesics bound by per-step overhead, lattice flow dominated by "
           "field_apply, fans, CSV and SVG writing; no specfun work")

    rotation = len(TRANSPORT_FAMILIES)

    def kind(self, inp):
        return inp["kernel"]["family"]

    def make_input(self, seed, index):
        u, v = _strata(seed, index, self.rotation)
        fam = TRANSPORT_FAMILIES[index % self.rotation]
        mag = float(10.0 + 10.0 * u)
        theta = float(-0.3 + 0.6 * v)
        return {
            "kernel": {"family": fam, "c": 16.0, "b": 1.0 / 32.0, "dim": 2},
            "landmarks": [[0.0, 0.0], [0.0, 0.15]],
            "momenta": [[mag * math.cos(theta), mag * math.sin(theta)],
                        [mag * math.cos(theta), -mag * math.sin(theta)]],
            "magnitude": mag,
        }

    def configs(self, inp):
        common = {"kernel": inp["kernel"], "landmarks": inp["landmarks"]}
        integ = {"step": TRANSPORT_STEP, "record_every": 10}
        svg_out = {"format": "svg", "arrow_scale": 0.01}
        return {
            "shoot.json": config_bytes({**common, "momenta": inp["momenta"],
                                        "integrator": integ, "grid": TRANSPORT_GRID,
                                        "output": svg_out}),
            "expmap.json": config_bytes({**common, "integrator": integ,
                                         "expmap": {"magnitude": inp["magnitude"],
                                                    "count": FAN_COUNT}}),
            "field.json": config_bytes({**common, "momenta": inp["momenta"],
                                        "grid": TRANSPORT_GRID, "output": svg_out}),
        }

    def execute(self, inp, workdir, rec=None):
        return [run_cli([cmd, "--config", str(workdir / f"{cmd}.json"), "--out", str(workdir)])
                for cmd in ("shoot", "expmap", "field")]

    def check(self, inp, workdir, raw):
        shoot, expmap, fieldres = raw
        o = Outcome()
        for name, res in zip(("shoot", "expmap", "field"), raw):
            _check_cli(o, name, res)
        if not o.ok:
            return o
        traj = _load_csv(workdir / "trajectory.csv")
        grid = _load_csv(workdir / "trajectory_grid.csv")
        fan = _load_csv(workdir / "expmap.csv")
        o.require(all(np.all(np.isfinite(a)) for a in (traj, grid, fan)), "non-finite CSV")
        h = traj[:, -1]
        drift = np.max(np.abs(h - h[0])) / abs(h[0])
        for theta in np.unique(fan[:, 0]):
            hf = fan[fan[:, 0] == theta, -1]
            drift = max(drift, np.max(np.abs(hf - hf[0])) / abs(hf[0]))
        o.worst("h_drift_rel", drift)
        o.require(drift <= DRIFT_TOL, f"relative H drift {drift:.2e} > {DRIFT_TOL:g}")
        if inp["kernel"]["family"] == "gaussian_div_free":
            # known defect: finite-difference det J from the recorded samples
            o.worst("volume_err", np.max(np.abs(grid[:, -1] - 1.0)))
        failures = expmap[1].count(" failed: ")
        members = len(np.unique(fan[:, 0]))
        o.require(members == FAN_COUNT - failures, "expmap: missing fan members")
        for svg_name in ("trajectory.svg", "field.svg"):
            text = (workdir / svg_name).read_text()
            o.require(text.startswith("<svg") and text.endswith("</svg>\n"),
                      f"{svg_name}: truncated")
        footer = [ln for ln in fieldres[1].splitlines() if ln.startswith("max |div term|")]
        nums = [float(t) for ln in footer for t in ln.replace("=", " ").split()
                if t[0].isdigit()]
        o.require(len(nums) == 2 and all(map(math.isfinite, nums)), "field: bad footer")
        n_steps = round(1.0 / TRANSPORT_STEP)
        g = math.prod(TRANSPORT_GRID["n"])
        o.counts.update({
            "fan_failures": failures,
            "rhs_evals": 4 * n_steps * (1 + FAN_COUNT - failures),
            "field_apply_pairs": 2 * g * (4 * n_steps + 1),
            "csv_bytes": _file_bytes(workdir, ".csv"),
            "svg_bytes": _file_bytes(workdir, ".svg"),
        })
        o.digest = _digest(*_digest_files(workdir))
        return o


# ---------------------------------------------------------------------------
# registration: interpolation, many-landmark shooting and dense evaluation
# ---------------------------------------------------------------------------

REGISTRATION_SIZES = (36, 64, 100)
REGISTRATION_KERNELS = ("gaussian", "example1_div_free_boundary", "gaussian_curl_free")
# at 0.02, RK4 diverged on a few curl-free experiments (relative H drift up to
# 1e12); at 0.01 every drift stayed below 2e-2 over 72 of them
REGISTRATION_STEP = 0.01
_axis = np.linspace(-1.2, 1.2, 100)
EVAL_LATTICE = np.stack([m.ravel() for m in np.meshgrid(_axis, _axis, indexing="ij")], -1)


def registration_kernel(name: str, c: float):
    if name == "gaussian":
        return kernels.gaussian_kernel(c, 2)
    if name == "example1_div_free_boundary":
        return kernels.family_example1(2.0 * c, 1.0, c, 2)
    return kernels.make_curl_free(kernels.gaussian_profile(1.0 / (2.0 * c), c), 2)


class Registration(Workload):
    name = "registration"
    why = ("Gram assembly, Cholesky, many-centre field_apply and large-N geodesic "
           "RHS through the library API; no files, no specfun work")

    rotation = len(REGISTRATION_SIZES) * len(REGISTRATION_KERNELS)

    def kind(self, inp):
        return f"{inp['kernel']}-N{inp['n']}"

    def make_input(self, seed, index):
        rng = _rng(seed, index)
        n = REGISTRATION_SIZES[index % len(REGISTRATION_SIZES)]
        kern = REGISTRATION_KERNELS[(index // len(REGISTRATION_SIZES)) % len(REGISTRATION_KERNELS)]
        m = math.isqrt(n)
        h = 2.0 / (m - 1)
        axis = np.linspace(-1.0, 1.0, m)
        lattice = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], -1)
        pts = lattice + rng.uniform(-h / 4, h / 4, size=lattice.shape)
        targets = rng.normal(0.0, 0.2 * h, size=lattice.shape)
        return {"kernel": kern, "c": 1.0 / h ** 2, "n": n,
                "landmarks": pts.tolist(), "targets": targets.tolist()}

    def execute(self, inp, workdir, rec=None):
        k = registration_kernel(inp["kernel"], inp["c"])
        if rec is not None:
            k = rec.wrap_kernel(k)
        lm = fields.LandmarkConfig(np.array(inp["landmarks"]))
        res = fields.interpolate(k, lm, np.array(inp["targets"]))
        traj = dynamics.shoot(k, lm, res.momenta,
                              dynamics.IntegratorConfig(step=REGISTRATION_STEP))
        vals = res.interpolant(EVAL_LATTICE)
        return res, traj, vals

    def check(self, inp, workdir, raw):
        res, traj, vals = raw
        o = Outcome()
        pts, beta = np.array(inp["landmarks"]), np.array(inp["targets"])
        o.require(not res.jittered, "interpolate: Gram matrix needed jitter")
        resid = np.max(np.abs(res.interpolant(pts) - beta)) / np.max(np.abs(beta))
        o.worst("interp_residual", resid)
        o.require(resid <= RESIDUAL_TOL, f"interpolation residual {resid:.2e}")
        o.require(all(np.all(np.isfinite(a)) for a in (traj.q, traj.p, vals)), "non-finite output")
        o.worst("h_drift_rel", traj.energy_drift() / abs(traj.hamiltonians[0]))
        n, d = inp["n"], 2
        o.counts.update({
            "rhs_evals": 4 * round(1.0 / REGISTRATION_STEP),
            "field_apply_pairs": len(EVAL_LATTICE) * n,
            "gram_entries": (n * d) ** 2,
        })
        o.digest = _digest(res.momenta.vectors, traj.q, traj.p, traj.hamiltonians, vals)
        return o


WORKLOADS = {w.name: w for w in (Spectral(), Transport(), Registration())}
