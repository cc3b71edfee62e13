"""Command-line front end.

Subcommands run one experiment per invocation from a JSON config and
emit CSV/SVG artifacts:

    certify   spectral positive-definiteness verdict (exit 0 iff strict PD)
    spectrum  tabulate the spectral coefficients to CSV
    field     evaluate a landmark/momenta field on a grid (CSV or quiver SVG)
    shoot     integrate landmark geodesics; trajectory CSV, paths + grid SVG
    expmap    family of shoots over an angle-parameterized momentum fan
    hodge     split a kernel into curl-free + div-free parts, table + quivers

Exit codes: 0 success, 1 analysis-negative, 2 input error, 3 numerical
failure.  Unknown config fields are rejected; `--print-effective-config`
dumps the merged config (all defaults explicit) and exits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import fields as flds
from . import kernels as ker
from . import spectral as spec
from . import svg
from .specfun import HankelConvergenceError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_KERNEL_FIELDS = {
    "gaussian": {"c", "sigma", "b"},
    "cauchy": {"sigma"},
    "bessel": {"sigma", "ell"},
    "example1": {"a", "b", "c"},
    "example2": {"a", "b", "c"},
    "gaussian_curl_free": {"b", "c"},
    "gaussian_div_free": {"b", "c"},
    "bessel_curl_free": {"sigma", "ell"},
    "bessel_div_free": {"sigma", "ell"},
}

_DEFAULTS = {
    "integrator": {"scheme": "rk4", "step": 1e-3, "record_every": 10},
    "certify": {"rho_min": 1e-3, "rho_max": 20.0, "n": 256, "tol": 1e-8},
    "spectrum": {"rho_min": 1e-3, "rho_max": 20.0, "n": 256},
    "hodge": {"r_min": 0.05, "r_max": 5.0, "n": 200},
    "output": {"format": "csv", "path": None, "arrow_scale": 0.2},
}


def _check_fields(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in '{where}' block")


def _require(block: dict, name: str, where: str):
    if name not in block:
        raise ConfigError(f"missing required field '{name}' in '{where}' block")
    return block[name]


def _is_finite_number(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def build_kernel(block: dict) -> ker.TriKernel:
    family = _require(block, "family", "kernel")
    _require(block, "dim", "kernel")
    if not isinstance(family, str) or family not in _KERNEL_FIELDS:
        raise ConfigError(f"unknown kernel family '{family}'")
    _check_fields(block, _KERNEL_FIELDS[family] | {"family", "dim"}, "kernel")
    for name, value in block.items():
        if name != "family" and not _is_finite_number(value):
            raise ConfigError(f"kernel field '{name}' must be a finite number, got {value!r}")
    dim = int(float(block["dim"]))
    try:
        if family == "gaussian":
            if "c" in block:
                c = float(block["c"])
            elif "sigma" in block:
                c = 1.0 / (2.0 * float(block["sigma"]) ** 2)
            else:
                raise ConfigError("gaussian kernel needs 'c' or 'sigma'")
            return ker.gaussian_kernel(c, dim, amplitude=float(block.get("b", 1.0)))
        if family == "cauchy":
            return ker.cauchy_kernel(float(_require(block, "sigma", "kernel")), dim)
        if family == "bessel":
            return ker.bessel_kernel(float(_require(block, "sigma", "kernel")),
                                     float(_require(block, "ell", "kernel")), dim)
        a = float(block["a"]) if "a" in block else None
        b = float(block["b"]) if "b" in block else None
        c = float(block["c"]) if "c" in block else None
        if family == "example1":
            return ker.family_example1(a, b, c, dim)
        if family == "example2":
            return ker.family_example2(a, b, c, dim)
        if family == "gaussian_curl_free":
            return ker.make_curl_free(ker.gaussian_profile(b / (2.0 * c), c), dim)
        if family == "gaussian_div_free":
            return ker.make_div_free(
                ker.gaussian_profile(b / (2.0 * c * (dim - 1)), c), dim)
        sigma = float(_require(block, "sigma", "kernel"))
        ell = float(_require(block, "ell", "kernel"))
        nu = ell - dim / 2.0
        amp = ker.sobolev_green_constant(sigma, ell, dim)
        profile = ker.bessel_profile(nu, sigma, amp)
        if family == "bessel_curl_free":
            return ker.make_curl_free(profile, dim)
        return ker.make_div_free(profile, dim)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad kernel parameters: {exc}") from exc


def _landmarks(cfg: dict, dim: int) -> flds.LandmarkConfig:
    pts = np.asarray(_require(cfg, "landmarks", "top-level"), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigError(f"landmarks must be a list of {dim}-vectors")
    try:
        return flds.LandmarkConfig(pts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _momenta(cfg: dict, n: int, dim: int) -> flds.MomentaSet:
    vecs = np.asarray(_require(cfg, "momenta", "top-level"), dtype=float)
    if vecs.shape != (n, dim):
        raise ConfigError(f"momenta must be a list of {n} {dim}-vectors")
    return flds.MomentaSet(vecs)


def _integrator(cfg: dict) -> dyn.IntegratorConfig:
    block = {**_DEFAULTS["integrator"], **cfg.get("integrator", {})}
    _check_fields(block, {"scheme", "step", "record_every"}, "integrator")
    try:
        return dyn.IntegratorConfig(scheme=block["scheme"], step=float(block["step"]),
                                    record_every=int(block["record_every"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid_spec(block: dict) -> dyn.GridSpec:
    _check_fields(block, {"lo", "hi", "n"}, "grid")
    lo = tuple(float(v) for v in _require(block, "lo", "grid"))
    hi = tuple(float(v) for v in _require(block, "hi", "grid"))
    n = tuple(int(v) for v in _require(block, "n", "grid"))
    if not len(lo) == len(hi) == len(n):
        raise ConfigError("grid lo/hi/n must have equal lengths")
    return dyn.GridSpec(lo=lo, hi=hi, n=n)


def _output(cfg: dict) -> dict:
    block = {**_DEFAULTS["output"], **cfg.get("output", {})}
    _check_fields(block, {"format", "path", "arrow_scale"}, "output")
    if block["format"] not in ("csv", "svg"):
        raise ConfigError("output format must be 'csv' or 'svg'")
    return block


def _out_path(args, out_block: dict, default_name: str) -> Path:
    base = Path(args.out) if args.out else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    return base / (out_block["path"] or default_name)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def _effective(cfg: dict, command: str) -> dict:
    merged = dict(cfg)
    merged["integrator"] = {**_DEFAULTS["integrator"], **cfg.get("integrator", {})}
    merged["output"] = {**_DEFAULTS["output"], **cfg.get("output", {})}
    for key in ("certify", "spectrum", "hodge"):
        if key == command or key in cfg:
            merged[key] = {**_DEFAULTS[key], **cfg.get(key, {})}
    merged["command"] = command
    merged["seed"] = merged.get("seed", 0)
    return merged


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_TOP_LEVEL = {
    "certify": {"kernel", "certify"},
    "spectrum": {"kernel", "spectrum", "output"},
    "field": {"kernel", "landmarks", "momenta", "grid", "output"},
    "shoot": {"kernel", "landmarks", "momenta", "integrator", "grid", "output"},
    "expmap": {"kernel", "landmarks", "expmap", "integrator", "output"},
    "hodge": {"kernel", "hodge", "output"},
}


def cmd_certify(cfg: dict, args) -> int:
    k = build_kernel(_require(cfg, "kernel", "top-level"))
    block = {**_DEFAULTS["certify"], **cfg.get("certify", {})}
    _check_fields(block, set(_DEFAULTS["certify"]), "certify")
    grid = np.geomspace(block["rho_min"], block["rho_max"], int(block["n"]))
    verdict = spec.certify_pd(k, grid, tol=float(block["tol"]))
    if verdict.positive:
        print(f"PD: yes ({'strict' if verdict.strictly else 'not strict'})")
    else:
        print("PD: no")
    print(f"min h_par  = {verdict.min_h_par: .6e}")
    print(f"min h_perp = {verdict.min_h_perp: .6e}")
    print(f"witness rho = {verdict.witness_rho:.6g}   "
          f"(grid [{verdict.rho_min:g}, {verdict.rho_max:g}] x {verdict.n_grid}, "
          f"tol {verdict.tol:g})")
    return EXIT_OK if (verdict.positive and verdict.strictly) else EXIT_NEGATIVE


def cmd_spectrum(cfg: dict, args) -> int:
    k = build_kernel(_require(cfg, "kernel", "top-level"))
    block = {**_DEFAULTS["spectrum"], **cfg.get("spectrum", {})}
    _check_fields(block, set(_DEFAULTS["spectrum"]), "spectrum")
    out = _output(cfg)
    grid = np.geomspace(block["rho_min"], block["rho_max"], int(block["n"]))
    s = spec.forward_map(k, grid)
    stem = _out_path(args, out, "spectrum.csv")
    par_path = stem.with_name(stem.stem + "_hpar.csv")
    perp_path = stem.with_name(stem.stem + "_hperp.csv")
    _write_csv(par_path, ["rho", "h_par"], zip(grid, s.h_par_samples))
    _write_csv(perp_path, ["rho", "h_perp"], zip(grid, s.h_perp_samples))
    print(f"wrote {par_path} and {perp_path}")
    return EXIT_OK


def cmd_field(cfg: dict, args) -> int:
    k = build_kernel(_require(cfg, "kernel", "top-level"))
    lmk = _landmarks(cfg, k.dim)
    mom = _momenta(cfg, lmk.n, k.dim)
    gspec = _grid_spec(_require(cfg, "grid", "top-level"))
    if len(gspec.lo) != k.dim:
        raise ConfigError("grid dimension must match the kernel dimension")
    out = _output(cfg)
    field = flds.snapshot_field(k, lmk, mom)
    pts = gspec.lattice()
    vals = field(pts)

    if out["format"] == "csv":
        path = _out_path(args, out, "field.csv")
        header = [f"x{i+1}" for i in range(k.dim)] + [f"v{i+1}" for i in range(k.dim)]
        _write_csv(path, header, np.hstack([pts, vals]))
        print(f"wrote {path}")
    else:
        if k.dim != 2:
            raise ConfigError("svg output requires dim = 2")
        proj = svg.Projector(gspec.lo, gspec.hi)
        els = svg.quiver(pts, vals, proj, out["arrow_scale"])
        els += svg.dots(lmk.points, proj, color="#c0392b")
        doc = svg.document(els, proj, {"arrow-scale": out["arrow_scale"],
                                       "kernel": k.family_tag})
        path = _out_path(args, out, "field.svg")
        path.write_text(doc)
        print(f"wrote {path}")

    # kernel-level residual footer over the evaluation points
    sample = pts[:: max(1, len(pts) // 64)]
    div_max = curl_max = 0.0
    for x in sample:
        for q, a in zip(lmk.points, mom.vectors):
            dx = x - q
            if np.linalg.norm(dx) < 1e-8:
                continue
            div_max = max(div_max, abs(flds.divergence_at(k, dx, a)))
            curl_max = max(curl_max, abs(flds.curl_magnitude_at(k, dx, a)))
    print(f"max |div term| = {div_max:.3e}   max |curl term| = {curl_max:.3e}")
    return EXIT_OK


def _trajectory_csv(path: Path, traj: dyn.Trajectory) -> None:
    n, d = traj.n_landmarks, traj.dim
    header = (["t"]
              + [f"q{a+1}_{i+1}" for a in range(n) for i in range(d)]
              + [f"p{a+1}_{i+1}" for a in range(n) for i in range(d)]
              + ["H"])
    rows = np.column_stack([traj.times,
                            traj.q.reshape(len(traj.times), -1),
                            traj.p.reshape(len(traj.times), -1),
                            traj.hamiltonians])
    _write_csv(path, header, rows)


def cmd_shoot(cfg: dict, args) -> int:
    k = build_kernel(_require(cfg, "kernel", "top-level"))
    lmk = _landmarks(cfg, k.dim)
    mom = _momenta(cfg, lmk.n, k.dim)
    icfg = _integrator(cfg)
    out = _output(cfg)
    traj = dyn.shoot(k, lmk, mom, icfg)
    path = _out_path(args, out, "trajectory.csv")
    _trajectory_csv(path, traj)
    print(f"wrote {path}")
    h0 = traj.hamiltonians[0]
    print(f"H(0) = {h0:.9g}   max |H - H(0)| = {traj.energy_drift():.3e}")

    grid_block = cfg.get("grid")
    fg = None
    if grid_block is not None:
        gspec = _grid_spec(grid_block)
        fg = dyn.flow_grid(k, traj, gspec, icfg)
        det_dev = float(np.max(np.abs(fg.jacobian_det - 1.0)))
        grid_path = path.with_name(path.stem + "_grid.csv")
        header = ([f"x0_{i+1}" for i in range(k.dim)]
                  + [f"x1_{i+1}" for i in range(k.dim)] + ["det"])
        _write_csv(grid_path, header,
                   np.column_stack([fg.original, fg.transported, fg.jacobian_det]))
        print(f"wrote {grid_path}")
        if "div_free" in k.family_tag:
            print(f"max |det - 1| = {det_dev:.3e} (volume preservation)")
        else:
            print(f"max |det - 1| = {det_dev:.3e}")

    if out["format"] == "svg":
        if k.dim != 2:
            raise ConfigError("svg output requires dim = 2")
        allq = traj.q.reshape(-1, 2)
        lo = allq.min(axis=0) - 0.1
        hi = allq.max(axis=0) + 0.1
        if fg is not None:
            lo = np.minimum(lo, fg.transported.min(axis=0))
            hi = np.maximum(hi, fg.transported.max(axis=0))
        proj = svg.Projector(lo, hi)
        els = []
        if fg is not None:
            els += svg.deformed_grid(fg.transported, fg.spec.n, proj)
        colors = ["#000000", "#c0392b", "#1f4e8c", "#2e8b57"]
        for a in range(traj.n_landmarks):
            els.append(svg.polyline(traj.q[:, a, :], proj,
                                    color=colors[a % len(colors)], width=1.5))
            els += svg.dots(traj.q[:1, a, :], proj, color=colors[a % len(colors)])
        els += svg.quiver(lmk.points, mom.vectors, proj, out["arrow_scale"],
                          color="#555555")
        svg_path = path.with_suffix(".svg")
        svg_path.write_text(svg.document(els, proj, {
            "arrow-scale": out["arrow_scale"], "kernel": k.family_tag,
            "step": icfg.step}))
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_expmap(cfg: dict, args) -> int:
    k = build_kernel(_require(cfg, "kernel", "top-level"))
    lmk = _landmarks(cfg, k.dim)
    block = _require(cfg, "expmap", "top-level")
    _check_fields(block, {"magnitude", "theta_min", "theta_max", "count"}, "expmap")
    mag = float(_require(block, "magnitude", "expmap"))
    t0 = float(block.get("theta_min", -math.pi / 2))
    t1 = float(block.get("theta_max", math.pi / 2))
    count = int(block.get("count", 33))
    if lmk.n != 2 or k.dim != 2:
        raise ConfigError("expmap requires two landmarks in dimension 2")
    icfg = _integrator(cfg)
    out = _output(cfg)
    thetas = np.linspace(t0, t1, count)
    fan = dyn.exp_map_fan(k, lmk, dyn.theta_momenta(mag, thetas), icfg,
                          parameters=thetas)
    for idx, msg in fan.failures:
        print(f"trajectory {idx} (theta={thetas[idx]:.4f}) failed: {msg}")

    path = _out_path(args, out, "expmap.csv")
    rows = []
    for i, traj in enumerate(fan.trajectories):
        if traj is None:
            continue
        for j, t in enumerate(traj.times):
            rows.append([thetas[i], t,
                         *traj.q[j].ravel(), *traj.p[j].ravel(),
                         traj.hamiltonians[j]])
    n, d = lmk.n, k.dim
    header = (["theta", "t"]
              + [f"q{a+1}_{i+1}" for a in range(n) for i in range(d)]
              + [f"p{a+1}_{i+1}" for a in range(n) for i in range(d)] + ["H"])
    _write_csv(path, header, rows)
    print(f"wrote {path}")

    if out["format"] == "svg":
        sheets = [fan.sheet(a) for a in range(lmk.n)]
        finite = np.concatenate([s[np.isfinite(s).all(axis=2)] for s in sheets])
        lo, hi = finite.min(axis=0) - 0.1, finite.max(axis=0) + 0.1
        proj = svg.Projector(lo, hi)
        els = []
        for a, color in zip(range(lmk.n), ("#000000", "#c0392b")):
            els += svg.fan_sheet(sheets[a], proj, color)
        els += svg.dots(lmk.points, proj, color="#1f4e8c", radius=4)
        svg_path = path.with_suffix(".svg")
        svg_path.write_text(svg.document(els, proj, {
            "kernel": k.family_tag, "magnitude": mag, "count": count}))
        print(f"wrote {svg_path}")
    return EXIT_OK if len(fan.failures) < count else EXIT_NUMERICAL


def cmd_hodge(cfg: dict, args) -> int:
    k = build_kernel(_require(cfg, "kernel", "top-level"))
    block = {**_DEFAULTS["hodge"], **cfg.get("hodge", {})}
    _check_fields(block, set(_DEFAULTS["hodge"]), "hodge")
    out = _output(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spec.HeavyTailWarning)
        k1, k2 = spec.hodge_split(k)
    r = np.linspace(block["r_min"], block["r_max"], int(block["n"]))
    table = np.column_stack([r, k1.k_par(r), k1.k_perp(r), k2.k_par(r), k2.k_perp(r)])
    path = _out_path(args, out, "hodge.csv")
    _write_csv(path, ["r", "k1_par", "k1_perp", "k2_par", "k2_perp"], table)
    print(f"wrote {path}")

    kb = cfg["kernel"]
    if kb.get("family") == "gaussian" and k.dim == 2 and float(kb.get("b", 1.0)) == 1.0:
        c = 1.0 / (2.0 * float(kb["sigma"]) ** 2) if "sigma" in kb else float(kb["c"])
        closed = (1.0 - np.exp(-c * r * r)) / (2.0 * c * r * r)
        dev = float(np.max(np.abs(k1.k_perp(r) - closed)))
        print(f"closed-form transverse check: max dev = {dev:.3e}")

    radius = 200.0 * k.tail_scale / 7.0 if np.isfinite(k.tail_scale) else 200.0
    inner, n1, n2 = spec.hodge_orthogonality(k1, k2, radius)
    rel = abs(inner) / max(n1 * n2, 1e-300)
    print(f"L2 orthogonality over radius {radius:.3g}: "
          f"|<u1,u2>| / (|u1||u2|) = {rel:.3e}")

    if out["format"] == "svg" and k.dim == 2:
        ext = 3.0 * k.tail_scale / 7.0
        gs = dyn.GridSpec(lo=(-ext, -ext), hi=(ext, ext), n=(21, 21))
        pts = gs.lattice()
        e1 = np.array([1.0, 0.0])
        for part, name in ((k1, "curl_free"), (k2, "div_free")):
            vals = flds.field_apply(part, np.zeros((1, 2)), e1[None, :], pts)
            proj = svg.Projector(gs.lo, gs.hi)
            els = svg.quiver(pts, vals, proj, out["arrow_scale"])
            p = path.with_name(path.stem + f"_{name}.svg")
            p.write_text(svg.document(els, proj, {
                "arrow-scale": out["arrow_scale"], "component": name,
                "kernel": k.family_tag}))
            print(f"wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "certify": cmd_certify,
    "spectrum": cmd_spectrum,
    "field": cmd_field,
    "shoot": cmd_shoot,
    "expmap": cmd_expmap,
    "hodge": cmd_hodge,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trikernels",
        description="TRI matrix-kernel experiments: certification, fields, "
                    "geodesic shooting, exponential maps, Hodge splitting.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized self-checks")
    common.add_argument("--print-effective-config", action="store_true",
                        help="dump the merged config with defaults and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    np.random.seed(args.seed)
    try:
        _check_fields(cfg, _TOP_LEVEL[args.command], "top-level")
        if args.print_effective_config:
            print(json.dumps(_effective(cfg, args.command), indent=2, default=str))
            return EXIT_OK
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (HankelConvergenceError, dyn.CoalescenceError,
            flds.NearSingularMatrixError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
