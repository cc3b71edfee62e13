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
failure.  One schema table describes every config block, and `validate`
checks a config against it before any work starts.
`--print-effective-config` prints the validated config with every
default filled in; it runs unchanged as a config.
"""

from __future__ import annotations

import argparse
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
# config schema
# ---------------------------------------------------------------------------
#
# Each block maps its fields to (kind, default).  A kind turns a JSON value
# into the checked value or raises ValueError naming what it expected; the
# default is a value, REQUIRED, or OPTIONAL (absent unless given).  Defaults
# pass through their kind, so a block's default is the block `{}` checked.

REQUIRED = object()
OPTIONAL = object()


def _number(value) -> float:
    """A finite JSON number in float range; booleans and numeric strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError("a finite number")


def _count(least: int):
    def count(value) -> int:
        number = _number(value)
        if number.is_integer() and number >= least:
            return int(number)
        raise ValueError(f"an integer >= {least}")
    return count


def _enum(*choices: str):
    def enum(value) -> str:
        if isinstance(value, str) and value in choices:
            return value
        raise ValueError("one of " + ", ".join(map(repr, choices)))
    return enum


def _inner_path_or_null(value):
    """Null, or a relative file path that stays strictly inside --out."""
    if value is None:
        return value
    if isinstance(value, str):
        path = Path(value)
        if path.parts and not path.is_absolute() and ".." not in path.parts:
            return value
    raise ValueError("null or a relative file path without '..' components")


def _list(kind, what: str, least: int = 0):
    def listed(value) -> list:
        if isinstance(value, list) and len(value) >= least:
            try:
                return [kind(v) for v in value]
            except ValueError:
                pass
        raise ValueError(what)
    return listed


_numbers = _list(_number, "a list of finite numbers")
_vectors = _list(_numbers, "a non-empty list of lists of finite numbers", least=1)


def _fields(block, table: dict, where: str) -> dict:
    """`block` checked against `table`: no unknown fields, defaults merged, values coerced.

    A kind that is itself a table describes a nested block named after its field.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"'{where}' block must be a JSON object, got {block!r}")
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in '{where}' block")
    checked = {}
    for name, (kind, default) in table.items():
        value = block.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required field '{name}' in '{where}' block")
        if value is OPTIONAL:
            continue
        if isinstance(kind, dict):
            checked[name] = _fields(value, kind, name)
            continue
        try:
            checked[name] = kind(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"'{where}' field '{name}' must be {exc}, got {value!r}") from None
    return checked


def _gaussian_c(p: dict) -> float:
    """The Gaussian rate: `c` when given, else 1 / (2 sigma^2)."""
    return p["c"] if "c" in p else 1.0 / (2.0 * p["sigma"] ** 2)


def _sobolev_profile(p: dict):
    amp = ker.sobolev_green_constant(p["sigma"], p["ell"], p["dim"])
    return ker.bessel_profile(p["ell"] - p["dim"] / 2.0, p["sigma"], amp)


_NUMBER = (_number, REQUIRED)

# family -> (its parameter fields, its constructor from the checked block)
_KERNELS = {
    "gaussian": ({"c": (_number, OPTIONAL), "sigma": (_number, OPTIONAL), "b": (_number, 1.0)},
                 lambda p: ker.gaussian_kernel(_gaussian_c(p), p["dim"], amplitude=p["b"])),
    "cauchy": ({"sigma": _NUMBER}, lambda p: ker.cauchy_kernel(p["sigma"], p["dim"])),
    "bessel": ({"sigma": _NUMBER, "ell": _NUMBER},
               lambda p: ker.bessel_kernel(p["sigma"], p["ell"], p["dim"])),
    "example1": ({"a": _NUMBER, "b": _NUMBER, "c": _NUMBER},
                 lambda p: ker.family_example1(p["a"], p["b"], p["c"], p["dim"])),
    "example2": ({"a": _NUMBER, "b": _NUMBER, "c": _NUMBER},
                 lambda p: ker.family_example2(p["a"], p["b"], p["c"], p["dim"])),
    "gaussian_curl_free": ({"b": _NUMBER, "c": _NUMBER}, lambda p: ker.make_curl_free(
        ker.gaussian_profile(p["b"] / (2.0 * p["c"]), p["c"]), p["dim"])),
    "gaussian_div_free": ({"b": _NUMBER, "c": _NUMBER}, lambda p: ker.make_div_free(
        ker.gaussian_profile(p["b"] / (2.0 * p["c"] * (p["dim"] - 1)), p["c"]), p["dim"])),
    "bessel_curl_free": ({"sigma": _NUMBER, "ell": _NUMBER},
                         lambda p: ker.make_curl_free(_sobolev_profile(p), p["dim"])),
    "bessel_div_free": ({"sigma": _NUMBER, "ell": _NUMBER},
                        lambda p: ker.make_div_free(_sobolev_profile(p), p["dim"])),
}


def kernel_fields(family) -> dict:
    """The kernel block's table; `family` chooses the parameter fields."""
    params = _KERNELS[family][0] if isinstance(family, str) and family in _KERNELS else {}
    return {"family": (_enum(*_KERNELS), REQUIRED), "dim": (_count(2), REQUIRED), **params}


def _kernel(block) -> dict:
    family = block.get("family") if isinstance(block, dict) else None
    checked = _fields(block, kernel_fields(family), "kernel")
    if family == "gaussian" and "c" not in checked and "sigma" not in checked:
        raise ConfigError("gaussian kernel needs 'c' or 'sigma'")
    return checked


BLOCKS = {
    "certify": {"rho_min": (_number, 1e-3), "rho_max": (_number, 20.0),
                "n": (_count(2), 256), "tol": (_number, 1e-8)},
    "spectrum": {"rho_min": (_number, 1e-3), "rho_max": (_number, 20.0), "n": (_count(2), 256)},
    "hodge": {"r_min": (_number, 0.05), "r_max": (_number, 5.0), "n": (_count(2), 200)},
    "expmap": {"magnitude": _NUMBER, "theta_min": (_number, -math.pi / 2),
               "theta_max": (_number, math.pi / 2), "count": (_count(1), 33)},
    "integrator": {"scheme": (_enum(*dyn.SCHEMES), "rk4"), "step": (_number, 1e-3),
                   "record_every": (_count(1), 10)},
    "grid": {"lo": (_numbers, REQUIRED), "hi": (_numbers, REQUIRED),
             "n": (_list(_count(2), "a list of integers >= 2"), REQUIRED)},
    "output": {"format": (_enum("csv", "svg"), "csv"), "path": (_inner_path_or_null, None),
               "arrow_scale": (_number, 0.2)},
}


_KERNEL = (_kernel, REQUIRED)
_VECTORS = (_vectors, REQUIRED)
_OUTPUT = (BLOCKS["output"], {})
_INTEGRATOR = (BLOCKS["integrator"], {})

# subcommand -> the top-level fields it accepts
COMMAND_FIELDS = {
    "certify": {"kernel": _KERNEL, "certify": (BLOCKS["certify"], {})},
    "spectrum": {"kernel": _KERNEL, "spectrum": (BLOCKS["spectrum"], {}), "output": _OUTPUT},
    "field": {"kernel": _KERNEL, "landmarks": _VECTORS, "momenta": _VECTORS,
              "grid": (BLOCKS["grid"], REQUIRED), "output": _OUTPUT},
    "shoot": {"kernel": _KERNEL, "landmarks": _VECTORS, "momenta": _VECTORS,
              "integrator": _INTEGRATOR, "grid": (BLOCKS["grid"], OPTIONAL), "output": _OUTPUT},
    "expmap": {"kernel": _KERNEL, "landmarks": _VECTORS, "expmap": (BLOCKS["expmap"], REQUIRED),
               "integrator": _INTEGRATOR, "output": _OUTPUT},
    "hodge": {"kernel": _KERNEL, "hodge": (BLOCKS["hodge"], {}), "output": _OUTPUT},
}


# cross-field rules, each applied to a checked config and acting on the blocks it holds

def _ranges_ordered(cfg: dict) -> None:
    for where, lo, hi in (("certify", "rho_min", "rho_max"), ("spectrum", "rho_min", "rho_max"),
                          ("hodge", "r_min", "r_max")):
        block = cfg.get(where)
        if block is not None and not 0.0 < block[lo] < block[hi]:
            raise ConfigError(f"'{where}' needs 0 < {lo} < {hi}, got {block[lo]}, {block[hi]}")


def _signs(cfg: dict) -> None:
    if cfg.get("certify", {}).get("tol", 0.0) < 0.0:
        raise ConfigError(f"'certify' field 'tol' must be >= 0, got {cfg['certify']['tol']!r}")
    if cfg.get("output", {}).get("arrow_scale", 1.0) <= 0.0:
        raise ConfigError(f"output arrow_scale must be > 0, got {cfg['output']['arrow_scale']!r}")


def _grid_axes(cfg: dict) -> None:
    if "grid" not in cfg:
        return
    lo, hi, n = (cfg["grid"][axis] for axis in ("lo", "hi", "n"))
    if not len(lo) == len(hi) == len(n):
        raise ConfigError("grid lo/hi/n must have equal lengths")
    if len(lo) != cfg["kernel"]["dim"]:
        raise ConfigError("grid dimension must match the kernel dimension")
    if not all(a < b for a, b in zip(lo, hi)):
        raise ConfigError(f"grid needs lo < hi on every axis, got {lo}, {hi}")


def _landmark_shapes(cfg: dict) -> None:
    if "landmarks" not in cfg:
        return
    n, dim = len(cfg["landmarks"]), cfg["kernel"]["dim"]
    if any(len(v) != dim for v in cfg["landmarks"]):
        raise ConfigError(f"landmarks must be a list of {dim}-vectors")
    if "momenta" in cfg and [len(v) for v in cfg["momenta"]] != [dim] * n:
        raise ConfigError(f"momenta must be a list of {n} {dim}-vectors")
    if "expmap" in cfg and (n != 2 or dim != 2):
        raise ConfigError("expmap requires two landmarks in dimension 2")
    # hodge, which has no landmarks, skips its quivers off the plane instead
    if cfg["output"]["format"] == "svg" and dim != 2:
        raise ConfigError("svg output requires dim = 2")


def _library_invariants(cfg: dict) -> None:
    """What the library's own constructors check: distinct landmarks, the step range."""
    try:
        if "landmarks" in cfg:
            flds.LandmarkConfig(cfg["landmarks"])
        if "integrator" in cfg:
            dyn.IntegratorConfig(**cfg["integrator"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_RULES = (_ranges_ordered, _signs, _grid_axes, _landmark_shapes, _library_invariants)


def validate(cfg, command: str) -> dict:
    """The effective config of `command`: every field checked, defaults merged, rules applied.

    It holds exactly the blocks `command` accepts and runs unchanged as a config.
    """
    checked = _fields(cfg, COMMAND_FIELDS[command], "config")
    for rule in _RULES:
        rule(checked)
    return checked


def build_kernel(block: dict) -> ker.TriKernel:
    """The kernel a `kernel` config block describes; the block is checked first."""
    p = _kernel(block)
    try:
        return _KERNELS[p["family"]][1](p)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad kernel parameters: {exc}") from exc


def _out_path(args, out_block: dict, default_name: str) -> Path:
    path = Path(args.out or ".") / (out_block["path"] or default_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The header, then one repr(float) line per row, CRLF-ended; prints the path it wrote."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + (line * len(table)) % tuple(table.ravel().tolist()))
    print(f"wrote {path}")


def _write_svg(path: Path, elements, proj: svg.Projector, metadata: dict) -> None:
    """One SVG document of `elements` under `proj`; prints the path it wrote."""
    path.write_text(svg.document(elements, proj, metadata))
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_certify(cfg: dict, k: ker.TriKernel, args) -> int:
    block = cfg["certify"]
    grid = np.geomspace(block["rho_min"], block["rho_max"], block["n"])
    verdict = spec.certify_pd(k, grid, tol=block["tol"])
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


def cmd_spectrum(cfg: dict, k: ker.TriKernel, args) -> int:
    block = cfg["spectrum"]
    grid = np.geomspace(block["rho_min"], block["rho_max"], block["n"])
    s = spec.forward_map(k, grid)
    stem = _out_path(args, cfg["output"], "spectrum.csv")
    par_path = stem.with_name(stem.stem + "_hpar.csv")
    perp_path = stem.with_name(stem.stem + "_hperp.csv")
    _write_csv(par_path, ["rho", "h_par"], np.column_stack([grid, s.h_par_samples]))
    _write_csv(perp_path, ["rho", "h_perp"], np.column_stack([grid, s.h_perp_samples]))
    return EXIT_OK


def cmd_field(cfg: dict, k: ker.TriKernel, args) -> int:
    lmk = flds.LandmarkConfig(cfg["landmarks"])
    mom = flds.MomentaSet(cfg["momenta"])
    gspec = dyn.GridSpec(**cfg["grid"])
    out = cfg["output"]
    field = flds.snapshot_field(k, lmk, mom)
    pts = gspec.lattice()
    vals = field(pts)

    if out["format"] == "csv":
        path = _out_path(args, out, "field.csv")
        header = [f"x{i+1}" for i in range(k.dim)] + [f"v{i+1}" for i in range(k.dim)]
        _write_csv(path, header, np.hstack([pts, vals]))
    else:
        proj = svg.Projector(gspec.lo, gspec.hi)
        els = svg.quiver(pts, vals, proj, out["arrow_scale"])
        els += svg.dots(lmk.points, proj, color="#c0392b")
        _write_svg(_out_path(args, out, "field.svg"), els, proj,
                   {"arrow-scale": out["arrow_scale"], "kernel": k.family_tag})

    # kernel-level residual footer over sample points x landmarks
    sample = pts[:: max(1, len(pts) // 64)]
    dx = sample[:, None, :] - lmk.points[None, :, :]
    div_max = np.max(np.abs(flds.divergence_at(k, dx, mom.vectors)))
    curl_max = np.max(np.abs(flds.curl_magnitude_at(k, dx, mom.vectors)))
    print(f"max |div term| = {div_max:.3e}   max |curl term| = {curl_max:.3e}")
    return EXIT_OK


def _phase_header(n: int, d: int) -> list[str]:
    """Columns q{a}_{i}, then p{a}_{i}, of n landmarks in R^d, 1-based."""
    return [f"{v}{a+1}_{i+1}" for v in "qp" for a in range(n) for i in range(d)]


def _phase_rows(traj: dyn.Trajectory) -> np.ndarray:
    """One row per sample: t, then q and p in `_phase_header` order, then H."""
    n = len(traj.times)
    return np.column_stack([traj.times, traj.q.reshape(n, -1), traj.p.reshape(n, -1),
                            traj.hamiltonians])


def cmd_shoot(cfg: dict, k: ker.TriKernel, args) -> int:
    lmk = flds.LandmarkConfig(cfg["landmarks"])
    mom = flds.MomentaSet(cfg["momenta"])
    icfg = dyn.IntegratorConfig(**cfg["integrator"])
    out = cfg["output"]
    if "grid" in cfg:
        # one pass integrates the landmarks and carries the lattice along
        fg = dyn.flow_grid(k, lmk, mom, dyn.GridSpec(**cfg["grid"]), icfg)
        traj = fg.trajectory
    else:
        fg, traj = None, dyn.shoot(k, lmk, mom, icfg)
    path = _out_path(args, out, "trajectory.csv")
    _write_csv(path, ["t", *_phase_header(traj.n_landmarks, traj.dim), "H"], _phase_rows(traj))
    h0 = traj.hamiltonians[0]
    print(f"H(0) = {h0:.9g}   max |H - H(0)| = {traj.energy_drift():.3e}")

    if fg is not None:
        det_dev = float(np.max(np.abs(fg.jacobian_det - 1.0)))
        grid_path = path.with_name(path.stem + "_grid.csv")
        header = ([f"x0_{i+1}" for i in range(k.dim)]
                  + [f"x1_{i+1}" for i in range(k.dim)] + ["det"])
        _write_csv(grid_path, header,
                   np.column_stack([fg.original, fg.transported, fg.jacobian_det]))
        if k.generator is not None and k.generator[1][:2] == (0.0, 0.0):  # w_s = w_c = 0
            print(f"max |det - 1| = {det_dev:.3e} (volume preservation)")
        else:
            print(f"max |det - 1| = {det_dev:.3e}")

    if out["format"] == "svg":
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
        _write_svg(path.with_suffix(".svg"), els, proj, {
            "arrow-scale": out["arrow_scale"], "kernel": k.family_tag, "step": icfg.step})
    return EXIT_OK


def cmd_expmap(cfg: dict, k: ker.TriKernel, args) -> int:
    lmk = flds.LandmarkConfig(cfg["landmarks"])
    mag, t0, t1, count = map(cfg["expmap"].get, ("magnitude", "theta_min", "theta_max", "count"))
    icfg = dyn.IntegratorConfig(**cfg["integrator"])
    out = cfg["output"]
    thetas = np.linspace(t0, t1, count)
    fan = dyn.exp_map_fan(k, lmk, dyn.theta_momenta(mag, thetas), icfg)
    for idx, msg in fan.failures:
        print(f"trajectory {idx} (theta={thetas[idx]:.4f}) failed: {msg}")

    path = _out_path(args, out, "expmap.csv")
    rows = [np.column_stack([np.full(len(traj.times), theta), _phase_rows(traj)])
            for theta, traj in zip(thetas, fan.trajectories) if traj is not None]
    _write_csv(path, ["theta", "t", *_phase_header(lmk.n, k.dim), "H"],
               np.concatenate(rows) if rows else rows)

    if out["format"] == "svg" and rows:
        sheets = [fan.sheet(a) for a in range(lmk.n)]
        finite = np.concatenate([s[np.isfinite(s).all(axis=2)] for s in sheets])
        lo, hi = finite.min(axis=0) - 0.1, finite.max(axis=0) + 0.1
        proj = svg.Projector(lo, hi)
        els = []
        for a, color in zip(range(lmk.n), ("#000000", "#c0392b")):
            els += svg.fan_sheet(sheets[a], proj, color)
        els += svg.dots(lmk.points, proj, color="#1f4e8c", radius=4)
        _write_svg(path.with_suffix(".svg"), els, proj,
                   {"kernel": k.family_tag, "magnitude": mag, "count": count})
    return EXIT_OK if len(fan.failures) < count else EXIT_NUMERICAL


def cmd_hodge(cfg: dict, k: ker.TriKernel, args) -> int:
    block = cfg["hodge"]
    out = cfg["output"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spec.HeavyTailWarning)
        k1, k2 = spec.hodge_split(k)
    r = np.linspace(block["r_min"], block["r_max"], block["n"])
    table = np.column_stack([r, k1.k_par(r), k1.k_perp(r), k2.k_par(r), k2.k_perp(r)])
    path = _out_path(args, out, "hodge.csv")
    _write_csv(path, ["r", "k1_par", "k1_perp", "k2_par", "k2_perp"], table)

    kb = cfg["kernel"]
    if kb["family"] == "gaussian":
        closed = kb["b"] * ker.gaussian_hodge_pair(_gaussian_c(kb), k.dim)[0].k_perp(r)
        dev = float(np.max(np.abs(k1.k_perp(r) - closed)))
        print(f"closed-form transverse check: max dev = {dev:.3e}")

    radius = 200.0 * k.tail_scale / 7.0
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
            _write_svg(path.with_name(path.stem + f"_{name}.svg"), els, proj, {
                "arrow-scale": out["arrow_scale"], "component": name, "kernel": k.family_tag})
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
    common.add_argument("--print-effective-config", action="store_true",
                        help="validate the config, print it with every default filled "
                             "in, and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # unreadable, undecodable or not JSON
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # FP overflow, invalid and divide raise: exit 2 in build_kernel, 3 after; underflow is ignored
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cfg = validate(cfg, args.command)
            k = build_kernel(cfg["kernel"])
            if args.print_effective_config:
                print(json.dumps(cfg, indent=2))
                return EXIT_OK
            return _COMMANDS[args.command](cfg, k, args)
    except (ConfigError, OSError) as exc:  # OSError: output.path or --out is unwritable
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (HankelConvergenceError, dyn.CoalescenceError,
            flds.NearSingularMatrixError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
