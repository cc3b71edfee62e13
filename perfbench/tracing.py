"""Span recorder for the traced run.

The recorder wraps library functions *as the library looks them up*: it
replaces module attributes such as ``trikernels.spectral.hankel_integral``
for the duration of the traced phase and restores them afterwards.
Nothing under ``src/`` is touched.  Each wrapped call becomes a span
(name, start, end, parent, experiment id, plus one work count and one
size annotation).  Spans live in flat ``array`` buffers, so a run that
records a million radial-profile calls stays in a few tens of MB; they
are written out once, when the run ends.

Self time is a span's duration minus the durations of its direct child
spans.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# (module, attribute, span name).  The span name is the layer metric prefix,
# which for re-exported bindings is the defining module, not the importer.
BINDINGS = [
    ("trikernels.spectral", "hankel_integral", "specfun.hankel_integral"),
    ("trikernels.spectral", "forward_map", "spectral.forward_map"),
    ("trikernels.spectral", "inverse_map", "spectral.inverse_map"),
    ("trikernels.spectral", "hodge_split", "spectral.hodge_split"),
    ("trikernels.spectral", "certify_pd", "spectral.certify_pd"),
    ("trikernels.fields", "eval_matrix", "kernels.eval_matrix"),
    ("trikernels.fields", "cho_factor", "fields.cho_factor"),
    ("trikernels.fields", "assemble_block_matrix", "fields.assemble_block_matrix"),
    ("trikernels.fields", "interpolate", "fields.interpolate"),
    ("trikernels.fields", "field_apply", "fields.field_apply"),
    ("trikernels.dynamics", "field_apply", "fields.field_apply"),
    ("trikernels.dynamics", "shoot", "dynamics.shoot"),
    ("trikernels.dynamics", "flow_grid", "dynamics.flow_grid"),
    ("trikernels.dynamics", "exp_map_fan", "dynamics.exp_map_fan"),
    ("trikernels.cli", "build_kernel", "cli.build_kernel"),
    ("trikernels.cli", "main", "cli.main"),
]

RADIAL_FIELDS = ("k_par", "k_perp", "dk_par", "dk_perp", "ktilde_fn")


def _svg_bindings():
    svg = importlib.import_module("trikernels.svg")
    return [("trikernels.svg", name, "svg." + name)
            for name, obj in vars(svg).items()
            if inspect.isfunction(obj) and obj.__module__ == svg.__name__
            and not name.startswith("_")]


def _arg(args, kw, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kw.get(name, default)


# work / size annotations computed from a call's arguments and result
def _field_apply_work(args, kw, out):
    centers = _arg(args, kw, 1, "centers")
    points = np.atleast_2d(np.asarray(_arg(args, kw, 3, "points")))
    return float(len(points) * len(centers)), 0.0


def _shoot_work(args, kw, out):
    cfg = _arg(args, kw, 3, "cfg")
    if cfg is None:
        cfg = importlib.import_module("trikernels.dynamics").IntegratorConfig()
    stages = 4 if cfg.scheme == "rk4" else 1
    return float(stages * cfg.n_steps), float(_arg(args, kw, 1, "q0").n)


def _fan_work(args, kw, out):
    return float(len(out.failures)), 0.0


def _document_work(args, kw, out):
    return float(len(out.encode())), 0.0


def _radial_work(args, kw, out):
    return float(np.size(args[0])), 0.0


WORK = {
    "fields.field_apply": _field_apply_work,
    "dynamics.shoot": _shoot_work,
    "dynamics.exp_map_fan": _fan_work,
    "svg.document": _document_work,
    "kernels.radial": _radial_work,
    "spectral.tabulated": _radial_work,
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.exp = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.size = array("d")
        self._stack = [-1]
        self.experiment = -1
        self.paused = False
        self.absent: dict[str, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        """Return fn wrapped in a span; `post` may rewrite the result."""
        nid = self._intern(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            if self.paused:
                return fn(*args, **kw)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.exp.append(self.experiment)
            self.work.append(0.0)
            self.size.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kw)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                self.work[idx], self.size[idx] = work(args, kw, out)
            return out if post is None else post(out)

        return traced

    def wrap_kernel(self, k):
        """Copy of a TriKernel whose radial callables record spans."""
        repl = {f: self.wrap("kernels.radial", getattr(k, f))
                for f in RADIAL_FIELDS if getattr(k, f) is not None}
        return dataclasses.replace(k, **repl)

    def _wrap_spectrum(self, s):
        return dataclasses.replace(s, h_par=self.wrap("spectral.tabulated", s.h_par),
                                   h_perp=self.wrap("spectral.tabulated", s.h_perp))

    def install(self):
        """Patch every binding in BINDINGS and the svg module; record absences."""
        post = {"cli.build_kernel": self.wrap_kernel,
                "spectral.forward_map": self._wrap_spectrum}
        for modname, attr, name in BINDINGS + _svg_bindings():
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                self.absent[name] = f"binding {modname}.{attr} no longer exists"
                continue
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, post.get(name)))
        # a span name stays present while any of its bindings exists
        for name in self._ids:
            self.absent.pop(name, None)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so the buffers stay appendable
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "exp": np.array(self.exp, dtype=np.int64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "work": np.array(self.work, dtype=float),
            "size": np.array(self.size, dtype=float),
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: a[k] for k in
                 ("name", "parent", "exp", "start", "end", "work", "size")})


def layer_metrics(rec: Recorder, n_experiments: int, rhs_sizes) -> tuple[dict, dict]:
    """Per-layer metrics, each a per-experiment mean over the traced phase.

    Returns (metrics, absent): metrics maps name -> (value, unit); absent
    maps a metric name to the reason it could not be measured.
    """
    a = rec.arrays()
    ids = {n: i for i, n in enumerate(rec.names)}
    e = float(n_experiments)

    def sel(name):
        return a["name"] == ids[name] if name in ids else np.zeros(len(a["dur"]), bool)

    def outermost(prefix):
        """Spans of a group that have no ancestor in the same group."""
        group = np.array([n.startswith(prefix) for n in rec.names] or [False])
        mine = group[a["name"]] if len(a["name"]) else np.zeros(0, bool)
        inside = np.zeros_like(mine)
        anc = a["parent"].copy()
        while np.any(anc >= 0):
            live = anc >= 0
            inside[live] |= group[a["name"][anc[live]]]
            anc[live] = a["parent"][anc[live]]
        return mine & ~inside

    def calls(name):
        return float(np.count_nonzero(sel(name))) / e

    def total(name, col="dur", mask=None):
        m = sel(name) if mask is None else mask
        return float(np.sum(a[col][m])) / e

    def ratio(num, den, scale):
        return num / den * scale if den > 0 else 0.0

    fa = sel("fields.field_apply")
    shoot = sel("dynamics.shoot")
    svg_docs = sel("svg.document")
    m = {
        "specfun.hankel_integral.calls": (calls("specfun.hankel_integral"), "count"),
        "specfun.hankel_integral.self_s": (total("specfun.hankel_integral", "self"), "s"),
        "kernels.radial.calls": (calls("kernels.radial"), "count"),
        "kernels.radial.points": (total("kernels.radial", "work"), "count"),
        "kernels.radial.self_s": (total("kernels.radial", "self"), "s"),
        "kernels.eval_matrix.calls": (calls("kernels.eval_matrix"), "count"),
        "kernels.eval_matrix.self_s": (total("kernels.eval_matrix", "self"), "s"),
        "spectral.forward_map.s": (total("spectral.forward_map"), "s"),
        "spectral.forward_map.self_s": (total("spectral.forward_map", "self"), "s"),
        "spectral.inverse_map.s": (total("spectral.inverse_map"), "s"),
        "spectral.inverse_map.self_s": (total("spectral.inverse_map", "self"), "s"),
        "spectral.hodge_split.s": (total("spectral.hodge_split"), "s"),
        "spectral.tabulated.calls": (calls("spectral.tabulated"), "count"),
        "spectral.tabulated.self_s": (total("spectral.tabulated", "self"), "s"),
        "fields.assemble_block_matrix.s": (total("fields.assemble_block_matrix"), "s"),
        "fields.assemble_block_matrix.self_s":
            (total("fields.assemble_block_matrix", "self"), "s"),
        "fields.cho_factor.s": (total("fields.cho_factor"), "s"),
        "fields.interpolate.s": (total("fields.interpolate"), "s"),
        "fields.field_apply.calls": (calls("fields.field_apply"), "count"),
        "fields.field_apply.s": (total("fields.field_apply"), "s"),
        "fields.field_apply.pairs": (total("fields.field_apply", "work"), "count"),
        "fields.field_apply.ns_per_pair": (ratio(float(np.sum(a["dur"][fa])),
                                                 float(np.sum(a["work"][fa])), 1e9), "ns"),
        "dynamics.shoot.calls": (calls("dynamics.shoot"), "count"),
        "dynamics.shoot.s": (total("dynamics.shoot"), "s"),
        "dynamics.rhs_evals": (total("dynamics.shoot", "work"), "count"),
        "dynamics.flow_grid.s": (total("dynamics.flow_grid"), "s"),
        "dynamics.flow_grid.self_s": (total("dynamics.flow_grid", "self"), "s"),
        "dynamics.exp_map_fan.s": (total("dynamics.exp_map_fan"), "s"),
        "dynamics.exp_map_fan.failures": (total("dynamics.exp_map_fan", "work"), "count"),
        "svg.s": (total("", mask=outermost("svg.")), "s"),
        "svg.bytes": (float(np.sum(a["work"][svg_docs])) / e, "B"),
        "cli.main.s": (total("cli.main"), "s"),
        "cli.self_s": (total("cli.main", "self"), "s"),
    }
    for n in rhs_sizes:
        at = shoot & (a["size"] == n)
        m[f"dynamics.us_per_rhs.N{n}"] = (ratio(float(np.sum(a["dur"][at])),
                                                float(np.sum(a["work"][at])), 1e6), "us")

    absent = {metric: rec.absent[src] for metric in m
              if (src := _source(metric)) in rec.absent}
    for metric in absent:
        m.pop(metric)
    return m, absent


def _source(metric: str) -> str:
    """Span name a per-layer metric is computed from."""
    if metric.startswith("dynamics.rhs_evals") or metric.startswith("dynamics.us_per_rhs"):
        return "dynamics.shoot"
    if metric.startswith("svg."):
        return "svg.document"
    if metric == "cli.self_s":
        return "cli.main"
    return metric.rsplit(".", 1)[0]
