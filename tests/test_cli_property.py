"""Config fuzzing of the CLI exit-code contract.

Each subcommand starts from a small valid config.  One field, one whole
block or the whole config is replaced by a value drawn from a bounded
set of awkward JSON values, and the run must end with an exit code in
{0, 1, 2, 3} and no traceback.  Every kernel number field is also set to
each of 1e-300, 1e-12, 1e12 and 1e300.  No drawn value is a large count,
so no case can allocate without bound.  The replaced fields come from the
CLI's schema table, so a field added there is fuzzed without a test edit.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trikernels import cli  # noqa: E402

NAN, INF = float("nan"), float("inf")
VALUES = [NAN, INF, -INF, 0, -1, 2.5, "x", None, True, [], [1], {}]

GRID = {"lo": [-0.5, -0.5], "hi": [0.5, 0.5], "n": [4, 3]}
INTEGRATOR = {"scheme": "rk4", "step": 0.05, "record_every": 2}
OUTPUT = {"format": "svg", "path": None, "arrow_scale": 0.2}
TWO_LANDMARKS = [[0.0, 0.0], [0.0, 0.3]]
MOMENTA = [[1.0, 0.0], [1.0, 0.0]]

# every field of every block is written out, so each one can be replaced; a
# gaussian kernel takes `c` or `sigma` and uses `c` when both are given
BASE = {
    "certify": {
        "kernel": {"family": "gaussian_div_free", "b": 1.0, "c": 1.0, "dim": 2},
        "certify": {"rho_min": 1e-2, "rho_max": 10.0, "n": 16, "tol": 1e-8},
    },
    "spectrum": {
        "kernel": {"family": "gaussian_curl_free", "b": 1.0, "c": 1.0, "dim": 2},
        "spectrum": {"rho_min": 1e-2, "rho_max": 10.0, "n": 16},
        "output": {**OUTPUT, "format": "csv"},
    },
    "field": {
        "kernel": {"family": "gaussian", "c": 4.0, "sigma": 0.3535533905932738, "b": 1.0,
                   "dim": 2},
        "landmarks": TWO_LANDMARKS, "momenta": MOMENTA, "grid": GRID, "output": OUTPUT,
    },
    "shoot": {
        "kernel": {"family": "gaussian_div_free", "b": 0.1, "c": 4.0, "dim": 2},
        "landmarks": TWO_LANDMARKS, "momenta": MOMENTA, "integrator": INTEGRATOR,
        "grid": GRID, "output": OUTPUT,
    },
    "expmap": {
        "kernel": {"family": "gaussian_curl_free", "b": 0.1, "c": 4.0, "dim": 2},
        "landmarks": TWO_LANDMARKS, "integrator": INTEGRATOR, "output": OUTPUT,
        "expmap": {"magnitude": 1.0, "theta_min": -0.5, "theta_max": 0.5, "count": 3},
    },
    "hodge": {
        "kernel": {"family": "gaussian", "c": 1.0, "sigma": 0.7071067811865476, "b": 1.0,
                   "dim": 2},
        "hodge": {"r_min": 0.1, "r_max": 2.0, "n": 8},
        "output": {**OUTPUT, "format": "csv"},
    },
}


def schema(command: str) -> dict:
    """Top-level field -> its field table (None for a list field) for BASE[command]."""
    family = BASE[command]["kernel"]["family"]
    return {name: (cli.kernel_fields(family) if name == "kernel"
                   else kind if isinstance(kind, dict) else None)
            for name, (kind, _) in cli.COMMAND_FIELDS[command].items()}


# (command, path): () is the whole config, (block,) a block, (block, field) a field
TARGETS = [(command, path) for command in BASE
           for path in [(), *[(b,) for b in schema(command)],
                        *[(b, f) for b, table in schema(command).items() for f in table or ()]]]


def replaced(command: str, path: tuple, value):
    cfg = json.loads(json.dumps(BASE[command]))
    if not path:
        return value
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def run_capture(command: str, config, *extra) -> tuple[int, str, str]:
    """Exit code, stdout with the output directory written as <out>, and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", tmp, *extra])
    return code, out.getvalue().replace(tmp, "<out>"), err.getvalue()


def run_cli(command: str, config) -> tuple[int, str]:
    code, _, err = run_capture(command, config)
    return code, err


def test_base_configs_succeed():
    for command in BASE:
        assert run_cli(command, BASE[command]) == (0, ""), command


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_configs_write_out_every_schema_field(command):
    for block, table in schema(command).items():
        assert block in BASE[command], block
        if table is not None:
            assert set(BASE[command][block]) == set(table), block


@pytest.mark.parametrize("command", sorted(BASE))
def test_effective_config_runs_unchanged(command):
    code, printed, err = run_capture(command, BASE[command], "--print-effective-config")
    assert (code, err) == (0, "")
    effective = json.loads(printed)
    assert "command" not in effective
    assert run_capture(command, effective) == run_capture(command, BASE[command])


def numeric_entries(value, path=()):
    """Paths to every JSON number in `value`, which is a number or nested lists."""
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in numeric_entries(v, (*path, i))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


# (command, top-level field, field or None, index path into a list value)
NUMERIC_FIELDS = [
    (command, block, field, index)
    for command in BASE for block, table in schema(command).items()
    for field in (table or [None])
    for index in numeric_entries(BASE[command][block] if field is None
                                 else BASE[command][block][field])[:1]]


@pytest.mark.parametrize("kind", ["string", "true"])
@pytest.mark.parametrize("command, block, field, index", NUMERIC_FIELDS,
                         ids=["-".join(x for x in case[:3] if x is not None)
                              for case in NUMERIC_FIELDS])
def test_numeric_field_rejects_strings_and_booleans(command, block, field, index, kind):
    cfg = json.loads(json.dumps(BASE[command]))
    parent, key = (cfg, block) if field is None else (cfg[block], field)
    for i in index:
        parent, key = parent[key], i
    parent[key] = str(parent[key]) if kind == "string" else True
    code, out, err = run_capture(command, cfg)
    assert code == 2, (out, err)
    assert "config error:" in err
    assert "Traceback" not in out + err


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(VALUES))
@example(target=("expmap", ("expmap", "magnitude")), value=NAN)
@example(target=("expmap", ("expmap", "count")), value="x")
@example(target=("expmap", ("expmap", "count")), value=0)
@example(target=("expmap", ("expmap", "count")), value=2.5)
@example(target=("expmap", ("expmap", "theta_min")), value=INF)
@example(target=("certify", ("certify",)), value=[1, 2])
@example(target=("shoot", ("integrator",)), value=[1])
@example(target=("field", ("output",)), value="svg")
@example(target=("certify", ()), value=5)
@example(target=("shoot", ("integrator", "record_every")), value=2.5)
@example(target=("field", ("output", "arrow_scale")), value=NAN)
@example(target=("field", ("output", "path")), value=7)
@example(target=("spectrum", ("kernel", "c")), value=0)
@example(target=("hodge", ("kernel", "b")), value=0)
def test_any_single_replacement_keeps_the_exit_code_contract(target, value):
    command, path = target
    code, err = run_cli(command, replaced(command, path, value))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# every kernel number field: `dim` is a count and `family` a name, so neither is replaced
KERNEL_NUMBERS = [(command, ("kernel", field)) for command in BASE
                  for field in schema(command)["kernel"] if field not in ("family", "dim")]


@pytest.mark.parametrize("value", [1e-300, 1e-12, 1e12, 1e300])
@pytest.mark.parametrize("target", KERNEL_NUMBERS,
                         ids=["-".join((command, *path)) for command, path in KERNEL_NUMBERS])
def test_a_kernel_number_at_the_float_range_edges_keeps_the_exit_code_contract(target, value):
    # an overflow, invalid operation or division by zero exits 2 while the kernel
    # is built and 3 after it
    command, path = target
    code, err = run_cli(command, replaced(command, path, value))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
