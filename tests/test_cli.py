"""Command-line interface: exit codes, artifacts, and CSV round-trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from trikernels import cli
from trikernels import dynamics as D
from trikernels import fields as F
from trikernels import kernels as K
from conftest import CLI_KERNELS, scalar16


def run(tmp_path, command, config, name="cfg.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path), *extra])


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


GRID3 = {"lo": [-1, -1], "hi": [1, 1], "n": [3, 3]}
PAIR = {"landmarks": [[0.0, 0.0], [0.0, 0.5]], "integrator": {"step": 0.05}}


@pytest.mark.parametrize("command, config, files", [
    ("certify", {"certify": {"n": 16}}, 0),
    ("spectrum", {"spectrum": {"n": 16}}, 2),
    ("spectrum", {"spectrum": {"n": 16}, "output": {"path": "sub/s.csv"}}, 2),
    ("field", {"landmarks": [[0.0, 0.0]], "momenta": [[1.0, 0.0]], "grid": GRID3,
               "output": {"format": "svg"}}, 1),
    ("shoot", {**PAIR, "momenta": [[1.0, 0.0], [1.0, 0.0]], "grid": GRID3,
               "output": {"format": "svg", "path": "sub/traj.csv"}}, 3),
    ("expmap", {**PAIR, "expmap": {"magnitude": 1.0, "count": 3},
                "output": {"format": "svg"}}, 2),
    ("hodge", {"hodge": {"n": 8}, "output": {"format": "svg"}}, 3),
], ids=["certify", "spectrum", "spectrum-path", "field", "shoot", "expmap", "hodge"])
def test_every_file_written_is_reported_once(tmp_path, capsys, command, config, files):
    out = tmp_path / "out"
    cfg = {"kernel": {"family": "gaussian", "c": 4.0, "dim": 2}, **config}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    reported = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()
                if line.startswith("wrote")]
    written = [str(p) for p in out.rglob("*") if p.is_file()]
    assert len(written) == files
    assert sorted(reported) == sorted(written)


# --- certify ---------------------------------------------------------------------

def test_certify_positive_strict(tmp_path, capsys):
    code = run(tmp_path, "certify",
               {"kernel": {"family": "example1", "a": 1.5, "b": 1.0, "c": 1.0, "dim": 2}})
    assert code == 0
    assert "PD: yes (strict)" in capsys.readouterr().out


def test_certify_negative(tmp_path, capsys):
    code = run(tmp_path, "certify",
               {"kernel": {"family": "example1", "a": 3.0, "b": 1.0, "c": 1.0, "dim": 2}})
    assert code == 1
    assert "PD: no" in capsys.readouterr().out


def test_certify_zero_kernel_not_strict(tmp_path, capsys):
    code = run(tmp_path, "certify",
               {"kernel": {"family": "example1", "a": 0.0, "b": 0.0, "c": 1.0, "dim": 2}})
    assert code == 1
    assert "PD: yes (not strict)" in capsys.readouterr().out


def test_unknown_kernel_field_is_input_error(tmp_path, capsys):
    code = run(tmp_path, "certify",
               {"kernel": {"family": "example1", "a": 1.0, "b": 1.0, "c": 1.0,
                           "dim": 2, "mystery": 3}})
    assert code == 2


def test_unknown_family_is_input_error(tmp_path):
    code = run(tmp_path, "certify", {"kernel": {"family": "nope", "dim": 2}})
    assert code == 2
    # an unhashable family must not reach the family-table lookup
    code = run(tmp_path, "certify", {"kernel": {"family": ["gaussian"], "dim": 2}})
    assert code == 2


def test_unknown_top_level_block_is_input_error(tmp_path):
    code = run(tmp_path, "certify",
               {"kernel": {"family": "gaussian", "c": 1.0, "dim": 2},
                "momento": [[1, 0]]})
    assert code == 2


# each numeric field is poisoned in turn, so any valid block serves
FAMILY_BLOCKS = {b["family"]: b for name, b in CLI_KERNELS.items() if not name.endswith("_out")}


@pytest.mark.parametrize("command", ["certify", "spectrum", "hodge"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("family", sorted(FAMILY_BLOCKS))
def test_non_finite_kernel_parameter_is_input_error(tmp_path, capsys, family, bad, command):
    for name in [*(f for f in FAMILY_BLOCKS[family] if f != "family"), "dim"]:
        kernel = {**FAMILY_BLOCKS[family], "dim": 2, name: bad}
        assert run(tmp_path, command, {"kernel": kernel}) == 2, name
        captured = capsys.readouterr()
        assert "must be a finite number" in captured.err
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("family", ["bessel_curl_free", "bessel_div_free"])
@pytest.mark.parametrize("ell", [1.5, 2.0])
def test_bessel_construction_with_infinite_k0_is_input_error(tmp_path, capsys, family, ell):
    # nu = ell - d/2 <= 1: -f''(0) = k0 is infinite, so neither kernel exists
    kernel = {"family": family, "sigma": 1.0, "ell": ell, "dim": 2}
    for command in ("certify", "spectrum", "hodge"):
        assert run(tmp_path, command, {"kernel": kernel}) == 2, command
        captured = capsys.readouterr()
        assert "bad kernel parameters" in captured.err
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("ell", [1.5, 2.0])
def test_bessel_scalar_kernel_at_small_order_certifies(tmp_path, ell):
    # the scalar kernel of a profile with nu <= 1 is bounded: k0 = f(0)
    kernel = {"family": "bessel", "sigma": 1.0, "ell": ell, "dim": 2}
    assert run(tmp_path, "certify", {"kernel": kernel}) == 0


GAUSS2 = {"family": "gaussian", "c": 1.0, "dim": 2}
ONE_LANDMARK = {"kernel": GAUSS2, "landmarks": [[0.0, 0.0]], "momenta": [[1.0, 0.0]]}


TWO_LANDMARKS = {"kernel": GAUSS2, "landmarks": [[0.0, 0.0], [0.0, 1.0]]}
EXPMAP_CFG = {**TWO_LANDMARKS, "expmap": {"magnitude": 1.0, "count": 3},
              "integrator": {"step": 0.05}}
SHOOT_SMALL = {**ONE_LANDMARK, "integrator": {"step": 0.05}}
FIELD_CFG = {**ONE_LANDMARK, "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [5, 5]}}

# every block must be a JSON object, and the expmap, output and integrator
# fields must be finite, in range and (for counts) integers
MALFORMED_BLOCK_CASES = {
    "expmap-magnitude-NaN": ("expmap", {**EXPMAP_CFG, "expmap": {"magnitude": float("nan")}}),
    "expmap-count-string": ("expmap", {**EXPMAP_CFG, "expmap": {"magnitude": 1.0, "count": "x"}}),
    "expmap-count-0": ("expmap", {**EXPMAP_CFG, "expmap": {"magnitude": 1.0, "count": 0}}),
    "expmap-count-fractional": ("expmap",
                                {**EXPMAP_CFG, "expmap": {"magnitude": 1.0, "count": 2.5}}),
    "expmap-count-true": ("expmap", {**EXPMAP_CFG, "expmap": {"magnitude": 1.0, "count": True}}),
    "expmap-theta_min-Infinity": ("expmap", {**EXPMAP_CFG, "expmap": {
        "magnitude": 1.0, "count": 3, "theta_min": float("inf")}}),
    "expmap-theta_max-null": ("expmap", {**EXPMAP_CFG, "expmap": {
        "magnitude": 1.0, "count": 3, "theta_max": None}}),
    "expmap-block-list": ("expmap", {**EXPMAP_CFG, "expmap": []}),
    "certify-block-list": ("certify", {"kernel": GAUSS2, "certify": [1, 2]}),
    "kernel-block-list": ("certify", {"kernel": [1]}),
    "integrator-block-list": ("shoot", {**SHOOT_SMALL, "integrator": [1]}),
    "integrator-block-null": ("shoot", {**SHOOT_SMALL, "integrator": None}),
    "output-block-string": ("field", {**FIELD_CFG, "output": "svg"}),
    "grid-block-number": ("shoot", {**SHOOT_SMALL, "grid": 5}),
    "top-level-number": ("certify", 5),
    "top-level-list": ("hodge", [1]),
    "record_every-fractional": ("shoot", {**SHOOT_SMALL, "integrator": {
        "step": 0.05, "record_every": 2.5}}),
    "output-arrow_scale-NaN": ("field", {**FIELD_CFG, "output": {
        "format": "svg", "arrow_scale": float("nan")}}),
    "output-arrow_scale-0": ("field", {**FIELD_CFG, "output": {"arrow_scale": 0}}),
    "output-path-number": ("field", {**FIELD_CFG, "output": {"path": 7}}),
    "grid-n-fractional": ("field", {**FIELD_CFG, "grid": {
        "lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [2.5, 5]}}),
    "shoot-grid-dimension": ("shoot", {**SHOOT_SMALL, "grid": {
        "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0], "n": [3, 3, 3]}}),
    "shoot-grid-lo-equals-hi": ("shoot", {**SHOOT_SMALL, "grid": {
        "lo": [0.0, 0.5], "hi": [1.0, 0.5], "n": [4, 3]}}),
    "kernel-dim-fractional": ("certify", {"kernel": {**GAUSS2, "dim": 2.5}}),
    "curl-free-c-0": ("certify", {"kernel": {"family": "gaussian_curl_free",
                                             "b": 1.0, "c": 0, "dim": 2}}),
    "certify-numeric-strings": ("certify", {
        "kernel": {"family": "gaussian", "c": "1.0", "dim": "2"}, "certify": {"n": "16"}}),
    "gaussian-no-width": ("certify", {"kernel": {"family": "gaussian", "b": 1.0, "dim": 2}}),
    "example1-missing-a": ("certify", {"kernel": {"family": "example1", "b": 1.0, "c": 1.0,
                                                  "dim": 2}}),
    "shoot-dim-3-svg": ("shoot", {
        "kernel": {**GAUSS2, "dim": 3}, "landmarks": [[0.0, 0.0, 0.0]],
        "momenta": [[1.0, 0.0, 0.0]], "integrator": {"step": 0.05}, "output": {"format": "svg"}}),
}


@pytest.mark.parametrize("command, config", [
    ("certify", {"kernel": GAUSS2, "certify": {"tol": float("nan")}}),
    ("spectrum", {"kernel": GAUSS2, "spectrum": {"rho_max": float("inf")}}),
    ("hodge", {"kernel": GAUSS2, "hodge": {"r_max": float("nan")}}),
    ("field", {**ONE_LANDMARK, "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [1, 3]}}),
    ("shoot", {**ONE_LANDMARK, "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [3, 1]}}),
    ("field", {**ONE_LANDMARK,
               "grid": {"lo": [0.0, float("-inf")], "hi": [1.0, 1.0], "n": [3, 3]}}),
    ("shoot", {**ONE_LANDMARK, "integrator": {"step": float("nan")}}),
    ("shoot", {**ONE_LANDMARK, "integrator": {"record_every": float("inf")}}),
    ("certify", {"kernel": GAUSS2, "certify": {"n": 0}}),
    ("certify", {"kernel": GAUSS2, "certify": {"rho_min": 0.0}}),
    ("certify", {"kernel": GAUSS2, "certify": {"rho_min": 5.0, "rho_max": 2.0}}),
    ("certify", {"kernel": GAUSS2, "certify": {"tol": -1e-8}}),
    ("spectrum", {"kernel": GAUSS2, "spectrum": {"n": 1}}),
    ("spectrum", {"kernel": GAUSS2, "spectrum": {"n": 12.5}}),
    ("hodge", {"kernel": GAUSS2, "hodge": {"n": 0}}),
    ("hodge", {"kernel": GAUSS2, "hodge": {"r_min": 0.0}}),
    ("hodge", {"kernel": GAUSS2, "hodge": {"r_min": 2.0, "r_max": 2.0}}),
    *MALFORMED_BLOCK_CASES.values(),
], ids=["certify-tol-NaN", "spectrum-rho_max-Infinity", "hodge-r_max-NaN",
        "field-grid-n-1", "shoot-grid-n-1", "field-grid-lo-Infinity",
        "shoot-step-NaN", "shoot-record_every-Infinity",
        "certify-n-0", "certify-rho_min-0", "certify-rho_min-above-rho_max",
        "certify-tol-negative", "spectrum-n-1", "spectrum-n-fractional",
        "hodge-n-0", "hodge-r_min-0", "hodge-r_min-equals-r_max"]
    + list(MALFORMED_BLOCK_CASES))
def test_bad_numeric_block_field_is_input_error(tmp_path, capsys, command, config):
    assert run(tmp_path, command, config) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command, config", [
    ("field", FIELD_CFG), ("shoot", SHOOT_SMALL),
    ("spectrum", {"kernel": GAUSS2, "spectrum": {"n": 4}}),
], ids=["field", "shoot", "spectrum"])
@pytest.mark.parametrize("bad", [".", "", "..", "sub/..", "sub/../../x.csv", "ABSOLUTE"],
                         ids=["dot", "empty", "dotdot", "sub-dotdot", "escape", "absolute"])
def test_output_path_outside_out_is_input_error(tmp_path, capsys, command, config, bad):
    # output.path names a file strictly inside --out; the absolute case points
    # into this test's own directory, so an unchecked path writes nothing elsewhere
    if bad == "ABSOLUTE":
        bad = str(tmp_path / "abs" / "x.csv")
    out = tmp_path / "run" / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "output": {"path": bad}}))
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "run").exists() and not (tmp_path / "abs").exists()


def test_missing_kernel_field_is_named(tmp_path, capsys):
    assert run(tmp_path, *MALFORMED_BLOCK_CASES["example1-missing-a"]) == 2
    assert "'a'" in capsys.readouterr().err


def test_rejected_config_writes_nothing(tmp_path):
    command, config = MALFORMED_BLOCK_CASES["shoot-dim-3-svg"]
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"kernel": {"family": "nope", "dim": 2}},
    {"kernel": GAUSS2, "certify": {"n": "x"}},
    {"kernel": GAUSS2, "certify": {"mystery": 1}},
], ids=["unknown-family", "n-string", "unknown-field"])
def test_print_effective_config_validates(tmp_path, capsys, config):
    assert run(tmp_path, "certify", config, extra=("--print-effective-config",)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error:" in captured.err


FIELD_GRID = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [3, 3]}
EXPMAP_BLOCK = {"magnitude": 1.0, "count": 3}


BAD_LANDMARKS = {
    "NaN": [[float("nan"), 0.0], [0.0, 1.0]],
    "Infinity": [[float("inf"), 0.0], [0.0, 1.0]],
    "string": [["a", 0.0], [0.0, 1.0]],
    "ragged": [[0.0, 0.0], [0.0]],
    "numeric-string": [["0.5", 0.0], [0.0, 1.0]],
    "bool": [[True, 0.0], [0.0, 1.0]],
}
BAD_MOMENTA = {
    "Infinity": [[1.0, 0.0], [float("inf"), 0.0]],
    "NaN": [[1.0, float("nan")], [0.0, 0.0]],
    "null": [[1.0, 0.0], [None, 0.0]],
    "numeric-string": [["1.0", 0.0], [0.0, 0.0]],
    "bool": [[1.0, False], [0.0, 0.0]],
    "one-for-two-landmarks": [[1.0, 0.0]],
}
# expmap builds its momenta from the 'expmap' block, so only its landmarks are poisoned
BAD_VECTOR_CASES = (
    [(c, "landmarks", v, f"{c}-landmark-{n}")
     for c in ("shoot", "field", "expmap") for n, v in BAD_LANDMARKS.items()]
    + [(c, "momenta", v, f"{c}-momentum-{n}")
       for c in ("shoot", "field") for n, v in BAD_MOMENTA.items()])


@pytest.mark.parametrize("command, field, value",
                         [case[:3] for case in BAD_VECTOR_CASES],
                         ids=[case[3] for case in BAD_VECTOR_CASES])
def test_bad_landmarks_or_momenta_are_input_errors(tmp_path, capsys, command, field, value):
    config = {"kernel": GAUSS2, "landmarks": [[0.0, 0.0], [0.0, 1.0]]}
    if command == "expmap":
        config["expmap"] = {"magnitude": 1.0, "count": 3}
    else:
        config["momenta"] = [[1.0, 0.0], [0.0, 0.0]]
    if command == "field":
        config["grid"] = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [3, 3]}
    config[field] = value
    assert run(tmp_path, command, config) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command, config, message", [
    ("field", {**FIELD_CFG, "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [5]}},
     "grid lo/hi/n must have equal lengths"),
    ("expmap", {**EXPMAP_CFG, "landmarks": [[0.0, 0.0]]},
     "expmap requires two landmarks in dimension 2"),
    ("expmap", {**EXPMAP_CFG, "kernel": {**GAUSS2, "dim": 3},
                "landmarks": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
     "expmap requires two landmarks in dimension 2"),
], ids=["grid-lengths", "expmap-one-landmark", "expmap-dim-3"])
def test_config_shape_errors_name_the_shape(tmp_path, capsys, command, config, message):
    assert run(tmp_path, command, config) == 2
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["certify", "--config", str(path)]) == 2


def test_print_effective_config(tmp_path, capsys):
    code = run(tmp_path, "shoot",
               {"kernel": {"family": "gaussian", "c": 16.0, "dim": 2},
                "landmarks": [[0, 0]], "momenta": [[1, 0]]},
               extra=("--print-effective-config",))
    assert code == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["integrator"] == {"scheme": "rk4", "step": 1e-3, "record_every": 10}
    assert dumped["output"]["format"] == "csv"


# --- spectrum ---------------------------------------------------------------------

def test_spectrum_dump(tmp_path, capsys):
    code = run(tmp_path, "spectrum",
               {"kernel": {"family": "gaussian", "sigma": 1.0, "dim": 2},
                "spectrum": {"rho_min": 0.05, "rho_max": 2.0, "n": 12}})
    assert code == 0
    header, rows = read_csv(tmp_path / "spectrum_hpar.csv")
    assert header == ["rho", "h_par"]
    want = 2 * np.pi * np.exp(-2 * np.pi ** 2 * rows[:, 0] ** 2)
    np.testing.assert_allclose(rows[:, 1], want, atol=1e-7 * want.max())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family, zero", [("gaussian_div_free", "par"),
                                          ("gaussian_curl_free", "perp")])
def test_zero_coefficient_is_written_as_plus_zero(tmp_path, capsys, family, zero, dim):
    # a zero weight times a negative tail sample of f's transform is -0.0,
    # which must neither print as "-0.000000e+00" nor reach the CSV as "-0.0"
    kernel = {"family": family, "b": 1.0, "c": 1.0, "dim": dim}
    assert run(tmp_path, "certify", {"kernel": kernel}) == 0
    label = "h_par " if zero == "par" else "h_perp"
    assert f"min {label} =  0.000000e+00" in capsys.readouterr().out
    assert run(tmp_path, "spectrum", {"kernel": kernel}) == 0
    fields = (tmp_path / f"spectrum_h{zero}.csv").read_text().replace("\n", ",").split(",")
    assert "-0.0" not in fields
    assert float(fields[-2]) == 0.0


def test_spectrum_output_path_in_subdirectory(tmp_path):
    code = run(tmp_path, "spectrum",
               {"kernel": {"family": "gaussian", "sigma": 1.0, "dim": 2},
                "spectrum": {"rho_min": 0.05, "rho_max": 2.0, "n": 12},
                "output": {"path": "sub/x.csv"}})
    assert code == 0
    assert read_csv(tmp_path / "sub" / "x_hpar.csv")[0] == ["rho", "h_par"]
    assert read_csv(tmp_path / "sub" / "x_hperp.csv")[0] == ["rho", "h_perp"]


# --- field ------------------------------------------------------------------------

FIELD_CFG = {
    "kernel": {"family": "example2", "a": 2.0, "b": 1.0, "c": 1.0, "dim": 2},
    "landmarks": [[0.0, 0.0]],
    "momenta": [[1.0, 0.0]],
    "grid": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "n": [9, 9]},
}


def test_field_csv_dump(tmp_path):
    code = run(tmp_path, "field", FIELD_CFG)
    assert code == 0
    header, rows = read_csv(tmp_path / "field.csv")
    assert header == ["x1", "x2", "v1", "v2"]
    assert len(rows) == 81
    k = K.family_example2(2.0, 1.0, 1.0, 2)
    i = 17
    want = K.eval_matrix(k, rows[i, :2]) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(rows[i, 2:], want, atol=1e-12)


def test_csv_bytes_match_per_value_repr(tmp_path):
    # the writer renders every float as repr(float(v)), whatever container holds the rows
    table = np.array([[np.nan, np.inf, -np.inf],
                      [-0.0, 0.0, 5e-324],
                      [1e300, -1e300, 2.0],
                      [-3.0, 1.0 / 3.0, 123456789.0]])
    header = ["a", "b", "c"]

    def per_value(rows):
        lines = [",".join(header)] + [",".join(repr(float(v)) for v in r) for r in rows]
        return "".join(line + "\r\n" for line in lines).encode()

    path = tmp_path / "t.csv"
    for rows in (table, table.tolist(), list(zip(*table.T)), table[:0]):
        cli._write_csv(path, header, rows)
        assert path.read_bytes() == per_value(np.asarray(rows, dtype=float))
    assert per_value(table).splitlines()[1:3] == [b"nan,inf,-inf", b"-0.0,0.0,5e-324"]


def test_field_output_path_in_subdirectory(tmp_path):
    assert run(tmp_path, "field", dict(FIELD_CFG, output={"path": "sub/deeper/x.csv"})) == 0
    _, rows = read_csv(tmp_path / "sub" / "deeper" / "x.csv")
    assert len(rows) == 81


def test_field_zero_momenta_dump(tmp_path):
    cfg = dict(FIELD_CFG, momenta=[[0.0, 0.0]])
    assert run(tmp_path, "field", cfg) == 0
    _, rows = read_csv(tmp_path / "field.csv")
    assert np.all(rows[:, 2:] == 0.0)


def test_field_curl_free_footer(tmp_path, capsys):
    # a = 2bc puts the second family on its curl-free boundary
    assert run(tmp_path, "field", FIELD_CFG) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if "curl term" in l][0]
    curl_val = float(line.split("=")[-1])
    assert curl_val <= 1e-8


def test_field_svg(tmp_path):
    cfg = dict(FIELD_CFG, output={"format": "svg", "path": "f.svg", "arrow_scale": 0.4})
    assert run(tmp_path, "field", cfg) == 0
    doc = ET.parse(tmp_path / "f.svg").getroot()
    assert doc.tag.endswith("svg")
    meta = doc.find("{http://www.w3.org/2000/svg}metadata")
    assert "arrow-scale" in (meta.text or "")


def test_field_dim_mismatch(tmp_path):
    cfg = dict(FIELD_CFG, landmarks=[[0.0, 0.0, 0.0]], momenta=[[1.0, 0.0, 0.0]])
    assert run(tmp_path, "field", cfg) == 2


# --- shoot ------------------------------------------------------------------------

SHOOT_CFG = {
    "kernel": {"family": "gaussian", "c": 16.0, "b": 0.03125, "dim": 2},
    "landmarks": [[0.0, 0.0], [0.0, 0.15]],
    "momenta": [[15.0, 0.0], [15.0, 0.0]],
    "integrator": {"step": 0.001, "record_every": 100},
}


def test_shoot_trajectory_csv_roundtrip(tmp_path, capsys):
    assert run(tmp_path, "shoot", SHOOT_CFG) == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header[0] == "t" and header[-1] == "H"
    # recompute H from the stored q, p columns: repr round-trip is lossless
    k = scalar16()
    for row in rows[:: max(1, len(rows) // 5)]:
        q = row[1:5].reshape(2, 2)
        p = row[5:9].reshape(2, 2)
        h = D.hamiltonian(k, D.PhaseState(q, p, row[0]))
        assert abs(h - row[-1]) <= 1e-12 * max(1.0, abs(row[-1]))
    out = capsys.readouterr().out
    drift = float([l for l in out.splitlines() if "max |H - H(0)|" in l][0].split("=")[-1])
    assert drift <= 1e-6


@pytest.mark.parametrize("scheme", D.SCHEMES)
def test_shoot_csv_is_the_library_trajectory_of_every_scheme(tmp_path, scheme):
    # each row is repr(float) of t, q, p and H of the library's shoot, in order
    icfg = {"scheme": scheme, "step": 0.01, "record_every": 10}
    assert run(tmp_path, "shoot", dict(SHOOT_CFG, integrator=icfg)) == 0
    traj = D.shoot(scalar16(), F.LandmarkConfig(np.array(SHOOT_CFG["landmarks"])),
                   F.MomentaSet(np.array(SHOOT_CFG["momenta"])), D.IntegratorConfig(**icfg))
    want = [",".join(repr(float(v)) for v in (t, *q.ravel(), *p.ravel(), h))
            for t, q, p, h in zip(traj.times, traj.q, traj.p, traj.hamiltonians)]
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1:] == want


@pytest.mark.parametrize("scheme", ["rk2", ["rk4"]], ids=["rk2", "list"])
def test_unknown_scheme_is_input_error(tmp_path, capsys, scheme):
    assert run(tmp_path, "shoot", dict(SHOOT_CFG, integrator={"scheme": scheme})) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", D.SCHEMES)
def test_print_effective_config_keeps_every_scheme(tmp_path, capsys, scheme):
    cfg = dict(SHOOT_CFG, integrator={"scheme": scheme})
    assert run(tmp_path, "shoot", cfg, extra=("--print-effective-config",)) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["integrator"]["scheme"] == scheme
    assert run(tmp_path, "shoot", json.loads(printed), extra=("--print-effective-config",)) == 0
    assert capsys.readouterr().out == printed


def test_shoot_with_grid_and_svg(tmp_path, capsys):
    cfg = dict(SHOOT_CFG,
               grid={"lo": [-0.2, -0.3], "hi": [0.8, 0.5], "n": [21, 17]},
               output={"format": "svg", "arrow_scale": 0.01})
    assert run(tmp_path, "shoot", cfg) == 0
    assert (tmp_path / "trajectory.svg").exists()
    _, rows = read_csv(tmp_path / "trajectory_grid.csv")
    assert rows.shape[1] == 5  # x0, x1 pairs and det
    out = capsys.readouterr().out
    assert "max |det - 1|" in out


@pytest.mark.parametrize("kernel, volume", [
    ({"family": "gaussian_div_free", "b": 1.0, "c": 16.0, "dim": 2}, True),
    # on the D1 boundary b = (d-1) a / (2c): the same div-free kernel
    ({"family": "example1", "a": 32.0, "b": 1.0, "c": 16.0, "dim": 2}, True),
    ({"family": "gaussian", "c": 16.0, "b": 0.03125, "dim": 2}, False),
    ({"family": "gaussian_curl_free", "b": 1.0, "c": 16.0, "dim": 2}, False),
])
def test_shoot_volume_label_follows_the_generator(tmp_path, capsys, kernel, volume):
    cfg = dict(SHOOT_CFG, kernel=kernel, integrator={"step": 0.01, "record_every": 10},
               grid={"lo": [-0.2, -0.3], "hi": [0.8, 0.5], "n": [6, 5]})
    assert run(tmp_path, "shoot", cfg) == 0
    line, = [l for l in capsys.readouterr().out.splitlines() if "max |det - 1|" in l]
    assert line.endswith("(volume preservation)") == volume


def test_shoot_companions_follow_output_path_into_subdirectory(tmp_path):
    cfg = dict(SHOOT_CFG, grid={"lo": [-0.2, -0.3], "hi": [0.8, 0.5], "n": [6, 5]},
               output={"format": "svg", "arrow_scale": 0.01, "path": "sub/run.csv"})
    assert run(tmp_path, "shoot", cfg) == 0
    names = sorted(p.name for p in (tmp_path / "sub").iterdir())
    assert names == ["run.csv", "run.svg", "run_grid.csv"]


def test_shoot_grid_leaves_trajectory_csv_unchanged(tmp_path):
    plain, gridded = tmp_path / "plain", tmp_path / "grid"
    base = dict(SHOOT_CFG, integrator={"step": 0.01, "record_every": 7})
    for out, cfg in ((plain, base),
                     (gridded, dict(base, grid={"lo": [-0.2, -0.3], "hi": [0.8, 0.5],
                                                "n": [6, 5]}))):
        out.mkdir()
        assert run(out, "shoot", cfg) == 0
    assert ((gridded / "trajectory.csv").read_bytes()
            == (plain / "trajectory.csv").read_bytes())
    assert (gridded / "trajectory_grid.csv").exists()


def test_shoot_zero_momenta_identity_grid(tmp_path):
    cfg = dict(SHOOT_CFG, momenta=[[0.0, 0.0], [0.0, 0.0]],
               grid={"lo": [-0.2, -0.2], "hi": [0.2, 0.2], "n": [6, 6]})
    assert run(tmp_path, "shoot", cfg) == 0
    _, rows = read_csv(tmp_path / "trajectory_grid.csv")
    np.testing.assert_allclose(rows[:, 0:2], rows[:, 2:4], atol=0.0)
    np.testing.assert_allclose(rows[:, 4], 1.0, atol=1e-12)


def test_shoot_coalescence_is_numerical_failure(tmp_path, capsys):
    cfg = {
        "kernel": {"family": "gaussian_curl_free", "b": 0.03125, "c": 16.0, "dim": 2},
        "landmarks": [[-0.05, 0.0], [0.05, 0.0]],
        "momenta": [[60.0, 0.0], [-60.0, 0.0]],
        "integrator": {"step": 0.001, "record_every": 100},
    }
    assert run(tmp_path, "shoot", cfg) == 3


# --- expmap -----------------------------------------------------------------------

def test_expmap_small_fan(tmp_path, capsys):
    cfg = {
        "kernel": {"family": "gaussian", "c": 16.0, "b": 0.03125, "dim": 2},
        "landmarks": [[0.0, -0.125], [0.0, 0.125]],
        "expmap": {"magnitude": 50.0, "count": 5},
        "integrator": {"step": 0.002, "record_every": 100},
        "output": {"format": "svg"},
    }
    assert run(tmp_path, "expmap", cfg) == 0
    header, rows = read_csv(tmp_path / "expmap.csv")
    assert header[:2] == ["theta", "t"]
    assert len(np.unique(rows[:, 0])) == 5
    assert (tmp_path / "expmap.svg").exists()


def test_expmap_single_angle_matches_shoot(tmp_path):
    cfg = {
        "kernel": {"family": "gaussian", "c": 16.0, "b": 0.03125, "dim": 2},
        "landmarks": [[0.0, -0.125], [0.0, 0.125]],
        "expmap": {"magnitude": 50.0, "count": 1, "theta_min": 0.3, "theta_max": 0.3},
        "integrator": {"step": 0.002, "record_every": 100},
    }
    assert run(tmp_path, "expmap", cfg) == 0
    _, fan_rows = read_csv(tmp_path / "expmap.csv")
    k = scalar16()
    q0 = F.LandmarkConfig(np.array([[0.0, -0.125], [0.0, 0.125]]))
    p0 = F.MomentaSet(D.theta_momenta(50.0, [0.3])[0])
    traj = D.shoot(k, q0, p0, D.IntegratorConfig(step=2e-3, record_every=100))
    np.testing.assert_allclose(fan_rows[:, 2:6],
                               traj.q.reshape(len(traj.times), -1), atol=0.0)


def test_expmap_csv_of_a_fan_with_a_coalescing_member(tmp_path):
    # members at theta = 1.0472 and above coalesce; the rows of the others are the
    # per-sample rows (theta, t, q, p, H) the library's trajectories give
    cfg = {
        "kernel": {"family": "gaussian_curl_free", "b": 0.03125, "c": 16.0, "dim": 2},
        "landmarks": [[0.0, -0.05], [0.0, 0.05]],
        "expmap": {"magnitude": 60.0, "count": 7, "theta_min": 0.0,
                   "theta_max": math.pi / 2},
        "integrator": {"step": 0.001, "record_every": 100},
    }
    assert run(tmp_path, "expmap", cfg) == 0
    thetas = np.linspace(0.0, math.pi / 2, 7)
    k = cli.build_kernel(cfg["kernel"])
    fan = D.exp_map_fan(k, F.LandmarkConfig(cfg["landmarks"]), D.theta_momenta(60.0, thetas),
                        D.IntegratorConfig(step=0.001, record_every=100))
    assert [i for i, _ in fan.failures] == [4, 5, 6]
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["theta", "t", "q1_1", "q1_2", "q2_1", "q2_2",
                     "p1_1", "p1_2", "p2_1", "p2_2", "H"])
    for theta, traj in zip(thetas, fan.trajectories):
        for j, t in enumerate(traj.times if traj is not None else []):
            writer.writerow([float(v) for v in (theta, t, *traj.q[j].ravel(),
                                                *traj.p[j].ravel(), traj.hamiltonians[j])])
    assert (tmp_path / "expmap.csv").read_bytes() == want.getvalue().encode()


def test_expmap_svg_of_a_fan_whose_every_member_fails(tmp_path, capsys):
    # no member to draw: the run writes the header-only CSV and no SVG, and exits 3
    cfg = {
        "kernel": {"family": "gaussian", "c": 16.0, "b": 1.0 / 32.0, "dim": 2},
        "landmarks": [[0.0, 0.0], [0.0, 0.15]],
        "expmap": {"magnitude": 120.0, "count": 1, "theta_min": 1.5707963,
                   "theta_max": 1.5707963},
        "integrator": {"step": 0.01},
        "output": {"format": "svg"},
    }
    assert run(tmp_path, "expmap", cfg) == 3
    assert "trajectory 0 (theta=1.5708) failed" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "expmap.csv")
    assert header[:2] == ["theta", "t"] and rows.size == 0
    assert not (tmp_path / "expmap.svg").exists()


# --- hodge ------------------------------------------------------------------------

def test_hodge_command(tmp_path, capsys):
    cfg = {
        "kernel": {"family": "gaussian", "c": 1.0, "dim": 2},
        "hodge": {"r_min": 0.05, "r_max": 5.0, "n": 64},
        "output": {"format": "svg", "arrow_scale": 0.5},
    }
    assert run(tmp_path, "hodge", cfg) == 0
    header, rows = read_csv(tmp_path / "hodge.csv")
    assert header == ["r", "k1_par", "k1_perp", "k2_par", "k2_perp"]
    r = rows[:, 0]
    want = (1 - np.exp(-r ** 2)) / (2 * r ** 2)
    np.testing.assert_allclose(rows[:, 2], want, atol=1e-6)
    out = capsys.readouterr().out
    dev = float([l for l in out.splitlines() if "closed-form" in l][0].split("=")[-1])
    assert dev <= 1e-6
    ortho_line = [l for l in out.splitlines() if "orthogonality" in l][0]
    assert float(ortho_line.split("=")[-1]) <= 1e-4
    assert (tmp_path / "hodge_curl_free.svg").exists()
    assert (tmp_path / "hodge_div_free.svg").exists()


@pytest.mark.parametrize("kernel", [
    {"family": "gaussian", "c": 0.7, "dim": 3},
    {"family": "gaussian", "c": 1.3, "b": 0.5, "dim": 2},
], ids=["d3", "b-half"])
def test_hodge_closed_form_check_on_every_gaussian(tmp_path, capsys, kernel):
    assert run(tmp_path, "hodge", {"kernel": kernel, "hodge": {"n": 64}}) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "closed-form" in l]
    assert len(lines) == 1
    assert float(lines[0].split("=")[-1]) <= 1e-6


def test_hodge_div_free_input_has_tiny_curl_component(tmp_path):
    cfg = {
        "kernel": {"family": "gaussian_div_free", "b": 1.0, "c": 1.0, "dim": 2},
        "hodge": {"r_min": 0.1, "r_max": 4.0, "n": 32},
    }
    assert run(tmp_path, "hodge", cfg) == 0
    _, rows = read_csv(tmp_path / "hodge.csv")
    scale = np.max(np.abs(rows[:, 3:5]))
    assert np.max(np.abs(rows[:, 1:3])) <= 1e-6 * scale


def orthogonality_ratio(out):
    line = [l for l in out.splitlines() if "orthogonality" in l][0]
    return line.split("=")[-1].strip()


def test_hodge_orthogonality_reads_the_same_at_every_gaussian_width(tmp_path, capsys):
    ratios = []
    for c in (1.0, 1e-12):
        cfg = {"kernel": {"family": "gaussian", "c": c, "dim": 2}, "hodge": {"n": 16}}
        assert run(tmp_path, "hodge", cfg) == 0
        ratios.append(orthogonality_ratio(capsys.readouterr().out))
    assert ratios[0] == ratios[1]


def test_hodge_of_a_very_wide_div_free_gaussian(tmp_path, capsys):
    cfg = {"kernel": {"family": "gaussian_div_free", "b": 1.0, "c": 1e-150, "dim": 2},
           "hodge": {"n": 16}}
    assert run(tmp_path, "hodge", cfg) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert orthogonality_ratio(captured.out)


@pytest.mark.parametrize("command", ["hodge", "shoot"])
@pytest.mark.parametrize("sigma", [1e-200, 1e200])
def test_cauchy_width_beyond_the_float_range_is_input_error(tmp_path, capsys, command, sigma):
    # sigma^4 or 1/sigma^4 leaves the float range, so the profile's
    # coefficients cannot be formed
    cfg = {"kernel": {"family": "cauchy", "sigma": sigma, "dim": 2}}
    if command == "shoot":
        cfg.update(landmarks=[[0.0, 0.0], [0.5, 0.0]], momenta=[[0.0, 0.3], [0.0, -0.3]])
    assert run(tmp_path, command, cfg) == 2
    captured = capsys.readouterr()
    assert "bad kernel parameters" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["certify", "hodge", "shoot"])
def test_gaussian_width_beyond_the_float_range_is_input_error(tmp_path, capsys, command):
    # at c = 1e-310 the tail scale sqrt(48/c) overflows, and a kernel must state a finite one
    cfg = {"kernel": {"family": "gaussian", "c": 1e-310, "dim": 2}}
    if command == "shoot":
        cfg.update(landmarks=[[0.0, 0.0], [0.5, 0.0]], momenta=[[0.0, 0.3], [0.0, -0.3]])
    assert run(tmp_path, command, cfg) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: bad kernel parameters: tail_scale must be")
    assert "Traceback" not in captured.out + captured.err


SMALL_SHOOT = {"landmarks": [[0.0, 0.0], [0.0, 0.15]], "momenta": [[1.0, 0.0], [1.0, 0.0]],
               "integrator": {"step": 0.05, "record_every": 2}}


@pytest.mark.parametrize("command, kernel", [
    ("hodge", {"family": "gaussian", "c": 1e-300, "dim": 2}),
    ("hodge", {"family": "gaussian", "c": 1e300, "dim": 2}),
    ("hodge", {"family": "cauchy", "sigma": 1e77, "dim": 2}),
    ("hodge", {"family": "cauchy", "sigma": 1e-77, "dim": 2}),
    ("shoot", {"family": "example1", "a": 1e300, "b": 1e300, "c": 1.0, "dim": 2}),
    ("shoot", {"family": "gaussian_curl_free", "b": 1e300, "c": 1e300, "dim": 2}),
], ids=["hodge-gaussian-c1e-300", "hodge-gaussian-c1e300", "hodge-cauchy-sigma1e77",
        "hodge-cauchy-sigma1e-77", "shoot-example1-1e300", "shoot-curl-free-1e300"])
def test_overflow_or_invalid_value_at_the_float_range_edges_is_numerical_failure(
        tmp_path, capsys, command, kernel):
    # each run overflows or forms 0 * inf or inf - inf after the kernel is built;
    # the result would be a nan or a wrong ratio printed under exit 0
    cfg = {"kernel": kernel, **(SMALL_SHOOT if command == "shoot" else {})}
    assert run(tmp_path, command, cfg) == 3
    captured = capsys.readouterr()
    assert "numerical failure:" in captured.err
    assert "nan" not in captured.out
    assert "Traceback" not in captured.out + captured.err


HEAVY_SCIPY = ("scipy.special", "scipy.linalg", "scipy.interpolate")
SPECTRAL_COMMANDS = ("certify", "spectrum", "hodge")
COMMAND_BLOCKS = {
    "shoot": {"landmarks": [[0.0, 0.0], [0.5, 0.0]], "momenta": [[0.0, 0.3], [0.0, -0.3]],
              "integrator": {"step": 0.05},
              "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [5, 5]}},
    "certify": {"certify": {"n": 32}},
    "spectrum": {"spectrum": {"n": 32}},
    "hodge": {},
}


@pytest.mark.parametrize("kernel, commands, heavy", [
    ({"family": "gaussian", "b": 1.0, "c": 4.0, "dim": 2}, ("shoot",), HEAVY_SCIPY),
    ({"family": "gaussian_div_free", "b": 1.0, "c": 4.0, "dim": 2}, ("shoot",), HEAVY_SCIPY),
    ({"family": "gaussian", "c": 1.0, "dim": 2}, SPECTRAL_COMMANDS, ("scipy.interpolate",)),
    ({"family": "cauchy", "sigma": 1.0, "dim": 2}, SPECTRAL_COMMANDS, ("scipy.interpolate",)),
], ids=["gaussian", "gaussian_div_free", "spectral-gaussian", "spectral-cauchy"])
def test_gaussian_shoot_loads_no_heavy_scipy(tmp_path, kernel, commands, heavy):
    # scipy is imported on first use: neither the import of the CLI nor a
    # Gaussian shoot with a transported grid needs special, linalg or interpolate;
    # certify and spectrum read a spectrum's samples and the Hodge split tabulates
    # no spectrum, so none of the three loads interpolate (special may load there)
    for command in commands:
        cfg = {"kernel": kernel, **COMMAND_BLOCKS[command]}
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "from trikernels import cli\n"
        f"heavy = {heavy!r}\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, ('import', loaded)\n"
        "for command in sys.argv[2:]:\n"
        "    cfg = f'{sys.argv[1]}/{command}.json'\n"
        "    rc = cli.main([command, '--config', cfg, '--out', sys.argv[1] + '/out'])\n"
        "    loaded = [m for m in heavy if m in sys.modules]\n"
        "    assert rc == 0 and not loaded, (command, rc, loaded)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path), *commands],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
