"""Command-line interface: exit codes, artifacts, and CSV round-trips."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trikernels import cli
from trikernels import dynamics as D
from trikernels import fields as F
from trikernels import kernels as K


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


# one valid kernel block per family; each numeric field is poisoned in turn
VALID_KERNELS = {
    "gaussian": {"c": 1.0, "b": 1.0},
    "cauchy": {"sigma": 1.0},
    "bessel": {"sigma": 1.0, "ell": 2.0},
    "example1": {"a": 1.5, "b": 1.0, "c": 1.0},
    "example2": {"a": 1.5, "b": 1.0, "c": 1.0},
    "gaussian_curl_free": {"b": 1.0, "c": 1.0},
    "gaussian_div_free": {"b": 1.0, "c": 1.0},
    "bessel_curl_free": {"sigma": 1.0, "ell": 2.0},
    "bessel_div_free": {"sigma": 1.0, "ell": 2.0},
}


@pytest.mark.parametrize("command", ["certify", "spectrum", "hodge"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("family", sorted(VALID_KERNELS))
def test_non_finite_kernel_parameter_is_input_error(tmp_path, capsys, family, bad, command):
    for name in [*VALID_KERNELS[family], "dim"]:
        kernel = {"family": family, "dim": 2, **VALID_KERNELS[family], name: bad}
        assert run(tmp_path, command, {"kernel": kernel}) == 2, name
        captured = capsys.readouterr()
        assert "must be a finite number" in captured.err
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
    k = K.gaussian_kernel(16.0, 2, amplitude=0.03125)
    for row in rows[:: max(1, len(rows) // 5)]:
        q = row[1:5].reshape(2, 2)
        p = row[5:9].reshape(2, 2)
        h = D.hamiltonian(k, D.PhaseState(q, p, row[0]))
        assert abs(h - row[-1]) <= 1e-12 * max(1.0, abs(row[-1]))
    out = capsys.readouterr().out
    drift = float([l for l in out.splitlines() if "max |H - H(0)|" in l][0].split("=")[-1])
    assert drift <= 1e-6


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
    k = K.gaussian_kernel(16.0, 2, amplitude=0.03125)
    q0 = F.LandmarkConfig(np.array([[0.0, -0.125], [0.0, 0.125]]))
    p0 = F.MomentaSet(D.theta_momenta(50.0, [0.3])[0])
    traj = D.shoot(k, q0, p0, D.IntegratorConfig(step=2e-3, record_every=100))
    np.testing.assert_allclose(fan_rows[:, 2:6],
                               traj.q.reshape(len(traj.times), -1), atol=0.0)


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


def test_hodge_div_free_input_has_tiny_curl_component(tmp_path):
    cfg = {
        "kernel": {"family": "gaussian_div_free", "b": 1.0, "c": 1.0, "dim": 2},
        "hodge": {"r_min": 0.1, "r_max": 4.0, "n": 32},
    }
    assert run(tmp_path, "hodge", cfg) == 0
    _, rows = read_csv(tmp_path / "hodge.csv")
    scale = np.max(np.abs(rows[:, 3:5]))
    assert np.max(np.abs(rows[:, 1:3])) <= 1e-6 * scale
