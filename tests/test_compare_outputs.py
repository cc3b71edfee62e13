"""Self-test of tools/compare_outputs.py's report on synthetic digest records."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import compare_outputs  # noqa: E402


def record(workload, i, digest, ok=True, problems=(), **accuracy):
    return {"workload": workload, "seed": 0, "input": i, "ok": ok,
            "problems": list(problems), "digest": digest, "accuracy": accuracy}


def table(*records):
    return {(r["workload"], r["seed"], r["input"]): r for r in records}


def test_equal_digests_print_only_the_tallies(capsys):
    same = table(record("transport", 0, "a", h_drift_rel=1e-9))
    assert compare_outputs.compare(same, same) == 0
    assert capsys.readouterr().out.splitlines() == [
        "transport: 1/1 equal",
        "1/1 inputs pass their checks on both sides with equal output digests"]


def test_a_differing_digest_prints_both_sides_accuracy(capsys):
    parent = table(record("registration", 0, "a", h_drift_rel=2.5e-9, interp_residual=1e-12),
                   record("registration", 1, "b", interp_residual=3e-13))
    change = table(record("registration", 0, "c", h_drift_rel=2.5000001e-9, interp_residual=1e-12),
                   record("registration", 1, "b", interp_residual=3e-13))
    assert compare_outputs.compare(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "registration seed 0 input 0: output digest differs",
        "    parent accuracy: h_drift_rel 2.500e-09, interp_residual 1.000e-12",
        "    change accuracy: h_drift_rel 2.500e-09, interp_residual 1.000e-12",
        "registration: 1/2 equal",
        "1/2 inputs pass their checks on both sides with equal output digests"]


def test_a_failing_check_is_printed_without_accuracy(capsys):
    parent = table(record("spectral", 0, "a", spectrum_err=1e-8))
    change = table(record("spectral", 0, "b", ok=False, problems=["spectrum off"],
                          spectrum_err=1.0))
    assert compare_outputs.compare(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "spectral seed 0 input 0: check fails on the change: spectrum off",
        "spectral: 0/1 equal",
        "0/1 inputs pass their checks on both sides with equal output digests"]
