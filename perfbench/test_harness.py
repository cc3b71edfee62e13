"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Checks that a seed fixes every input byte for byte, that tracing leaves
outputs unchanged, that self time and absent bindings are accounted as
documented, and the tail-percentile rule.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    for i in range(w.rotation + 1):
        a, b = w.make_input(7, i), w.make_input(7, i)
        assert workloads.config_bytes(a) == workloads.config_bytes(b)
        assert w.configs(a) == w.configs(b)
    assert workloads.config_bytes(w.make_input(7, 0)) != workloads.config_bytes(w.make_input(8, 0))


@pytest.mark.parametrize("name", NAMES)
def test_traced_experiment_matches_untraced(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inp = w.make_input(0, 0)
    _, plain = run.run_one(w, inp, tmp_path)
    rec = tracing.Recorder()
    with rec:
        rec.experiment = 0
        _, traced = run.run_one(w, inp, tmp_path, rec)
    assert plain.ok, plain.problems
    assert traced.ok, traced.problems
    assert plain.digest == traced.digest
    assert len(rec.start) > 0
    assert not rec._saved, "bindings restored after the traced phase"


def test_self_time_excludes_children():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()
        return sum(range(20000))

    rec.wrap("outer", outer_body)()
    a = rec.arrays()
    outer = a["name"] == rec.names.index("outer")
    kids = a["name"] == rec.names.index("inner")
    assert a["parent"][kids].tolist() == [0, 0]
    assert a["self"][outer][0] == pytest.approx(a["dur"][outer][0] - a["dur"][kids].sum())


def test_missing_binding_is_absent_not_zero(monkeypatch):
    import trikernels.fields
    monkeypatch.delattr(trikernels.fields, "eval_matrix")
    rec = tracing.Recorder()
    with rec:
        pass
    metrics, absent = tracing.layer_metrics(rec, 1, run.RHS_SIZES)
    assert "kernels.eval_matrix.calls" in absent
    assert "kernels.eval_matrix.calls" not in metrics
    assert metrics["fields.cho_factor.s"] == (0.0, "s")


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    p, v = run.tail(times)
    assert p == 76 and v == pytest.approx(29.64)
    assert sum(t > v for t in times) == 10
