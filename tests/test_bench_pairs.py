"""Self-test of tools/bench_pairs.py's per-set summary on synthetic reports."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

BENCH = {"end_to_end": [{"name": "experiment_s_p50", "better": "lower", "bound": 0.25}]}


def report(p50, kinds):
    return {"result": {"attempted": 9, "failed": 0,
                       "metrics": {"experiment_s_p50": {"value": p50}}},
            "summary": {"kind_s_p50": kinds}}


def test_a_set_reports_each_kinds_median_on_both_sides():
    runs = [(report(0.06, {"gaussian-N36": 0.02, "gaussian-N100": 0.10}),
             report(0.05, {"gaussian-N36": 0.02, "gaussian-N100": 0.08})),
            (report(0.07, {"gaussian-N36": 0.04, "gaussian-N100": 0.12}),
             report(0.05, {"gaussian-N36": 0.03, "gaussian-N100": 0.06})),
            (report(0.06, {"gaussian-N36": 0.03, "gaussian-N100": 0.11}),
             report(0.06, {"gaussian-N36": 0.05, "gaussian-N100": 0.07}))]
    out = bench_pairs.summarize_set(runs, BENCH)
    assert out["kind_s_p50"] == {
        "gaussian-N100": {"parent": 0.11, "change": 0.07, "median_ratio_change_over_parent": 0.6364},
        "gaussian-N36": {"parent": 0.03, "change": 0.03, "median_ratio_change_over_parent": 1.0}}
    assert out["metrics"]["experiment_s_p50"]["change_wins"] == "2/3"
