"""Paired parent/change benchmark runs, written as a BENCH_<pr>.json file.

    python3 tools/bench_pairs.py --pr 3 --parent-rev HEAD~1 \
        --set spectral:0:10 --set transport:0:10 --set registration:0:10 \
        --set transport:99991:5 --traced transport --tier1

The parent commit is exported with ``git archive`` into a temporary
directory, removed at the end; the change is the working tree this file
sits in.  For each ``--set WORKLOAD:SEED:PAIRS`` the script runs
``perfbench/run.py --trace 0``, at the benchmark's own run length, on
both sides in alternating pairs (odd pairs run the parent first, even
pairs the change first), one process at a time.  Each ``--traced``
workload gets one ``--trace 1`` run per side, and ``--tier1`` times the
test suite once per side.  The output file is rewritten after every run,
so an interrupted run still leaves every finished pair on disk.  The file
also records the line counts of ``src/trikernels/*.py`` and of
``tests/*.py`` on both sides and their net changes.

Each metric of a set reports both sides' runs, median and quartiles, the
number of pairs the change won (ties count for neither side), the ratio
of the medians, the parent's interquartile range, and two verdicts taken
from BENCHMARK.json: ``gain`` (wins in at least nine tenths of the pairs
and a median difference larger than the parent's IQR) and ``within_bound``
(the change's median is no worse than the parent's by more than the
metric's bound).  Each set also reports, per experiment kind, both sides'
median of the report's ``summary.kind_s_p50`` and their ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def export_parent(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into `dest` (no git metadata, no worktree)."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_digest(root: Path) -> str:
    """sha256 over src/**/*.py in sorted order, as perfbench/run.py reports it."""
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(f.read_bytes())
    return h.hexdigest()


def line_counts(parent: Path, change: Path, folder: str) -> dict:
    """Lines of folder/*.py on both sides and the net change."""
    lines = {side: sum(len(f.read_text().splitlines()) for f in (root / folder).glob("*.py"))
             for side, root in (("parent", parent), ("change", change))}
    return {**lines, "net": lines["change"] - lines["parent"], "note": f"lines of {folder}/*.py"}


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; returns the report with its result attached."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed ({res.returncode}): "
                           f"{res.stderr.strip()[-800:]}")
    report = json.loads(lines[-2])
    report["result"] = json.loads(lines[-1])
    return report


def run_tier1(root: Path) -> dict:
    t0 = time.perf_counter()
    res = subprocess.run(TIER1, cwd=root, capture_output=True, text=True, timeout=1800,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    wall = time.perf_counter() - t0
    tail = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"summary": tail, "wall_s": round(wall, 1), **counts}


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(float(v), 6) for v in values]}


def summarize_set(runs: list[tuple[dict, dict]], bench: dict) -> dict:
    """Per-metric comparison of the (parent, change) reports of one set."""
    out = {"pairs": len(runs),
           "attempted": {side: sum(r[i]["result"]["attempted"] for r in runs)
                         for i, side in enumerate(("parent", "change"))},
           "failed": {side: sum(r[i]["result"]["failed"] for r in runs)
                      for i, side in enumerate(("parent", "change"))},
           "metrics": {}}
    for spec in bench["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        par = [r[0]["result"]["metrics"][name]["value"] for r in runs]
        chg = [r[1]["result"]["metrics"][name]["value"] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        qp, qc = quartiles(par), quartiles(chg)
        iqr = qp["q3"] - qp["q1"]
        diff = (qp["median"] - qc["median"]) if lower else (qc["median"] - qp["median"])
        worse = -diff / qp["median"] if qp["median"] else 0.0
        out["metrics"][name] = {
            "better": spec["better"], "parent": qp, "change": qc,
            "change_wins": f"{wins}/{len(runs)}",
            "median_ratio_change_over_parent": round(qc["median"] / qp["median"], 4)
            if qp["median"] else None,
            "parent_iqr": round(iqr, 6),
            "gain": wins >= 0.9 * len(runs) and diff > iqr,
            "within_bound": worse <= spec["bound"],
        }
    out["kind_s_p50"] = kind_medians(runs)
    return out


def kind_medians(runs: list[tuple[dict, dict]]) -> dict:
    """Per kind, each side's median over its runs of the report's
    `summary.kind_s_p50`, and the ratio of the change's median to the
    parent's.  A run covers whole rotations, so every run has every kind."""
    out = {}
    for kind in sorted(runs[0][0]["summary"]["kind_s_p50"]):
        par, chg = (float(np.median([r[i]["summary"]["kind_s_p50"][kind] for r in runs]))
                    for i in (0, 1))
        out[kind] = {"parent": round(par, 6), "change": round(chg, 6),
                     "median_ratio_change_over_parent": round(chg / par, 4) if par else None}
    return out


def traced_layers(report: dict) -> dict:
    metrics = {k: round(v["value"], 6) for k, v in report["result"]["metrics"].items()}
    summary = report["summary"]
    metrics.update(experiments=summary["experiments"], failed=report["result"]["failed"],
                   untraced_experiment_s_p50=round(summary["untraced_experiment_s_p50"], 6),
                   output_mismatches=len(summary["output_mismatches"]),
                   accuracy_worst=summary["accuracy_worst"])
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", required=True, help="suffix of the BENCH_<pr>.json file")
    ap.add_argument("--parent-rev", required=True, help="git revision of the parent")
    ap.add_argument("--set", action="append", default=[], dest="sets",
                    metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    ap.add_argument("--tier1", action="store_true", help="time the test suite once per side")
    ap.add_argument("--change", default="", help="one-line description of the change")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_path = ROOT / f"BENCH_{args.pr}.json"
    doc = {"change": args.change, "parent_rev": args.parent_rev}
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        export_parent(args.parent_rev, parent_dir)
        sides = (parent_dir, ROOT)
        doc.update(
            method="perfbench/run.py --trace 0 on the parent commit and on the change, "
                   "each from its own checkout, run one after the other on the same host; "
                   "odd pairs run the parent first, even pairs the change first. Times are "
                   "the benchmark's probe-calibrated seconds. Quartiles are numpy "
                   "percentiles 25/50/75 over the runs of one side.",
            src_sha256={"parent": src_digest(parent_dir), "change": src_digest(ROOT)},
            src_lines=line_counts(parent_dir, ROOT, "src/trikernels"),
            test_lines=line_counts(parent_dir, ROOT, "tests"),
            workloads={}, notes=args.note)

        def save():
            out_path.write_text(json.dumps(doc, indent=1) + "\n")

        for spec in args.sets:
            workload, seed, pairs = spec.split(":")
            key = f"{workload} seed {seed}"
            runs = []
            for i in range(int(pairs)):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                pair = [None, None]
                for side in order:
                    pair[side] = run_bench(sides[side], workload, int(seed), 0)
                runs.append(tuple(pair))
                env = pair[1]["environment"]
                doc["environment"] = {k: env[k] for k in (
                    "nproc", "affinity_cpus", "python", "numpy", "scipy", "blas",
                    "blas_threads_queried")}
                doc["workloads"][key] = summarize_set(runs, bench)
                save()
                print(f"{key}: pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)
        for workload in args.traced:
            reports = [run_bench(side, workload, 0, 1) for side in sides]
            doc[f"traced_{workload}_per_experiment"] = {
                "command": f"perfbench/run.py --workload {workload} --seed 0 --trace 1",
                "parent": traced_layers(reports[0]), "change": traced_layers(reports[1])}
            save()
        if args.tier1:
            doc["tier1"] = {"command": " ".join(TIER1),
                            "parent": run_tier1(parent_dir), "change": run_tier1(ROOT)}
        save()
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
