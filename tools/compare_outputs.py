"""Compare the benchmark workloads' output digests of two trees.

    python3 tools/compare_outputs.py --parent-rev HEAD [--change-rev REV]

Each side runs inputs 0-11 of seeds 0 and 99991 of every workload through
perfbench's own ``run.run_one`` (the same prepare, execute and check as a
benchmark run), in one subprocess per tree; the two trees run at the same
time.  The parent is exported with ``git archive`` into a temporary
directory; the change is the working tree this file sits in, or
``--change-rev`` exported the same way.  Every input whose check fails on
either side, or whose output digest differs between the sides, is printed;
an input whose digest differs is followed by both sides' worst accuracy
values (``Outcome.accuracy``, e.g. ``h_drift_rel`` and ``interp_residual``),
so a rounding-level move reads apart from a real one.  Exit status 1 if
there is any such input, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 99991)
INPUTS = 12


def digests(tree: Path) -> list[dict]:
    """Check outcome and output digest of every input, run in `tree`'s checkout."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run  # pins BLAS to one thread before numpy loads, as a benchmark run does
    run.load_library()
    import workloads
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in workloads.WORKLOADS.items():
            for seed in SEEDS:
                for i in range(INPUTS):
                    _, o = run.run_one(w, w.make_input(seed, i), Path(tmp))
                    # a problem's last line: the message, or a traceback's exception
                    problems = [p.strip().splitlines()[-1][:200] for p in o.problems if p.strip()]
                    out.append({"workload": name, "seed": seed, "input": i, "ok": o.ok,
                                "problems": problems, "digest": o.digest,
                                "accuracy": o.accuracy})
    return out


def start(tree: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--digests-of", str(tree)], cwd=tree,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, side: str) -> dict:
    stdout, stderr = proc.communicate(timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{side} run failed ({proc.returncode}): {stderr.strip()[-800:]}")
    return {(r["workload"], r["seed"], r["input"]): r
            for r in json.loads(stdout.strip().splitlines()[-1])}


def accuracy_line(record: dict) -> str:
    """A record's worst accuracy values as 'name value' pairs, sorted by name."""
    return ", ".join(f"{k} {v:.3e}" for k, v in sorted(record["accuracy"].items())) or "none"


def compare(parent: dict, change: dict) -> int:
    """Print every failing check and differing digest, with both sides' worst
    accuracy values for the latter, then per-workload tallies."""
    tally: dict[str, list[int]] = {}
    for key in sorted(parent.keys() | change.keys()):
        sides = {"parent": parent.get(key), "change": change.get(key)}
        problems = [f"check fails on the {side}: {'; '.join(r['problems'])}"
                    for side, r in sides.items() if r is not None and not r["ok"]]
        problems += [f"not run on the {side}" for side, r in sides.items() if r is None]
        moved = not problems and sides["parent"]["digest"] != sides["change"]["digest"]
        if moved:
            problems.append("output digest differs")
        for line in problems:
            print(f"{key[0]} seed {key[1]} input {key[2]}: {line}")
        if moved:
            for side, r in sides.items():
                print(f"    {side} accuracy: {accuracy_line(r)}")
        counts = tally.setdefault(key[0], [0, 0])
        counts[0] += not problems
        counts[1] += 1
    for name, (equal, total) in tally.items():
        print(f"{name}: {equal}/{total} equal")
    equal, total = (sum(c[i] for c in tally.values()) for i in (0, 1))
    print(f"{equal}/{total} inputs pass their checks on both sides with equal output digests")
    return 0 if equal == total else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent-rev", help="git revision of the parent")
    ap.add_argument("--change-rev", help="git revision of the change (default: the working tree)")
    ap.add_argument("--digests-of", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.digests_of is not None:
        print(json.dumps(digests(args.digests_of.resolve())))
        return 0
    if args.parent_rev is None:
        ap.error("--parent-rev is required")

    from bench_pairs import export_parent
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir, change_dir = Path(tmp) / "parent", Path(tmp) / "change"
        parent_dir.mkdir()
        export_parent(args.parent_rev, parent_dir)
        if args.change_rev is None:
            change_dir = ROOT
        else:
            change_dir.mkdir()
            export_parent(args.change_rev, change_dir)
        procs = [start(parent_dir), start(change_dir)]
        try:
            parent, change = (collect(p, side) for p, side in zip(procs, ("parent", "change")))
        finally:
            for proc in procs:
                proc.kill()  # a no-op once it has exited
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main())
