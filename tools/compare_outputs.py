"""Compare the benchmark workloads' output digests, and the demos' and
README's outputs, of two trees.

    python3 tools/compare_outputs.py --parent-rev HEAD [--change-rev REV]

Each side runs inputs 0-11 of seeds 0 and 99991 of every workload through
perfbench's own ``run.run_one`` (the same prepare, execute and check as a
benchmark run), then its six demos, README's ``shoot`` config and README's
library example, each script in a fresh directory against the tree's own
``src/``; one subprocess per tree, and the two trees run at the same time.
The parent is exported with ``git archive`` into a temporary directory; the
change is the working tree this file sits in, or ``--change-rev`` exported
the same way.  Every input whose check fails on either side, or whose output
digest differs between the sides, is printed; an input whose digest differs
is followed by both sides' worst accuracy values (``Outcome.accuracy``, e.g.
``h_drift_rel`` and ``interp_residual``), so a rounding-level move reads
apart from a real one.  Every script that exits non-zero on either side is
printed, and so is every output of a script (its stdout or a file it wrote)
that differs between the sides or that one side alone wrote, by name.  Exit
status 1 if any input or script is printed, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
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


# runs a demo file or, for "trikernels", the CLI, with the tree's src/ first
# on sys.path: python -c BOOT SRC TARGET ARGS...
BOOT = """
import runpy, sys
from pathlib import Path
src, target, *args = sys.argv[1:]
sys.path.insert(0, src)
import trikernels
if Path(trikernels.__file__).resolve().parent != Path(src, "trikernels").resolve():
    sys.exit(f"trikernels imported from {trikernels.__file__}, not {src}")
sys.argv = [target, *args]
if target == "trikernels":
    from trikernels.cli import main
    sys.exit(main())
runpy.run_path(target, run_name="__main__")
"""


def script_outputs(tree: Path) -> list[dict]:
    """Exit status and the digests of the stdout and the written files of the
    six demos, README's shoot config and its library example, run in `tree`."""
    readme = (tree / "README.md").read_text()
    inputs = {demo.stem: {demo.name: demo.read_text()}
              for demo in sorted((tree / "demos").glob("0*.py"))}
    # README's blocks, found as CI finds them
    inputs["readme_shoot"] = {"shoot.json": re.search(
        r"A config for `shoot`:\n\n```json\n(.*?)```", readme, re.S).group(1)}
    inputs["readme_library_example"] = {"example.py": re.search(
        r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)}
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, files in inputs.items():
            work = Path(tmp) / name
            work.mkdir()
            for file, text in files.items():
                (work / file).write_text(text)
            target = (["trikernels", "shoot", "--config", "shoot.json", "--out", "out"]
                      if name == "readme_shoot" else list(files))
            res = subprocess.run([sys.executable, "-c", BOOT, str(tree / "src"), *target],
                                 cwd=work, capture_output=True, text=True, timeout=600)
            outputs = {"stdout": res.stdout.encode()}
            for f in sorted(work.rglob("*")):
                rel = f.relative_to(work).as_posix()
                if f.is_file() and rel not in files:
                    outputs[rel] = f.read_bytes()
            out.append({"script": name, "ok": res.returncode == 0,
                        "problems": res.stderr.strip().splitlines()[-1:],
                        "outputs": {k: hashlib.sha256(v).hexdigest()
                                    for k, v in outputs.items()}})
    return out


def start(tree: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--digests-of", str(tree)], cwd=tree,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, side: str) -> tuple[dict, dict]:
    """A tree's workload records by (workload, seed, input) and script records by name."""
    stdout, stderr = proc.communicate(timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{side} run failed ({proc.returncode}): {stderr.strip()[-800:]}")
    records = json.loads(stdout.strip().splitlines()[-1])
    return ({(r["workload"], r["seed"], r["input"]): r for r in records["workloads"]},
            {r["script"]: r for r in records["scripts"]})


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


def compare_scripts(parent: dict, change: dict) -> int:
    """Print every script that fails or did not run on either side, and by name
    every output that differs or that one side alone wrote, then the tally."""
    names = sorted(parent.keys() | change.keys())
    equal = 0
    for name in names:
        sides = {"parent": parent.get(name), "change": change.get(name)}
        problems = [f"fails on the {side}: {'; '.join(r['problems'])}"
                    for side, r in sides.items() if r is not None and not r["ok"]]
        problems += [f"not run on the {side}" for side, r in sides.items() if r is None]
        if not problems:
            old, new = sides["parent"]["outputs"], sides["change"]["outputs"]
            for out in sorted(old.keys() | new.keys()):
                if out not in new or out not in old:
                    problems.append(f"{out} written on the {'parent' if out in old else 'change'}"
                                    " only")
                elif old[out] != new[out]:
                    problems.append(f"{out} differs")
        for line in problems:
            print(f"{name}: {line}")
        equal += not problems
    print(f"{equal}/{len(names)} scripts exit 0 on both sides with equal stdout and files")
    return 0 if equal == len(names) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent-rev", help="git revision of the parent")
    ap.add_argument("--change-rev", help="git revision of the change (default: the working tree)")
    ap.add_argument("--digests-of", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.digests_of is not None:
        tree = args.digests_of.resolve()
        print(json.dumps({"workloads": digests(tree), "scripts": script_outputs(tree)}))
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
    return max(compare(parent[0], change[0]), compare_scripts(parent[1], change[1]))


if __name__ == "__main__":
    sys.exit(main())
