"""Compare the benchmark workloads' output digests, and the demos' and
README's outputs, of two trees.

    python3 tools/compare_outputs.py --parent-rev HEAD [--change-rev REV]

Each side runs inputs 0-11 of seeds 0 and 99991 of every workload through
the workload's own prepare, execute and check, as perfbench's ``run.run_one``
runs a benchmark experiment, then its six demos, README's ``shoot`` config and
README's library example, each script in a fresh directory against the tree's
own ``src/``; one subprocess per tree, and the two trees run at the same time.
Each side keeps every output a digest covers: the files of a workload run
and of a script, a script's stdout, ``certify``'s stdout of a spectral run,
and the in-process arrays (spectral's Hodge table; registration's momenta,
q, p, H and field values).
The parent is exported with ``git archive`` into a temporary directory; the
change is the working tree this file sits in, or ``--change-rev`` exported
the same way.  Every input whose check fails on either side, or whose output
digest differs between the sides, is printed; an input whose digest differs
is followed by both sides' worst accuracy values (``Outcome.accuracy``, e.g.
``h_drift_rel`` and ``interp_residual``), so a rounding-level move reads
apart from a real one.  Every script that exits non-zero on either side is
printed.  Of an input whose digest differs, and of a script, every output
that differs between the sides or that one side alone wrote is named, with
what moved: for a CSV or an array, each differing column's count of
differing rows and its maximum absolute and relative difference; for an SVG,
a stdout or any other text, the first differing line of each side.  Exit
status 1 if any input or script is printed, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 99991)
INPUTS = 12


# the in-process outputs each workload's digest covers, by name, from the value
# its execute returned; every file of the run is an output too
IN_PROCESS = {
    "spectral": lambda raw: {"certify_stdout.txt": raw[0][1].encode(), "hodge_table": raw[2]},
    "registration": lambda raw: {"momenta": raw[0].momenta.vectors, "q": raw[1].q,
                                 "p": raw[1].p, "H": raw[1].hamiltonians,
                                 "field_values": raw[2]},
}


def keep(outputs: dict, dest: Path) -> dict:
    """Write each output, bytes or an array (as NAME.npy), under dest; their
    digests by file name."""
    import numpy as np  # only here: a workload run pins BLAS to one thread before numpy loads

    kept = {}
    for name, value in outputs.items():
        if not isinstance(value, bytes):
            buf = io.BytesIO()
            np.save(buf, value)
            name, value = name + ".npy", buf.getvalue()
        path = dest / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(value)
        kept[name] = hashlib.sha256(value).hexdigest()
    return kept


def digests(tree: Path, kept: Path) -> list[dict]:
    """Check outcome, output digest and kept outputs of every input, run in
    `tree`'s checkout."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run  # pins BLAS to one thread before numpy loads, as a benchmark run does
    run.load_library()
    import workloads
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, w in workloads.WORKLOADS.items():
            for seed in SEEDS:
                for i in range(INPUTS):
                    inp, raw = w.make_input(seed, i), None
                    w.prepare(inp, work)
                    try:
                        raw = w.execute(inp, work)
                        o = w.check(inp, work, raw)
                    except Exception:
                        o = workloads.Outcome(ok=False, problems=[traceback.format_exc()])
                    outputs = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
                    if raw is not None and name in IN_PROCESS:
                        outputs.update(IN_PROCESS[name](raw))
                    dest = kept / "workloads" / f"{name}-{seed}-{i}"
                    # a problem's last line: the message, or a traceback's exception
                    problems = [p.strip().splitlines()[-1][:200] for p in o.problems if p.strip()]
                    out.append({"workload": name, "seed": seed, "input": i, "ok": o.ok,
                                "problems": problems, "digest": o.digest,
                                "accuracy": o.accuracy, "dir": str(dest),
                                "outputs": keep(outputs, dest)})
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


def script_outputs(tree: Path, kept: Path) -> list[dict]:
    """Exit status and the digests of the stdout and the written files of the
    six demos, README's shoot config and its library example, run in `tree`;
    the outputs are kept under `kept`."""
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
            dest = kept / "scripts" / name
            out.append({"script": name, "ok": res.returncode == 0,
                        "problems": res.stderr.strip().splitlines()[-1:], "dir": str(dest),
                        "outputs": keep(outputs, dest)})
    return out


def start(tree: Path, kept: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--digests-of", str(tree), str(kept)],
                            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, side: str) -> tuple[dict, dict]:
    """A tree's workload records by (workload, seed, input) and script records by name."""
    stdout, stderr = proc.communicate(timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{side} run failed ({proc.returncode}): {stderr.strip()[-800:]}")
    records = json.loads(stdout.strip().splitlines()[-1])
    return ({(r["workload"], r["seed"], r["input"]): r for r in records["workloads"]},
            {r["script"]: r for r in records["scripts"]})


def column_lines(name: str, labels: list[str], old, new) -> list[str]:
    """Each differing column of two (rows, columns) tables, under its label:
    its count of differing rows and its maximum absolute and relative
    difference (|a - b| / max(|a|, |b|) entry by entry)."""
    import numpy as np

    if old.shape != new.shape:
        return [f"{name}: shape {old.shape} on the parent, {new.shape} on the change"]
    lines = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for label, a, b in zip(labels, old.T, new.T):
            moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
            if moved.any():
                a, b = a[moved], b[moved]
                diff = np.abs(a - b)
                rel = diff / np.maximum(np.abs(a), np.abs(b))
                lines.append(f"{label}: {moved.sum()} of {len(moved)} rows differ, "
                             f"max abs {np.max(diff):.3e}, max rel {np.max(rel):.3e}")
    return lines


def excerpt(line: str, at: int, width: int = 100) -> str:
    """At most `width` characters of a line, starting a little before column `at`."""
    start = max(0, at - width // 4)
    return ("..." if start else "") + line[start:start + width] + \
        ("..." if start + width < len(line) else "")


def output_lines(name: str, old: Path, new: Path) -> list[str]:
    """What moved between the two sides' copies of one output: the columns of
    an array (NAME.npy, columns along its last axis) or of a CSV, or else the
    first differing line of each side."""
    import numpy as np

    if name.endswith(".npy"):
        label = name[:-len(".npy")]
        a, b = np.load(old), np.load(new)
        if a.shape != b.shape:
            return [f"{label}: shape {a.shape} on the parent, {b.shape} on the change"]
        a, b = (v.reshape(-1, v.shape[-1]) if v.ndim > 1 else v.reshape(-1, 1) for v in (a, b))
        labels = [label] if a.shape[1] == 1 else [f"{label} column {j}" for j in range(a.shape[1])]
        return column_lines(label, labels, a, b)
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    if name.endswith(".csv") and a[:1] == b[:1]:
        try:
            tables = [np.loadtxt(rows[1:], delimiter=",", ndmin=2) for rows in (a, b)]
        except ValueError:         # not a numeric table: compare its lines
            tables = None
        if tables is not None:
            return column_lines(name, [f"{name} {c}" for c in a[0].split(",")], *tables)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    if i == len(a) == len(b):
        return [f"{name}: equal lines, different bytes"]
    x, y = (text[i] if i < len(text) else None for text in (a, b))
    at = next((j for j, (u, v) in enumerate(zip(x or "", y or "")) if u != v),
              min(len(x or ""), len(y or "")))
    return [f"{name} line {i + 1} on the {side}: {excerpt(line, at)}" if line is not None
            else f"{name} on the {side} ends after line {i}"
            for side, line in (("parent", x), ("change", y))]


def moved_outputs(old: dict, new: dict) -> list[tuple[str, list[str]]]:
    """Each output that one side alone wrote or that differs, by name, with
    what moved in the latter."""
    moved = []
    for out in sorted(old["outputs"].keys() | new["outputs"].keys()):
        if out not in new["outputs"] or out not in old["outputs"]:
            side = "parent" if out in old["outputs"] else "change"
            moved.append((f"{out} written on the {side} only", []))
        elif old["outputs"][out] != new["outputs"][out]:
            moved.append((f"{out} differs",
                          output_lines(out, Path(old["dir"], out), Path(new["dir"], out))))
    return moved


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
            for line, details in moved_outputs(*sides.values()):
                for detail in details or [line]:
                    print(f"    {detail}")
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
    every output that differs, with what moved, or that one side alone wrote,
    then the tally."""
    names = sorted(parent.keys() | change.keys())
    equal = 0
    for name in names:
        sides = {"parent": parent.get(name), "change": change.get(name)}
        problems = [f"fails on the {side}: {'; '.join(r['problems'])}"
                    for side, r in sides.items() if r is not None and not r["ok"]]
        problems += [f"not run on the {side}" for side, r in sides.items() if r is None]
        moved = [] if problems else moved_outputs(*sides.values())
        for line in problems:
            print(f"{name}: {line}")
        for line, details in moved:
            print(f"{name}: {line}")
            for detail in details:
                print(f"    {detail}")
        equal += not problems and not moved
    print(f"{equal}/{len(names)} scripts exit 0 on both sides with equal stdout and files")
    return 0 if equal == len(names) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent-rev", help="git revision of the parent")
    ap.add_argument("--change-rev", help="git revision of the change (default: the working tree)")
    ap.add_argument("--digests-of", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.digests_of is not None:        # a tree, and where its outputs are kept
        tree, kept = (p.resolve() for p in args.digests_of)
        print(json.dumps({"workloads": digests(tree, kept),
                          "scripts": script_outputs(tree, kept)}))
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
        procs = [start(parent_dir, Path(tmp) / "kept-parent"),
                 start(change_dir, Path(tmp) / "kept-change")]
        try:
            parent, change = (collect(p, side) for p, side in zip(procs, ("parent", "change")))
        finally:
            for proc in procs:
                proc.kill()  # a no-op once it has exited
        return max(compare(parent[0], change[0]), compare_scripts(parent[1], change[1]))


if __name__ == "__main__":
    sys.exit(main())
