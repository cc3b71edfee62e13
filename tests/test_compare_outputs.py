"""Self-test of tools/compare_outputs.py: its reports on synthetic records, the
values it names when an output moves, and the script records of a stand-in
tree."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import compare_outputs  # noqa: E402


def record(workload, i, digest, ok=True, problems=(), **accuracy):
    return {"workload": workload, "seed": 0, "input": i, "ok": ok,
            "problems": list(problems), "digest": digest, "accuracy": accuracy,
            "dir": "", "outputs": {}}


def kept(tmp_path, side, rec, outputs):
    """rec with `outputs` (bytes or arrays) kept under tmp_path / side."""
    dest = tmp_path / side / (rec.get("script") or f"{rec['workload']}-{rec['input']}")
    return {**rec, "dir": str(dest), "outputs": compare_outputs.keep(outputs, dest)}


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


CSV = "t,q1,H\r\n0.0,1.0,2.0\r\n0.5,1.5,3.0\r\n"
SVG = "<svg>\n<path d='M 0 0 L 1 1'/>\n</svg>\n"


def test_a_differing_digest_names_each_moved_column_and_line(tmp_path, capsys):
    # the last H moves in a CSV and in an in-process array, one entry of a
    # (rows, N, d) array moves in its second coordinate, an SVG path moves and
    # a file appears; the unchanged outputs are not named
    parent = {"trajectory.csv": CSV.encode(), "trajectory.svg": SVG.encode(),
              "config.json": b"{}", "H": np.array([2.0, 3.0]), "q": np.zeros((2, 3, 2))}
    q = np.zeros((2, 3, 2))
    q[1, 2, 1] = -1e-12
    change = {"trajectory.csv": CSV.replace("3.0\r", "3.000000003\r").encode(),
              "trajectory.svg": SVG.replace("L 1 1", "L 1 2").encode(), "config.json": b"{}",
              "H": np.array([2.0, 3.000000003]), "q": q, "new.csv": b"a\r\n1.0\r\n"}
    old = kept(tmp_path, "parent", record("transport", 0, "a", h_drift_rel=1e-9), parent)
    new = kept(tmp_path, "change", record("transport", 0, "b", h_drift_rel=2e-9), change)
    assert compare_outputs.compare(table(old), table(new)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "transport seed 0 input 0: output digest differs",
        "    parent accuracy: h_drift_rel 1.000e-09",
        "    change accuracy: h_drift_rel 2.000e-09",
        "    H: 1 of 2 rows differ, max abs 3.000e-09, max rel 1.000e-09",
        "    new.csv written on the change only",
        "    q column 1: 1 of 6 rows differ, max abs 1.000e-12, max rel 1.000e+00",
        "    trajectory.csv H: 1 of 2 rows differ, max abs 3.000e-09, max rel 1.000e-09",
        "    trajectory.svg line 2 on the parent: <path d='M 0 0 L 1 1'/>",
        "    trajectory.svg line 2 on the change: <path d='M 0 0 L 1 2'/>",
        "transport: 0/1 equal",
        "0/1 inputs pass their checks on both sides with equal output digests"]


def test_a_moved_shape_a_long_line_and_a_shorter_text_are_described(tmp_path):
    long = "x" * 300
    old = kept(tmp_path, "parent", script("s"), {
        "a": np.zeros(3), "t.csv": CSV.encode(), "stdout": f"ok\n{long}\n".encode()})
    new = kept(tmp_path, "change", script("s"), {
        "a": np.zeros(4), "t.csv": CSV.replace("0.5,1.5,3.0\r\n", "").encode(),
        "stdout": f"ok\n{long[:150]}y{long[151:]}\nmore\n".encode()})
    lines = [detail for _, details in compare_outputs.moved_outputs(old, new)
             for detail in details]
    assert lines == [
        "a: shape (3,) on the parent, (4,) on the change",
        "stdout line 2 on the parent: ..." + "x" * 100 + "...",
        "stdout line 2 on the change: ..." + "x" * 25 + "y" + "x" * 74 + "...",
        "t.csv: shape (2, 3) on the parent, (1, 3) on the change"]
    short = kept(tmp_path, "short", script("s"), {"stdout": b"ok\n"})
    assert compare_outputs.output_lines("stdout", Path(old["dir"], "stdout"),
                                        Path(short["dir"], "stdout")) == [
        "stdout line 2 on the parent: " + "x" * 100 + "...",
        "stdout on the change ends after line 1"]


def test_a_failing_check_is_printed_without_accuracy(capsys):
    parent = table(record("spectral", 0, "a", spectrum_err=1e-8))
    change = table(record("spectral", 0, "b", ok=False, problems=["spectrum off"],
                          spectrum_err=1.0))
    assert compare_outputs.compare(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "spectral seed 0 input 0: check fails on the change: spectrum off",
        "spectral: 0/1 equal",
        "0/1 inputs pass their checks on both sides with equal output digests"]


def script(name, ok=True, problems=(), **outputs):
    return {"script": name, "ok": ok, "problems": list(problems), "outputs": outputs}


def scripts(*records):
    return {r["script"]: r for r in records}


def test_equal_script_outputs_print_only_the_tally(capsys):
    same = scripts(script("04_geodesic_shooting", stdout="a", **{"out/shoot.svg": "b"}))
    assert compare_outputs.compare_scripts(same, same) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1/1 scripts exit 0 on both sides with equal stdout and files"]


def test_differing_and_one_sided_script_outputs_are_named(tmp_path, capsys):
    shoot = {"stdout": b"wrote out/trajectory.csv\n", "out/trajectory.csv": CSV.encode()}
    parent = scripts(kept(tmp_path, "parent", script("readme_shoot"),
                          {**shoot, "out/old.csv": b"c"}),
                     script("01_kernel_zoo", stdout="z"))
    change = scripts(kept(tmp_path, "change", script("readme_shoot"),
                          {**shoot, "out/trajectory.csv": CSV.replace("1.5", "1.25").encode(),
                           "out/new.csv": b"d"}),
                     script("01_kernel_zoo", stdout="z"))
    assert compare_outputs.compare_scripts(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "readme_shoot: out/new.csv written on the change only",
        "readme_shoot: out/old.csv written on the parent only",
        "readme_shoot: out/trajectory.csv differs",
        "    out/trajectory.csv q1: 1 of 2 rows differ, max abs 2.500e-01, max rel 1.667e-01",
        "1/2 scripts exit 0 on both sides with equal stdout and files"]


def test_a_failing_or_missing_script_is_printed_without_its_outputs(capsys):
    parent = scripts(script("05_exponential_maps", stdout="a"), script("06_interpolation"))
    change = scripts(script("05_exponential_maps", ok=False, problems=["ValueError: boom"],
                            stdout="b"))
    assert compare_outputs.compare_scripts(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "05_exponential_maps: fails on the change: ValueError: boom",
        "06_interpolation: not run on the change",
        "0/2 scripts exit 0 on both sides with equal stdout and files"]


README = """## Library example

```python
import trikernels
print(trikernels.NAME)
```

A config for `shoot`:

```json
{"x": 1}
```
"""


def test_script_outputs_run_each_script_against_the_tree_src(tmp_path):
    # a stand-in tree: the demo and README's example print a value of the tree's
    # own package, and its CLI writes a file under --out
    (tmp_path / "src" / "trikernels").mkdir(parents=True)
    (tmp_path / "src" / "trikernels" / "__init__.py").write_text("NAME = 'stand-in'\n")
    (tmp_path / "src" / "trikernels" / "cli.py").write_text(
        "import sys\nfrom pathlib import Path\n\n"
        "def main():\n"
        "    out = Path(sys.argv[sys.argv.index('--out') + 1])\n"
        "    out.mkdir()\n"
        "    (out / 'trajectory.csv').write_text(Path('shoot.json').read_text())\n"
        "    print('wrote', out / 'trajectory.csv')\n"
        "    return 0\n")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "01_demo.py").write_text(
        "import trikernels\nfrom pathlib import Path\n"
        "Path('out').mkdir()\nPath('out', 'a.svg').write_text('<svg/>')\nprint(trikernels.NAME)\n")
    (tmp_path / "README.md").write_text(README)
    digest = {r["script"]: r for r in compare_outputs.script_outputs(tmp_path,
                                                                      tmp_path / "kept")}
    assert list(digest) == ["01_demo", "readme_shoot", "readme_library_example"]
    assert all(r["ok"] and r["problems"] == [] for r in digest.values())
    assert sorted(digest["01_demo"]["outputs"]) == ["out/a.svg", "stdout"]
    assert sorted(digest["readme_shoot"]["outputs"]) == ["out/trajectory.csv", "stdout"]
    assert list(digest["readme_library_example"]["outputs"]) == ["stdout"]
    # the same stdout gives the same digest in every script
    assert digest["01_demo"]["outputs"]["stdout"] == \
        digest["readme_library_example"]["outputs"]["stdout"]
    # and every output is kept under the script's own directory
    assert Path(digest["01_demo"]["dir"], "out/a.svg").read_text() == "<svg/>"
    assert Path(digest["readme_shoot"]["dir"], "stdout").read_text() == \
        "wrote out/trajectory.csv\n"
