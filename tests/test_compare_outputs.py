"""Self-test of tools/compare_outputs.py: its reports on synthetic records, and
the script records of a stand-in tree."""

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


def script(name, ok=True, problems=(), **outputs):
    return {"script": name, "ok": ok, "problems": list(problems), "outputs": outputs}


def scripts(*records):
    return {r["script"]: r for r in records}


def test_equal_script_outputs_print_only_the_tally(capsys):
    same = scripts(script("04_geodesic_shooting", stdout="a", **{"out/shoot.svg": "b"}))
    assert compare_outputs.compare_scripts(same, same) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1/1 scripts exit 0 on both sides with equal stdout and files"]


def test_differing_and_one_sided_script_outputs_are_named(capsys):
    parent = scripts(script("readme_shoot", stdout="a", **{"out/trajectory.csv": "b",
                                                          "out/old.csv": "c"}),
                     script("01_kernel_zoo", stdout="z"))
    change = scripts(script("readme_shoot", stdout="a", **{"out/trajectory.csv": "B",
                                                          "out/new.csv": "d"}),
                     script("01_kernel_zoo", stdout="z"))
    assert compare_outputs.compare_scripts(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "readme_shoot: out/new.csv written on the change only",
        "readme_shoot: out/old.csv written on the parent only",
        "readme_shoot: out/trajectory.csv differs",
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
    digest = {r["script"]: r for r in compare_outputs.script_outputs(tmp_path)}
    assert list(digest) == ["01_demo", "readme_shoot", "readme_library_example"]
    assert all(r["ok"] and r["problems"] == [] for r in digest.values())
    assert sorted(digest["01_demo"]["outputs"]) == ["out/a.svg", "stdout"]
    assert sorted(digest["readme_shoot"]["outputs"]) == ["out/trajectory.csv", "stdout"]
    assert list(digest["readme_library_example"]["outputs"]) == ["stdout"]
    # the same stdout gives the same digest in every script
    assert digest["01_demo"]["outputs"]["stdout"] == \
        digest["readme_library_example"]["outputs"]["stdout"]
