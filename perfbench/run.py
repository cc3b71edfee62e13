"""trikernels benchmark: closed-loop workloads, end-to-end or traced.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 30 --trace 0

One process runs one experiment at a time; the next starts when the
previous returns (closed loop, one client).  BLAS is pinned to one thread
before numpy loads.  The library is imported from ``src/`` of the checkout
this file sits in, never from site-packages.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Their
experiment times are wall times calibrated for host speed (see Probe);
the report also gives the uncalibrated figures.
``--trace 1`` first runs the workload untraced for half of ``--seconds``,
then replays the same experiments with every layer boundary wrapped in a
span (see tracing.py) and reports the per-layer metrics, the tracing
overhead, and whether both passes produced identical outputs.

The last stdout line is the JSON result; the line before it is the full
report, which is also written to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 0
HELD_OUT_SEED = 99991        # reserved for confirming a claimed gain
SETUP_PROBES = 2             # extra cold set-ups in child processes
RHS_SIZES = (2, 36, 64, 100)  # landmark counts the workloads shoot
MIN_TAIL_BEYOND = 10
# Median Probe() time measured on a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4).  Experiment times are rescaled by PROBE_NOMINAL_S / probe time.
PROBE_NOMINAL_S = 0.0055
PROBE_PAGES = 128


class HarnessError(RuntimeError):
    pass


def load_library():
    """Put the checkout's src/ first on sys.path and import trikernels from it."""
    src = ROOT / "src"
    if not (src / "trikernels" / "__init__.py").is_file():
        raise HarnessError(f"no trikernels sources under {src}")
    sys.path.insert(0, str(src))
    import trikernels
    if Path(trikernels.__file__).resolve().parent != (src / "trikernels").resolve():
        raise HarnessError(f"trikernels imported from {trikernels.__file__}, not {src}")


class Inputs:
    """Experiment inputs in order, generated on first use."""

    def __init__(self, workload, seed: int, count: int):
        self.workload, self.seed = workload, seed
        self.items = [workload.make_input(seed, i) for i in range(count)]

    def __getitem__(self, i):
        while i >= len(self.items):
            self.items.append(self.workload.make_input(self.seed, len(self.items)))
        return self.items[i]


def run_one(w, inp, workdir, rec=None):
    """Prepare, execute (timed) and check one experiment."""
    import workloads
    w.prepare(inp, workdir)
    if rec is not None:
        rec.paused = False
    t = time.perf_counter()
    try:
        raw = w.execute(inp, workdir, rec)
        error = None
    except Exception:
        error = traceback.format_exc()
    dt = time.perf_counter() - t
    if rec is not None:
        rec.paused = True
    if error is not None:
        return dt, workloads.Outcome(ok=False, problems=[error])
    try:
        return dt, w.check(inp, workdir, raw)
    except Exception:
        return dt, workloads.Outcome(ok=False, problems=[traceback.format_exc()])


class Probe:
    """Fixed work, independent of the library, that tracks the host's speed.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its cores).  Timing this probe before and after each experiment
    and rescaling the experiment's wall time by PROBE_NOMINAL_S / probe
    time cancels most of that drift, so two runs of one commit agree.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.small = np.linspace(0.1, 1.0, 6).reshape(3, 2)
        self.big = np.linspace(0.0, 1.0, 1 << 16)
        self.buf = np.empty_like(self.big)

    def _once(self) -> float:
        # interpreter work, small numpy calls, array arithmetic and fresh
        # pages: the mix the workloads spend their time in.  Pages come from
        # mmap directly and arrays are preallocated, so the probe does not
        # depend on the allocator state the experiments leave behind.
        np = self.np
        t = time.perf_counter()
        acc = 0
        for i in range(7000):
            acc += i * i
        for _ in range(70):
            np.einsum("ad,bd->ab", self.small, self.small)
        for _ in range(3):
            np.multiply(self.big, -1.0, out=self.buf)
            np.exp(self.buf, out=self.buf)
            self.buf.sum()
        for _ in range(3):
            with mmap.mmap(-1, PROBE_PAGES * mmap.PAGESIZE) as m:
                for off in range(0, len(m), mmap.PAGESIZE):
                    m[off] = 1
        return time.perf_counter() - t

    def __call__(self) -> float:
        """Three times the median of three short probes, robust to one hiccup."""
        return 3.0 * statistics.median(self._once() for _ in range(3))


def measure(w, inputs, workdir, seconds=None, count=None, rec=None):
    """Closed loop: experiments back to back, in whole rotations.

    With `seconds`, rotations continue while the next one is expected to
    end less than half a rotation past the deadline, so every run measures
    the same mix of kinds; with `count`, exactly that many experiments run.
    Returns wall times, calibrated times and outcomes.
    """
    times, calibrated, outcomes = [], [], []
    probe = Probe()
    before = probe()
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None and i and i % w.rotation == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 * w.rotation / i) >= seconds:
                break
        if rec is not None:
            rec.experiment = i
        dt, o = run_one(w, inputs[i], workdir, rec)
        after = probe()
        times.append(dt)
        calibrated.append(dt * PROBE_NOMINAL_S / (0.5 * (before + after)))
        outcomes.append(o)
        before = after
        i += 1
    return times, calibrated, outcomes


def setup(name: str, seed: int, workdir: Path):
    """Imports, input generation and one untimed warm-up experiment.

    Returns the set-up seconds since interpreter start, calibrated by the
    probes taken right after the imports and at the end.
    """
    import workloads
    import_s = time.perf_counter() - T0
    probe = Probe()
    first = probe()
    w = workloads.WORKLOADS[name]
    inputs = Inputs(w, seed, 64)
    _, warm = run_one(w, w.make_input(seed, workloads.WARMUP_INDEX), workdir)
    setup_s = time.perf_counter() - T0
    speed = PROBE_NOMINAL_S / (0.5 * (first + probe()))
    return w, inputs, warm, import_s, setup_s * speed


def setup_probes(name: str, seed: int) -> list[float]:
    """Set-up seconds of fresh interpreters, each measured like our own."""
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(seed), "--setup-probe"],
                             capture_output=True, text=True, timeout=170, cwd=ROOT)
        if res.returncode != 0:
            raise HarnessError(f"setup probe failed: {res.stderr.strip()[-500:]}")
        samples.append(float(res.stdout.split()[-1]))
    return samples


def percentile(values, p) -> float:
    import numpy as np
    return float(np.percentile(values, p))


def tail(times):
    """Highest whole percentile with at least ten samples above it."""
    for p in range(99, 0, -1):
        v = percentile(times, p)
        if sum(t > v for t in times) >= MIN_TAIL_BEYOND:
            return p, v
    return 100, max(times)


def summarize(w, inputs, measured) -> dict:
    """Timing, accuracy and computed-count summary of one measured phase."""
    wall, times, outcomes = measured
    p, v = tail(times)
    accuracy, counts, by_kind = {}, {}, {}
    for i, t in enumerate(times):
        by_kind.setdefault(w.kind(inputs[i]), []).append(t)
    for o in outcomes:
        for k, x in o.accuracy.items():
            accuracy[k] = max(accuracy.get(k, 0.0), x)
        for k, x in o.counts.items():
            counts[k] = counts.get(k, 0) + x
    n = len(times)
    return {
        "experiments": n,
        "passed": sum(o.ok for o in outcomes),
        "experiment_s_p50": statistics.median(times),
        "experiment_s_tail": {"percentile": p, "value": v, "samples": n,
                              "beyond": sum(t > v for t in times)},
        "experiments_per_s": sum(o.ok for o in outcomes) / sum(times),
        "uncalibrated": {"experiment_s_p50": statistics.median(wall),
                         "experiment_s_tail": percentile(wall, p),
                         "experiments_per_s": sum(o.ok for o in outcomes) / sum(wall)},
        "failed_frac": sum(not o.ok for o in outcomes) / n,
        "kind_s_p50": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "accuracy_worst": accuracy,
        "computed_counts_per_experiment": {k: x / n for k, x in counts.items()},
        "problems": [q for o in outcomes for q in o.problems][:5],
    }


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    commit = None
    if (ROOT / ".git").exists():   # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src_digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src_digest.update(f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_queried": _blas_threads(),
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "loop": "closed, one client, one experiment at a time",
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        return None
    for lib in sorted({m for m in maps if "openblas" in m and ".so" in m}):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(name, seed, seconds, workdir) -> tuple[dict, dict]:
    w, inputs, warm, import_s, own_setup = setup(name, seed, workdir)
    probes = setup_probes(name, seed)
    measured = measure(w, inputs, workdir, seconds=seconds)
    outcomes = measured[2]
    s = summarize(w, inputs, measured)
    s.update(setup_samples_s=probes + [own_setup], import_s=import_s,
             warmup_ok=warm.ok, warmup_problems=warm.problems)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "experiment_s_p50": metric(s["experiment_s_p50"], "s"),
        "experiment_s_tail": metric(s["experiment_s_tail"]["value"], "s"),
        "experiments_per_s": metric(s["experiments_per_s"], "1/s"),
        "setup_s": metric(statistics.median(probes + [own_setup]), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    failed = sum(not o.ok for o in outcomes)
    result = {"correct": failed == 0 and warm.ok, "attempted": len(outcomes),
              "failed": failed, "metrics": metrics}
    return result, s


def traced(name, seed, seconds, workdir) -> tuple[dict, dict]:
    import tracing
    w, inputs, warm, import_s, _ = setup(name, seed, workdir)
    untraced = measure(w, inputs, workdir, seconds=seconds / 2.0)
    base = untraced[2]
    rec = tracing.Recorder()
    with rec:
        measured = measure(w, inputs, workdir, count=len(base), rec=rec)
    outcomes = measured[2]
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"trace-{name}.npz")
    layers, absent = tracing.layer_metrics(rec, len(outcomes), RHS_SIZES)
    mismatched = [i for i, (a, b) in enumerate(zip(base, outcomes)) if a.digest != b.digest]
    untraced_p50 = statistics.median(untraced[1])
    traced_p50 = statistics.median(measured[1])
    csv = sum(o.counts.get("csv_bytes", 0) for o in outcomes) / len(outcomes)
    layers.update({
        "cli.csv_bytes": (csv, "B"),
        "setup.import_s": (import_s, "s"),
        "trace.spans": (len(rec.start) / len(outcomes), "count"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    })
    s = summarize(w, inputs, measured)
    s.update(untraced=summarize(w, inputs, untraced), warmup_ok=warm.ok,
             traced_experiment_s_p50=traced_p50, untraced_experiment_s_p50=untraced_p50,
             tracing_overhead_s=traced_p50 - untraced_p50,
             tracing_overhead_frac=(traced_p50 - untraced_p50) / untraced_p50,
             output_mismatches=mismatched, absent=absent,
             per_layer_note="per-experiment means over the traced pass; 0 means the "
                            "layer did no work on this workload")
    failed = sum(not o.ok for o in base + outcomes) + len(mismatched)
    result = {"correct": failed == 0 and warm.ok, "attempted": len(base) + len(outcomes),
              "failed": failed,
              "metrics": {k: metric(v, u) for k, (v, u) in sorted(layers.items())}}
    return result, s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("spectral", "transport", "registration"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        load_library()
        OUT.mkdir(exist_ok=True)
        workdir.mkdir()
        if args.setup_probe:
            *_, setup_s = setup(args.workload, args.seed, workdir)
            print(repr(setup_s))
            return 0
        run = traced if args.trace else end_to_end
        result, summary = run(args.workload, args.seed, args.seconds, workdir)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads
    report = {"workload": args.workload, "why": workloads.WORKLOADS[args.workload].why,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "summary": summary, "result": result}
    text = json.dumps(report, sort_keys=True, default=str)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
