"""Benchmark of the siggate library: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``. The seed makes the inputs; the run does a fixed number of
rounds of the workload (about ``--seconds`` of work on the reference
machine in ``NOTES.md``), checks every output, and prints a summary
followed by one JSON line. Gated times are normalised by a host-speed
probe (``hostspeed.py``). ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-function metrics of a traced run. Full results, the
machine record and (traced) the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

# Seconds per round of each workload on the reference machine (NOTES.md);
# a run does round(--seconds / this) rounds, at least one.
NOMINAL_ROUND_S = {"gradcheck": 4.6, "train_deep": 2.1, "rank_sweep": 1.2,
                   "forward_large": 0.55}
SETUP_REPEATS = 3
SETUP_PROBES = 5  # host-speed probes on each side of a set-up
REFERENCE_SEED = 0
REFERENCE_REL_TOL = 1e-9


def bootstrap() -> None:
    """Make the checkout's ``src/siggate`` and the benchmark importable, and import them.

    BLAS threads are capped at two (or the core count, if lower) before
    numpy loads, so hosts with many cores stay comparable.
    """
    src = ROOT / "src"
    if not (src / "siggate" / "__init__.py").is_file():
        raise FileNotFoundError(f"no siggate package under {src}")
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.dont_write_bytecode = True
    for path in (BENCH_DIR, src):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import siggate
    import workloads  # noqa: F401  (imports numpy, scipy and every siggate module)
    if Path(siggate.__file__).resolve().parent != src / "siggate":
        raise ImportError(f"imported siggate from {siggate.__file__}, not from {src}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy, scipy and the library."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(ROOT / "src"), str(BENCH_DIR)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def machine_record() -> dict:
    """Where the numbers came from, so runs on different hosts are not mixed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy) -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


class Tally:
    """Outcome of the timed rounds: per-call times, units and failures."""

    def __init__(self):
        self.wall_s = 0.0
        self.norm_s = 0.0
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.times: list[float] = []
        self.values: dict[str, list[float]] = {}
        self.data: dict[str, int] = {}
        self.problems: list[str] = []

    def fail_call(self, label: str, units: int, problem: str) -> None:
        self.failed[label] = min(self.attempted[label], self.failed.get(label, 0) + units)
        self.problems.append(f"{label}: {problem}")

    @property
    def units(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def timed_rounds(workload, rounds: int, tracer=None) -> Tally:
    """Run the rounds back to back, with a host-speed probe after each call.

    Only the library calls are timed; checks and probes are not.
    """
    from hostspeed import normalised, probe

    tally = Tally()
    clock = time.perf_counter
    probes = [probe()]
    for r in range(rounds):
        for call in workload.calls(r):
            label = call.label
            tally.attempted[label] = tally.attempted.get(label, 0) + call.units
            if tracer is not None:
                tracer.unit = f"r{r}:{label}"
            start = clock()
            try:
                out = call.run()
            except Exception as exc:  # a unit that raises is a failed unit; keep measuring
                out = exc
            elapsed = clock() - start
            probes.append(probe())
            tally.wall_s += elapsed
            if isinstance(out, Exception):
                tally.fail_call(label, call.units, f"{type(out).__name__}: {out}")
                continue
            tally.times.append(elapsed)
            verdict = call.check(out)
            if verdict.failed or verdict.problems:
                tally.fail_call(label, verdict.failed, "; ".join(verdict.problems))
            for key, count in verdict.data.items():
                tally.data[key] = tally.data.get(key, 0) + count
            first = tally.values.setdefault(label, verdict.values)
            if first is not verdict.values and first != verdict.values:
                tally.fail_call(label, call.units, f"round {r} outputs differ from round 0")
    tally.norm_s = normalised(tally.wall_s, probes)
    return tally


def check_reference(name: str, tally: Tally) -> None:
    """Compare the outputs with the stored ones, at relative 1e-9 (not bitwise)."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    for label, want in reference.items():
        got = tally.values.get(label)
        if got is None:
            tally.problems.append(f"{label}: no output to compare with the reference")
            continue
        if len(got) != len(want) or not all(
                math.isclose(g, w, rel_tol=REFERENCE_REL_TOL, abs_tol=0.0)
                for g, w in zip(got, want)):
            tally.fail_call(label, tally.attempted[label], "outputs differ from reference.json")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result record (metrics, counts, notes)."""
    from hostspeed import normalised, probe
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    sizes = cls.Sizes() if sizes is None else sizes
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[name]))
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, tuple[float, str]] = {}
    if not trace:
        probe()  # the first probe pays for lazy set-up inside numpy
        setup_times = []
        setup_norm = []
        for _ in range(SETUP_REPEATS):
            probes = [probe() for _ in range(SETUP_PROBES)]
            import_s = import_seconds()
            workload = cls(seed, sizes)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(import_s + time.perf_counter() - start)
            probes += [probe() for _ in range(SETUP_PROBES)]
            setup_norm.append(normalised(setup_times[-1], probes))
        tally = timed_rounds(workload, rounds)
        metrics["norm_wall_s"] = (tally.norm_s, "s")
        metrics["norm_units_per_s"] = (tally.units / tally.norm_s, "1/s")
        metrics["setup_s"] = (statistics.median(setup_norm), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        notes["wall_s"] = (tally.wall_s, "s")
        notes["units_per_s"] = (tally.units / tally.wall_s, "1/s")
        notes["raw_setup_s"] = (statistics.median(setup_times), "s")
        notes["host_speed"] = (tally.norm_s / tally.wall_s, "ratio")
    else:
        tracer = Tracer()
        workload = cls(seed, sizes)
        with tracer:
            workload.setup()
        plain = timed_rounds(workload, rounds)
        with tracer:
            tally = timed_rounds(workload, rounds, tracer)
        tally.problems += plain.problems
        for fn, row in tracer.summary().items():
            metrics[f"{fn}.calls"] = (row["calls"], "count")
            metrics[f"{fn}.total_s"] = (row["total_s"], "s")
            metrics[f"{fn}.self_s"] = (row["self_s"], "s")
        nodes = [workload.tape_nodes(), workload.tape_nodes()]
        if nodes[0] != nodes[1]:
            tally.problems.append(f"tape node count does not repeat: {nodes}")
        metrics["autodiff.tape_nodes"] = (nodes[0], "count")
        metrics["trace.overhead_frac"] = (tally.norm_s / plain.norm_s - 1.0, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.csv")
    if seed == REFERENCE_SEED and sizes == cls.Sizes():
        check_reference(name, tally)
    notes["fail_frac"] = (tally.n_failed / tally.units, "ratio")
    if name == "forward_large" and tally.times:
        notes["graph_p50_ms"] = (1e3 * percentile(tally.times, 50), "ms")
        notes["graph_p90_ms"] = (1e3 * percentile(tally.times, 90), "ms")
        notes["graph_samples"] = (len(tally.times), "count")
    for key, count in sorted(tally.data.items()):
        notes[key] = (count, "count")
    correct = tally.n_failed == 0 and not tally.problems
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "unit": cls.unit, "correct": correct,
        "attempted": tally.units, "failed": tally.n_failed,
        "metrics": metrics, "notes": notes, "problems": tally.problems,
    }


def report(result: dict) -> None:
    """Print the summary lines and, last, the one-line JSON result."""
    print(f"# perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"rounds={result['rounds']} unit: {result['unit']}")
    print(f"# machine {json.dumps(result['machine'])}")
    for key, (value, unit) in {**result["metrics"], **result["notes"]}.items():
        print(f"{key} = {value!r} {unit}")
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        bootstrap()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["machine"] = machine_record()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
