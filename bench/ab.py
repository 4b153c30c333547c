"""Alternating A/B runs of perfbench between two git revisions, written as one record.

    python3 bench/ab.py PARENT CHANGE --label NAME --seed-base N
        [--check WORKLOAD=SEED,SEED ...] [--claim WORKLOAD:METRIC ...]
        [--out BENCH_NAME.json]

Run from the root of a checkout. Each revision is extracted with
``git archive`` into a fresh directory, so neither copy holds bytecode, and
each run is ``python3 -B perfbench/run.py --workload W --seed S --seconds T``
from the root of its copy, T being ``BENCHMARK.json``'s ``run_seconds``.
Every workload of ``BENCHMARK.json`` runs :data:`PAIRS` pairs; pair i runs
seed ``seed-base + i`` on both sides, the parent first when i is even and
the change first when it is odd. Every run is recorded, a failing one
included: its exit code, ``correct``, attempted and failed units, the
checks it failed, and its end-to-end metrics. ``--check`` runs each listed
seed once per side (at :data:`CHECK_SECONDS`) and records whether both
sides end alike; use it for the reference seed and for seeds known to fail
on a correct library.

After each run, ``python3 -B -c`` from the same copy's root puts ``src`` and
``perfbench`` on the path as ``perfbench/run.py`` does, imports
``workloads`` and prints its peak RSS. The record keeps that as the run's
``import_rss_mb``, with each side's median per workload: the part of
``peak_rss_mb`` that the import alone reaches, which follows the size of the
compiled source. Each run also keeps its ``minor_faults``: the change in
``resource.getrusage(RUSAGE_CHILDREN).ru_minflt`` across the perfbench
child, interpreter start-up and set-up included, and its
``import_minor_faults``, the same rise across the import-only child. So
``minor_faults - import_minor_faults`` is what a run faults on top of that
import: perfbench's own start-up and set-up, then the timed loop. Each of
the three has each side's median per workload; none gets a verdict or a
claim.

Per workload and end-to-end metric of ``BENCHMARK.json`` the record holds
each side's median and quartiles, the pairs the change wins, its relative
change, and a verdict against the metric's bound (see :func:`verdict`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
CHECK_SECONDS = 2.0
RUN_TIMEOUT_S = 900
CHECK_PREFIX = "perfbench: check failed: "
WHAT = (
    "perfbench end-to-end metrics of the parent and the change, in alternating pairs on "
    "the same seed: the parent runs first in even pairs (0-based), the change in odd ones. "
    "Both sides are fresh git archive copies run with python3 -B. Quartiles are "
    "statistics.quantiles(method='inclusive') over each side's runs with a value. The "
    "change wins a pair when both sides have a value and its own is better, and loses it "
    "when its value is worse or missing (a crashed or timed-out run); ties count for "
    "neither, and the 9/10 below counts every pair run. Verdicts: 'better' when the change "
    "wins at least 9/10 of the pairs and the medians differ by more than the parent's IQR; "
    "'worse beyond the bound' when the change's median is worse than the parent's by more "
    "than the bound; 'worse inside the bound' when it loses 9/10 of the pairs by more than "
    "the parent's IQR but stays inside the bound; 'unresolved' when the parent's IQR is "
    "wider than the bound and not every change run beats every parent run; 'no value on a "
    "side' when a side has none; else 'inside the bound'. Runs that fail a check are kept "
    "and counted in failed_share. A claim is met when its verdict is 'better' and the "
    "change's failed share does not rise. import_rss_mb is the peak RSS in MB of a fresh "
    "python3 -B that only imports perfbench's workloads from the same copy, run after each "
    "run; minor_faults is the rise in getrusage(RUSAGE_CHILDREN).ru_minflt across the "
    "perfbench run itself, start-up included; import_minor_faults is the same rise across the "
    "import-only interpreter, so minor_faults - import_minor_faults is what a run faults on "
    "top of that import. All three have per-side medians and no verdict."
)
IMPORT_RSS = ("import resource, sys; sys.path[:0] = sys.argv[1:]; import workloads; "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def outcomes(parent: list, change: list, better: str) -> tuple[int, int]:
    """The pairs the change wins and loses; a pair with no change value is a
    loss, and one with only the parent's value missing is neither."""
    sign = 1.0 if better == "higher" else -1.0
    wins = losses = 0
    for p, c in zip(parent, change):
        if c is None:
            losses += 1
        elif p is not None:
            wins += sign * (c - p) > 0
            losses += sign * (c - p) < 0
    return wins, losses


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The change's verdict on one metric from its paired values (``parent[i]``
    and ``change[i]`` come from pair i, None where that run gave no value);
    ``better`` is "lower" or "higher". Wins and losses count against every
    pair run (see :func:`outcomes`)."""
    parent_values = [p for p in parent if p is not None]
    change_values = [c for c in change if c is not None]
    if not parent_values or not change_values:
        return "no value on a side"
    sign = 1.0 if better == "higher" else -1.0
    wins, losses = outcomes(parent, change, better)
    q1, p_med, q3 = quartiles(parent_values)
    c_med = statistics.median(change_values)
    gap = sign * (c_med - p_med)  # > 0: the change is better
    most = math.ceil(0.9 * len(parent))
    if wins >= most and gap > q3 - q1:
        return "better"
    if -gap > bound * abs(p_med):
        return "worse beyond the bound"
    if losses >= most and -gap > q3 - q1:
        return "worse inside the bound"
    every_run_better = len(change_values) == len(change) and (
        min(change_values) > max(parent_values) if better == "higher"
        else max(change_values) < min(parent_values))
    if q3 - q1 > bound * abs(p_med) and not every_run_better:
        return "unresolved (parent IQR wider than the bound)"
    return "inside the bound"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (BENCHMARK.json's ``end_to_end`` entries), the
    statistics of ``pairs`` and the verdict. A side's median and quartiles are
    over its runs with a value; a pair whose change run has none (it crashed)
    is a loss for the change (see :func:`outcomes`)."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        parent, change = ([p[side]["metrics"].get(name) for p in pairs] for side in SIDES)
        entry = {"pairs": len(pairs),
                 "pairs_without_value": sum(p is None or c is None
                                            for p, c in zip(parent, change))}
        entry["change_wins"], entry["parent_wins"] = outcomes(parent, change, spec["better"])
        entry["verdict"] = verdict(parent, change, spec["better"], spec["bound"])
        present = [[v for v in values if v is not None] for values in (parent, change)]
        if all(present):
            for side, values in zip(SIDES, present):
                q1, med, q3 = quartiles(values)
                entry[side] = {"median": med, "q1": q1, "q3": q3}
            p_med = entry["parent"]["median"]
            entry["rel_change"] = (entry["change"]["median"] - p_med) / p_med if p_med else None
        out[name] = entry
    return out


def failed_share(pairs: list[dict]) -> dict:
    """Per side, failed units over attempted ones, and whether the change's share rose."""
    share = {}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        attempted = sum(r["attempted"] for r in runs)
        share[side] = {"runs": len(runs), "runs_not_correct": sum(not r["correct"] for r in runs),
                       "failed": sum(r["failed"] for r in runs), "attempted": attempted,
                       "share": sum(r["failed"] for r in runs) / attempted if attempted else None}
    parent, change = share["parent"]["share"], share["change"]["share"]
    share["rises"] = None if parent is None or change is None else change > parent
    return share


def parse_run(proc: subprocess.CompletedProcess) -> dict:
    """One run's record from perfbench's exit code, JSON line and stderr."""
    record = {"exit": proc.returncode, "correct": False, "attempted": 0, "failed": 0,
              "problems": [ln[len(CHECK_PREFIX):] for ln in proc.stderr.splitlines()
                           if ln.startswith(CHECK_PREFIX)],
              "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = proc.stderr.strip().splitlines()[-5:]
        return record
    record.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"],
                  metrics={k: v["value"] for k, v in result["metrics"].items()})
    return record


def children_minflt() -> int:
    """Minor page faults of this process's children that have been waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from the root of ``tree``, with its ``minor_faults``
    and the ``import_rss_mb`` and ``import_minor_faults`` measured right after it."""
    cmd = [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    faults = children_minflt()
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # its JSON line, the last it prints, never came
        proc = subprocess.CompletedProcess(cmd, -1, "", f"timed out after {RUN_TIMEOUT_S} s")
    faults = children_minflt() - faults
    rss, import_faults = import_probe(tree)
    return {**parse_run(proc), "minor_faults": faults, "import_rss_mb": rss,
            "import_minor_faults": import_faults}


def import_probe(tree: Path) -> tuple[float | None, int | None]:
    """Peak RSS in MB and minor faults of a fresh ``python3 -B`` that imports
    perfbench's ``workloads`` from ``tree`` as ``perfbench/run.py`` does (``src``
    and ``perfbench`` first on the path, BLAS threads capped alike); both None
    if it fails."""
    threads = str(min(2, os.cpu_count() or 1))
    env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, **os.environ}
    faults = children_minflt()
    try:
        proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_RSS, "src", "perfbench"],
                              cwd=tree, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        faults = children_minflt() - faults
        return (float(proc.stdout), faults) if proc.returncode == 0 else (None, None)
    except (subprocess.TimeoutExpired, ValueError):
        return None, None


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest`` by ``git archive``; its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], capture_output=True,
                         check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return sha


def machine_of(tree: Path) -> dict | None:
    """The machine record of the last run in ``tree``, as perfbench wrote it."""
    results = sorted((tree / ".perfbench_out").glob("*-trace0.json"),
                     key=lambda p: p.stat().st_mtime)
    if not results:
        return None
    with open(results[-1], encoding="utf-8") as fh:
        return json.load(fh).get("machine")


def paired_runs(trees: dict, workload: str, seeds: list[int], seconds: float) -> list[dict]:
    """One pair per seed, alternating which side runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, seconds)
        pairs.append(pair)
    return pairs


def side_medians(pairs: list[dict], key: str) -> dict:
    """Per side, the median of each run's ``key`` over its runs with a value (None if none)."""
    out = {}
    for side in SIDES:
        values = [p[side].get(key) for p in pairs]
        values = [v for v in values if v is not None]
        out[side] = statistics.median(values) if values else None
    return out


def same_outcome(pair: dict) -> bool:
    """Whether both sides of a checked seed ended alike: exit code, verdict,
    units and the checks they failed."""
    keys = ("exit", "correct", "attempted", "failed", "problems")
    return all(pair["parent"][k] == pair["change"][k] for k in keys)


def record(label: str, revisions: dict, benchmark: dict, runs: dict, checks: dict,
           claims: list[str], machine) -> dict:
    """The BENCH record: the eight shared keys, then the checked seeds. A claim
    is met when its verdict is "better" and the change's failed share did not
    rise."""
    metrics = benchmark["end_to_end"]
    workloads = {name: {"seeds": [p["seed"] for p in pairs], "pairs": pairs,
                        "summary": summarize(pairs, metrics),
                        "failed_share": failed_share(pairs),
                        "import_rss_mb": side_medians(pairs, "import_rss_mb"),
                        "minor_faults": side_medians(pairs, "minor_faults"),
                        "import_minor_faults": side_medians(pairs, "import_minor_faults")}
                 for name, pairs in runs.items()}
    claim = {}
    for spec in claims:
        workload, metric = spec.split(":")
        got = workloads[workload]["summary"][metric]["verdict"]
        rises = workloads[workload]["failed_share"]["rises"]
        claim[spec] = {"verdict": got, "met": got == "better" and rises is not True}
    return {
        "label": label,
        "revisions": revisions,
        "what": WHAT,
        "command": " ".join(["python3 -B", *benchmark["command"][1:],
                             "--workload WORKLOAD --seed SEED",
                             f"--seconds {benchmark['run_seconds']:g}"]),
        "bounds": {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in metrics},
        "machine": machine,
        "claim": claim,
        "workloads": workloads,
        "checked_seeds": {name: [{**pair, "same_outcome": same_outcome(pair)} for pair in pairs]
                          for name, pairs in checks.items()},
    }


def verdict_lines(rec: dict) -> list[str]:
    """A line per workload and metric: medians, wins and verdict."""
    lines = []
    for name, wl in rec["workloads"].items():
        for metric, s in wl["summary"].items():
            if "parent" not in s:
                lines.append(f"{name} {metric}: {s['verdict']}")
                continue
            lines.append(f"{name} {metric}: {s['parent']['median']:.6g} -> "
                         f"{s['change']['median']:.6g} ({100 * (s['rel_change'] or 0):+.1f}%), "
                         f"change wins {s['change_wins']}/{s['pairs']}: {s['verdict']}")
        share = wl["failed_share"]
        lines.append(f"{name} failed share: parent {share['parent']['share']}, "
                     f"change {share['change']['share']}")
        for key in ("import_rss_mb", "minor_faults", "import_minor_faults"):
            lines.append(f"{name} {key} (no verdict): parent {wl[key]['parent']}, "
                         f"change {wl[key]['change']}")
    for name, pairs in rec["checked_seeds"].items():
        for pair in pairs:
            lines.append(f"check {name} seed {pair['seed']}: correct "
                         f"{pair['parent']['correct']}/{pair['change']['correct']}, "
                         f"same outcome {pair['same_outcome']}")
    return lines


def check_spec(text: str) -> tuple[str, list[int]]:
    """``WORKLOAD=SEED[,SEED...]`` as (workload, seeds)."""
    workload, _, seeds = text.partition("=")
    try:
        return workload, [int(s) for s in seeds.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEED[,SEED...], got {text!r}") \
            from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair i of every workload runs seed seed-base + i")
    parser.add_argument("--check", action="append", default=[], type=check_spec,
                        metavar="WORKLOAD=SEEDS")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", default=None, help="default: BENCH_<label>.json")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    known = [w["name"] for w in benchmark["workloads"]]
    seeds = [args.seed_base + i for i in range(PAIRS)]
    checks = {}
    for name, check_seeds in args.check:
        checks.setdefault(name, []).extend(check_seeds)
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    named = [*checks, *(c.partition(":")[0] for c in args.claim)]
    if any(name not in known for name in named):
        parser.error(f"workloads are {known}, got {named}")
    if any(c.partition(":")[2] not in metrics for c in args.claim):
        parser.error(f"a claim is WORKLOAD:METRIC with METRIC one of {metrics}")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees, revisions = {}, {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side] = Path(tmp) / side
            revisions[side] = extract(rev, trees[side])
        runs = {}
        for name in known:
            runs[name] = paired_runs(trees, name, seeds, benchmark["run_seconds"])
            print(f"{name}: {len(seeds)} pairs done", file=sys.stderr)
        checked = {name: paired_runs(trees, name, check_seeds, CHECK_SECONDS)
                   for name, check_seeds in checks.items()}
        rec = record(args.label, revisions, benchmark, runs, checked, args.claim,
                     machine_of(trees["change"]))
    out = args.out or f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")
    print("\n".join(verdict_lines(rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
