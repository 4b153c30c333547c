"""Output fingerprints: the SHA-256 of what a fixed list of small CLI runs writes.

    python3 bench/fingerprints.py

Run from anywhere in a checkout. Each run of :func:`run_all` goes through
``siggate.cli.main`` in this process, into its own fresh ``--out``
directory: ``rank-exp`` and ``lr-sweep`` on their configuration files,
``param-count`` for each placement, and ``diagnose`` of a seeded model dump
and graph that :func:`write_dump` writes first. The script also runs
:data:`GRAD_CHECK`, the exhaustive ``grad-check`` as acceptance criterion 3
runs it. Per run, the record holds the exit code and the SHA-256 of the
stdout and of every file under ``--out`` (keyed by its path there); the
``diagnose`` entry also holds the hashes of its dump (``input model.txt``,
``input graph.txt``).

The script rewrites ``tests/golden/fingerprints.json`` with these entries
and the numpy version and BLAS that made them, and prints each entry that
changed, appeared or went away. ``tests/test_fingerprints.py`` recomputes
the entries of :func:`run_all` and fails on any difference, naming the run
and the file; criterion 3's test checks the ``grad-check`` entry from the
output it already writes. A change whose outputs are meant to differ
refreshes the file with this script and lists the entries it printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout without an install

from siggate.attention import PLACEMENTS, GateConfig
from siggate.cli import main as cli_main
from siggate.gps import init_model, write_graph
from siggate.numeric import SeededRng
from siggate.synthexp import make_toy_task
from siggate.training import save_model

GOLDEN = ROOT / "tests" / "golden" / "fingerprints.json"
CONFIGS = ROOT / "configs"
GRAD_CHECK = ["grad-check", "--parallel", "2"]  # as acceptance criterion 3 runs it


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def made_with() -> dict[str, str]:
    """The numpy version and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def write_dump(folder: Path) -> tuple[Path, Path]:
    """A seeded model dump (the default gated model at d = 16, 2 layers) and
    the first training graph of toy task 1, as ``diagnose`` reads them."""
    model = init_model(SeededRng(5), d_in=4, d=16, n_heads=4, n_layers=2, gate=GateConfig())
    graph = make_toy_task(seed=1, n_graphs=2, nodes_per_graph=6).train[0][0]
    model_path, graph_path = folder / "model.txt", folder / "graph.txt"
    save_model(model, model_path)
    write_graph(graph, graph_path)
    return model_path, graph_path


def entry_of(code: int, stdout: str, out: Path) -> dict[str, str | int]:
    """A run's entry: its exit code and the hashes of its stdout and of every file under ``out``."""
    entry = {"exit": code, "stdout": sha256(stdout.encode("utf-8"))}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        entry[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    return entry


def run(argv: list[str], out: Path) -> dict[str, str | int]:
    """The entry of ``siggate.cli.main(argv + ["--out", out])``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv + ["--out", str(out)])
    return entry_of(code, stdout.getvalue(), out)


def run_all(workdir) -> dict[str, dict]:
    """``{run: {entry: value}}`` of every run, each written under ``workdir``."""
    workdir = Path(workdir)
    inputs = workdir / "inputs"
    inputs.mkdir()
    model_path, graph_path = write_dump(inputs)
    argvs = {"rank-exp": ["rank-exp", "--config", str(CONFIGS / "rank_exp.cfg")],
             "lr-sweep": ["lr-sweep", "--config", str(CONFIGS / "toy_train.cfg")]}
    for placement in PLACEMENTS:
        cfg = inputs / f"{placement}.cfg"
        cfg.write_text(f"model.placement = {placement}\n", encoding="utf-8")
        argvs[f"param-count {placement}"] = ["param-count", "--config", str(cfg)]
    argvs["diagnose"] = ["diagnose", "--model", str(model_path), "--graph", str(graph_path)]
    runs = {name: run(argv, workdir / name.replace(" ", "_")) for name, argv in argvs.items()}
    for path in (model_path, graph_path):
        runs["diagnose"][f"input {path.name}"] = sha256(path.read_bytes())
    return runs


def differences(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per entry that differs between two ``run_all`` records, naming
    the run and the entry."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        before, after = old.get(run, {}), new.get(run, {})
        for entry in sorted(before.keys() | after.keys()):
            if entry not in after:
                lines.append(f"{run}: {entry}: missing (was {before[entry]})")
            elif entry not in before:
                lines.append(f"{run}: {entry}: new ({after[entry]})")
            elif before[entry] != after[entry]:
                lines.append(f"{run}: {entry}: {before[entry]} -> {after[entry]}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fingerprints-") as tmp:
        runs = {**run_all(tmp), "grad-check": run(GRAD_CHECK, Path(tmp) / "grad-check")}
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"] if GOLDEN.exists() else {}
    record = {"made_with": made_with(), "runs": runs}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    changed = differences(old, runs)
    print("\n".join(changed) if changed else "no entry changed")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
