"""What a fresh interpreter loads. ``scipy.special`` supplies only the exact
GELU's ``erf``, and it costs more to import than numpy and the library
together, so it loads on the first GELU: the library, the CLI, a model's
init, ``param-count`` and ``rank-exp`` never import scipy, and a command
whose forked workers run the model loads it once, in the parent, before
the pool forks."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import assert_bitwise, erf

SRC = Path(__file__).resolve().parents[1] / "src"

FAST_RANK = """
experiment.n = 16
experiment.d = 32
experiment.heads = 4
experiment.d_k = 8
experiment.seeds = 0, 1
experiment.robustness = false
"""

TINY_TRAIN = """
model.layers = 1
model.d = 8
model.heads = 2
training.epochs = 1
task.n_graphs = 6
task.nodes = 5
"""

GRAD_TWO_CELLS = ("gradcheck.exhaustive = false\ngradcheck.samples = 1\n"
                  "gradcheck.placements = none, g1\ngradcheck.activations = sigmoid\n")


def run_fresh(code: str, cwd: Path) -> None:
    """Run ``code`` in a fresh interpreter that imports the library from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-B", "-c", textwrap.dedent(code)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def gelu_oracle(x):
    """The exact GELU's form on the oracles' ``erf``, in ``gelu_vjp``'s order."""
    half = x * 0.5
    u = x * (1.0 / np.sqrt(2.0))
    s = erf(u) + 1.0
    return half * s, lambda g: (g * s * 0.5 + g * half * (2.0 / np.sqrt(np.pi))
                                * np.exp(-u * u) * (1.0 / np.sqrt(2.0)),)


def test_nothing_before_the_first_gelu_imports_scipy(tmp_path):
    (tmp_path / "rank.cfg").write_text(FAST_RANK)
    (tmp_path / "train.cfg").write_text(TINY_TRAIN)
    run_fresh("""
        import json, sys
        import numpy as np
        import siggate
        import siggate.cli as cli
        from siggate.attention import GateConfig
        from siggate.numeric import SeededRng

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        seen = {"import": scipy_modules()}
        siggate.init_model(SeededRng(0), d_in=3, d=8, n_heads=2, n_layers=2,
                           gate=GateConfig(placement="g1"))
        seen["init_model"] = scipy_modules()
        seen["param-count"] = [cli.main(["param-count", "--config", "train.cfg"]),
                               scipy_modules()]
        for parallel in ("1", "2"):
            code = cli.main(["rank-exp", "--config", "rank.cfg", "--out", "rank" + parallel,
                             "--parallel", parallel])
            seen["rank-exp --parallel " + parallel] = [code, scipy_modules()]
        x = np.concatenate([np.linspace(-40.0, 40.0, 801), [0.0, -0.0, 1e-300, -1e-300]])
        x = np.stack([x, x / 7.0, x + 0.5])
        g = np.sin(3.0 * x) + 0.5
        out, back = siggate.autodiff.gelu_vjp(x)
        seen["first gelu"] = "scipy.special" in sys.modules
        np.save("gelu.npy", np.stack([x, g, out, back(g)[0]]))
        json.dump(seen, open("seen.json", "w"))
    """, tmp_path)
    seen = json.loads((tmp_path / "seen.json").read_text())
    assert seen.pop("first gelu") is True
    assert seen == {"import": [], "init_model": [], "param-count": [0, []],
                    "rank-exp --parallel 1": [seen["rank-exp --parallel 1"][0], []],
                    "rank-exp --parallel 2": [seen["rank-exp --parallel 1"][0], []]}
    assert (tmp_path / "rank1" / "rank_seeds.csv").read_bytes() \
        == (tmp_path / "rank2" / "rank_seeds.csv").read_bytes()
    x, g, out, dx = np.load(tmp_path / "gelu.npy")
    want, want_back = gelu_oracle(x)
    assert_bitwise(out, want)
    assert_bitwise(dx, want_back(g)[0])


def _worker_probe_script(command: str, worker: str, text: str) -> str:
    return f"""
        import os, sys
        import siggate.cli as cli

        PARENT = os.getpid()
        cell = cli.{worker}

        def probe(args):
            # runs first in each of the pool's cells
            with open(os.path.join("probes", str(os.getpid())), "a") as fh:
                fh.write(f"{{os.getpid() != PARENT}} {{'scipy.special' in sys.modules}}\\n")
            return cell(args)

        cli.{worker} = probe
        os.mkdir("probes")
        open("cell.cfg", "w").write({text!r})
        assert "scipy" not in sys.modules
        code = cli.main(["{command}", "--config", "cell.cfg", "--out", "out",
                         "--parallel", "2"])
        assert code in (0, 1), code
    """


@pytest.mark.parametrize("command, worker, text, cells", [
    ("grad-check", "_gradcheck_one", GRAD_TWO_CELLS, 2),
    ("ablate", "_train_cell", TINY_TRAIN, 25),
], ids=["grad-check", "ablate"])
def test_a_forked_worker_starts_with_scipy_loaded(tmp_path, command, worker, text, cells):
    run_fresh(_worker_probe_script(command, worker, text), tmp_path)
    probes = [line for path in (tmp_path / "probes").iterdir()
              for line in path.read_text().splitlines()]
    assert probes == ["True True"] * cells  # each cell ran in a forked worker
