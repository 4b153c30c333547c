"""What a fresh interpreter loads. scipy supplies only the exact GELU's
``erf``, so nothing loads from it before the first GELU: the library, the
CLI, a model's init, ``param-count`` and ``rank-exp`` never touch it. The
first GELU then loads one extension, ``scipy.special._special_ufuncs``, and
not the ``scipy.special`` package, whose ``_ufuncs`` would map scipy's own
OpenBLAS beside numpy's. A command whose forked workers run the model loads
it once, in the parent, before the pool forks. A later ``import
scipy.special`` reuses that module, and where the extension cannot be
found the package is imported as before."""

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
ERF_MODULE = "scipy.special._special_ufuncs"

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
        seen["first gelu"] = scipy_modules()
        np.save("gelu.npy", np.stack([x, g, out, back(g)[0]]))
        json.dump(seen, open("seen.json", "w"))
    """, tmp_path)
    seen = json.loads((tmp_path / "seen.json").read_text())
    assert seen.pop("first gelu") == [ERF_MODULE]
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
            scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            with open(os.path.join("probes", str(os.getpid())), "a") as fh:
                fh.write(f"{{os.getpid() != PARENT}} {{' '.join(scipy)}}\\n")
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
    # each cell ran in a forked worker that holds the erf module and nothing else of scipy
    assert probes == [f"True {ERF_MODULE}"] * cells


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_the_first_gelu_maps_no_second_blas(tmp_path):
    run_fresh("""
        import json
        import numpy as np
        import siggate

        siggate.autodiff.gelu_vjp(np.linspace(-3.0, 3.0, 7))
        paths = {line.split()[-1] for line in open("/proc/self/maps") if "/scipy" in line}
        json.dump(sorted(paths), open("maps.json", "w"))
    """, tmp_path)
    paths = json.loads((tmp_path / "maps.json").read_text())
    assert [Path(p).name.split(".")[0] for p in paths] == ["_special_ufuncs"]
    assert not [p for p in paths if "/scipy.libs/" in p]


def test_a_later_scipy_special_import_reuses_the_erf_module(tmp_path):
    run_fresh("""
        import sys
        from siggate.autodiff import load_erf

        erf = load_erf()
        assert "scipy.special" not in sys.modules
        import scipy.special
        assert scipy.special.erf is erf is load_erf()
    """, tmp_path)


def test_a_hidden_erf_extension_falls_back_to_scipy_special(tmp_path):
    run_fresh("""
        import sys
        from siggate import autodiff

        class FindsNothing(autodiff.FileFinder):
            def find_spec(self, fullname, target=None):
                return None

        autodiff.FileFinder = FindsNothing
        erf = autodiff.load_erf()
        assert "scipy.special" in sys.modules
        import scipy.special
        assert erf is scipy.special.erf
    """, tmp_path)
