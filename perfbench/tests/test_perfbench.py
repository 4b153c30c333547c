"""Tests of the benchmark itself: tiny runs of every workload, the metric
names it prints, and that corrupted outputs are counted as failures.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402
from siggate import autodiff as ad  # noqa: E402
from siggate import gps, training  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "gradcheck": workloads.GradcheckSizes(d=8, heads=2, layers=1, nodes=4),
    "train_deep": workloads.TrainSizes(layers=2, d=8, heads=2, graphs=4, nodes=5, epochs=2),
    "rank_sweep": workloads.RankSizes(n=16, d=32, heads=4, seeds=2),
    "forward_large": workloads.ForwardSizes(graphs=3, n_min=10, n_max=14, edges=30, d_in=4,
                                            d=16, heads=4, layers=2),
}


@pytest.fixture(autouse=True)
def _output_in_tmp(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def tiny_run(name, trace=False, seed=1):
    return run.run(name, seed, 0.01, trace, sizes=TINY[name])


def printed_metrics(result, capsys):
    result["machine"] = {}
    run.report(result)
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if " = " in line:
            key, rest = line.split(" = ")
            value, unit = rest.split(" ")
            printed[key] = (float(value), unit)
    return printed, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(run.NOMINAL_ROUND_S) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_end_to_end_metric(name, capsys):
    result = tiny_run(name)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    printed, last = printed_metrics(result, capsys)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        value, unit = printed[metric["name"]]
        assert unit == metric["unit"] and value > 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert printed["fail_frac"] == (0.0, "ratio")
    if name == "forward_large":
        assert printed["graph_p50_ms"][1] == "ms" and printed["graph_p90_ms"][1] == "ms"
        assert printed["graph_samples"] == (3.0, "count")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_prints_every_per_layer_metric_and_counts_repeat(name, capsys):
    first = tiny_run(name, trace=True)
    second = tiny_run(name, trace=True)
    assert first["correct"], first["problems"]
    _, last = printed_metrics(first, capsys)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    counts = {k: v for k, v in first["metrics"].items() if v[1] == "count"}
    assert counts == {k: v for k, v in second["metrics"].items() if v[1] == "count"}
    for fn in tracing.SPAN_NAMES:
        total = first["metrics"][f"{fn}.total_s"][0]
        assert 0.0 <= first["metrics"][f"{fn}.self_s"][0] <= total + 1e-12
    if name in ("gradcheck", "train_deep"):
        assert first["metrics"]["autodiff.tape_nodes"][0] > 0
        assert first["metrics"]["gps.mpnn_forward.calls"][0] > 0
    if name == "rank_sweep":
        assert first["metrics"]["numeric.top_singular_value.calls"][0] > 0
        assert first["metrics"]["gps.model_forward.calls"][0] == 0


def test_tracer_restores_every_binding():
    before = (gps.siggate_mhsa, training.model_forward, training.batch_loss)
    with tracing.Tracer() as tracer:
        assert gps.siggate_mhsa is not before[0]
        assert training.model_forward is not before[1]
    assert (gps.siggate_mhsa, training.model_forward, training.batch_loss) == before
    assert tracer.spans == []


def test_tape_nodes_match_a_hand_count():
    # y = x @ w + b on lifted leaves: leaves w, b plus matmul and add nodes.
    lift = workloads.MemoLift()
    x = np.ones((2, 3))
    w, b = np.ones((3, 1)), np.zeros(1)
    y = ad.add(ad.matmul(x, lift(w)), lift(b))
    z = ad.add(ad.matmul(x, lift(w)), lift(b))  # reuses the memoized leaves
    assert workloads.count_nodes([y]) == 4
    assert workloads.count_nodes([y, z]) == 6


def test_perturbed_gradient_counts_as_failed(monkeypatch):
    original = training.loss_and_gradients

    def perturbed(*args, **kwargs):
        loss, grads = original(*args, **kwargs)
        grads["input.w"][...] *= 1.001
        return loss, grads

    monkeypatch.setattr(training, "loss_and_gradients", perturbed)
    result = tiny_run("gradcheck")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["notes"]["fail_frac"] == (1.0, "ratio")


def test_nan_hidden_state_counts_as_failed(monkeypatch):
    sizes = TINY["forward_large"]
    corpus = workloads.ForwardLarge(1, sizes)
    corpus.setup()
    target_n = corpus.graphs[1].n  # graph 0 is also the set-up's warm-up graph
    poisoned_graphs = sum(g.n == target_n for g in corpus.graphs)
    original = gps.gps_layer_forward

    def poisoned(g, h, p, **kwargs):
        h_next, entry = original(g, h, p, **kwargs)
        if g.n == target_n:
            entry.hidden[0, 0] = np.nan
        return h_next, entry

    monkeypatch.setattr(gps, "gps_layer_forward", poisoned)
    result = run.run("forward_large", 1, 0.01, False, sizes=sizes)
    assert result["failed"] == poisoned_graphs * result["rounds"]
    assert not result["correct"]


def test_divergence_counts_as_failed(monkeypatch):
    def diverge(cfg, task):
        raise training.DivergenceError(0, math.inf)

    monkeypatch.setattr(training, "train_toy", diverge)
    workload = workloads.TrainDeep(1, TINY["train_deep"])
    workload.task = None
    tally = run.timed_rounds(workload, 1)
    assert tally.n_failed == tally.units == 2 * TINY["train_deep"].epochs


def test_reference_check_is_relative_not_bitwise(monkeypatch, tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"w": {"a": [1.0, 2.0]}}))
    monkeypatch.setattr(run, "REFERENCE", path)

    def tally_with(values):
        tally = run.Tally()
        tally.attempted["a"] = 5
        tally.values["a"] = values
        run.check_reference("w", tally)
        return tally

    assert tally_with([1.0 + 1e-13, 2.0]).n_failed == 0
    assert tally_with([1.0 + 1e-8, 2.0]).n_failed == 5
    assert tally_with([1.0]).n_failed == 5


def test_reference_covers_every_call_at_default_sizes():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert sorted(reference) == sorted(workloads.WORKLOADS)
    assert len(reference["gradcheck"]) == 13
    assert sorted(reference["train_deep"]) == ["g1", "none"]
    assert len(reference["forward_large"]) == workloads.ForwardSizes().graphs


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import" in proc.stderr
