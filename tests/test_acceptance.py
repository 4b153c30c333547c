"""End-to-end acceptance criteria with pinned tolerances.

Each test prints one ``ACCEPTANCE criterion N: PASS/FAIL`` line (visible
with ``pytest -s``). Criterion 2b checks, on 1000 random (row-stochastic
A, Gaussian V) pairs, the two stable-rank bounds for AV that are
theorems: (i) srank(AV) <= min(srank(A), srank(V)) * (||A||_2 ||V||_2 /
||AV||_2)^2, and (ii) srank(AV) <= min(rank(A), rank(V)). The plain
product bound srank(AV) <= min(srank(A), srank(V)) holds for exact rank
but not for stable rank; its violations are reported as a finding (see
the README's "Known limitations").
"""

import importlib.util
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from siggate.attention import GateConfig, MhsaParams, gate_param_count, init_mhsa_params, siggate_mhsa
from siggate.cli import main
from siggate.diagnostics import (
    attention_entropy,
    depth_profile,
    gate_stats,
    mad,
    rank_bound_holds,
    stable_rank,
    trace_gate_values,
)
from siggate.gps import GpsLayerParams, GraphInstance, init_model, model_forward
from siggate.numeric import SeededRng, gaussian_matrix, row_softmax, top_singular_value
from siggate.synthexp import (
    GATE_MEAN_TOL,
    GATE_STD_TOL,
    MEAN_GAIN_BAND,
    SWEEP_GAIN_BAND,
    RankExpConfig,
    make_toy_task,
    run_rank_experiment,
    run_robustness_sweep,
)
from siggate.training import TrainConfig, train_toy

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_spec = importlib.util.spec_from_file_location(
    "bench_fingerprints", Path(__file__).resolve().parents[1] / "bench" / "fingerprints.py")
fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprints)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCriterion1SyntheticRankStudy:
    def test_default_run_bands_and_runtime(self, tmp_path):
        start = time.perf_counter()
        code = main(["rank-exp", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        result = run_rank_experiment(RankExpConfig())
        per_seed_ok = all(s.srank_gated > s.srank_ungated for s in result.per_seed)
        mean_ok = MEAN_GAIN_BAND[0] <= result.mean_gain <= MEAN_GAIN_BAND[1]
        moments_ok = (abs(result.attained_gate_mean - 0.58) <= GATE_MEAN_TOL
                      and abs(result.attained_gate_std - 0.19) <= GATE_STD_TOL)
        ok = (code == 0 and per_seed_ok and mean_ok and moments_ok and elapsed < 60.0)
        report(
            "1a", ok,
            f"mean gain {100 * result.mean_gain:+.2f}% (band [+5%, +9%]), "
            f"gated>ungated on {sum(s.srank_gated > s.srank_ungated for s in result.per_seed)}/5 seeds, "
            f"attained moments ({result.attained_gate_mean:.4f}, {result.attained_gate_std:.4f}) "
            f"vs (0.58, 0.19), exit {code}, {elapsed:.1f}s (< 60s)",
        )

    def test_robustness_sweep_bands(self):
        cells = run_robustness_sweep(RankExpConfig())
        gains = {cell.config_id: cell.result.mean_gain for cell in cells}
        ok = len(cells) == 9 and all(
            g > 0.0 and SWEEP_GAIN_BAND[0] <= g <= SWEEP_GAIN_BAND[1]
            for g in gains.values()
        )
        report(
            "1b", ok,
            "sweep gains " + ", ".join(f"{k}={100 * v:+.1f}%" for k, v in gains.items())
            + " all in [+4%, +10%]",
        )


class TestCriterion2RankBound:
    def test_spot_checks(self):
        rng = SeededRng(0)
        u = rng.standard_normal((5, 1))
        v = rng.standard_normal((1, 3))
        checks = {
            "srank(I5)": (stable_rank(np.eye(5)), 5.0),
            "srank(uv^T)": (stable_rank(u @ v), 1.0),
            "srank(diag(2,1,1))": (stable_rank(np.diag([2.0, 1.0, 1.0])), 1.5),
        }
        ok = all(abs(got - want) <= 1e-10 for got, want in checks.values())
        report("2a", ok, ", ".join(f"{k}={got:.12f}" for k, (got, _) in checks.items()))

    def test_random_pair_property_as_specified(self):
        """On each of 1000 random pairs (A = row_softmax of a 16x16
        Gaussian, V a 16x8 Gaussian), assert the two provable bounds:

        (i) srank(AV) <= min(srank(A), srank(V)) * (||A||_2 ||V||_2 / ||AV||_2)^2,
            since ||AV||_F <= ||A||_2 ||V||_F and ||AV||_F <= ||A||_F ||V||_2;
            it is the plain bound exactly when ||AV||_2 = ||A||_2 ||V||_2.
        (ii) srank(AV) <= min(rank(A), rank(V)), since srank(M) <= rank(M).

        Both use a relative tolerance of 1e-9. The plain bound
        srank(AV) <= min(srank(A), srank(V)) is not a theorem for stable
        rank (row averaging can cancel V's dominant direction and flatten
        the spectrum); its violations are counted and reported, not
        asserted. See README, "Known limitations"."""
        rng = SeededRng(2024)
        ratios = []  # srank(AV) / bound, for bounds (i) and (ii)
        plain_gaps = []
        for _ in range(1000):
            a = row_softmax(gaussian_matrix(rng, 16, 16, 1.0))
            v = gaussian_matrix(rng, 16, 8, 1.0)
            r = rank_bound_holds(a, v)
            align = (top_singular_value(a) * top_singular_value(v) / top_singular_value(a @ v)) ** 2
            ratios.append((
                r.srank_av / (min(r.srank_a, r.srank_v) * align),
                r.srank_av / min(np.linalg.matrix_rank(a), np.linalg.matrix_rank(v)),
            ))
            if not r.holds:
                plain_gaps.append(r.srank_av - min(r.srank_a, r.srank_v))
        ratios = np.array(ratios)
        failures = int(np.sum(np.any(ratios > 1.0 + 1e-9, axis=1)))
        worst = ratios.max(axis=0)
        report(
            "2b", failures == 0,
            f"{failures}/1000 draws violate bound (i) or (ii) (worst srank(AV)/bound: "
            f"(i) {worst[0]:.3f}, (ii) {worst[1]:.3f}); finding: "
            f"{len(plain_gaps)}/1000 draws violate the plain srank(AV) <= min(srank(A), srank(V)) "
            f"+ 1e-9 (worst gap {max(plain_gaps, default=0.0):.3f}), which is not a theorem for stable rank",
        )


class TestCriterion3GradientCorrectness:
    def test_exhaustive_grad_check_all_placements_and_activations(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(fingerprints.GRAD_CHECK + ["--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        stdout = capsys.readouterr().out
        golden = json.loads(fingerprints.GOLDEN.read_text(encoding="utf-8"))["runs"]
        changed = fingerprints.differences(
            {"grad-check": golden["grad-check"]},
            {"grad-check": fingerprints.entry_of(code, stdout, tmp_path)})
        assert not changed, "grad-check outputs differ from tests/golden/fingerprints.json:\n" \
            + "\n".join(changed)
        rows = (tmp_path / "gradcheck_report.csv").read_text().strip().splitlines()[1:]
        worst = max(float(r.split(",")[3]) for r in rows)
        ok = code == 0 and elapsed < 120.0 and len(rows) == 13
        report(
            3, ok,
            f"13 configs (none + {{g1,g2,g3}} x 4 activations), exhaustive central "
            f"differences at h=1e-5: worst per-parameter relative error {worst:.2e} "
            f"<= 1e-5, exit {code}, {elapsed:.1f}s (< 120s)",
        )


class TestCriterion4ForwardIdentities:
    def test_forced_ones_gate_equals_ungated_bitwise(self):
        # Zero gate weights and bias_init 40 give gates of sigmoid(40), which
        # is exactly 1.0 in float64, on every placement and sharing.
        task = make_toy_task(seed=3, n_graphs=2, nodes_per_graph=6)
        graph = task.train[0][0]
        cells = [(p, s) for p in ("g1", "g2", "g3") for s in ("per_head", "shared")]
        bitwise = []
        for placement, sharing in cells:
            model = init_model(SeededRng(3), d_in=4, d=16, n_heads=4, n_layers=2,
                               gate=GateConfig(placement=placement, sharing=sharing,
                                               bias_init=40.0),
                               gate_weight_std=0.0)
            pred_ones, trace_ones = model_forward(graph, model)
            ungated_layers = [
                GpsLayerParams(
                    mpnn=layer.mpnn,
                    attn=MhsaParams(layer.attn.w_q, layer.attn.w_k, layer.attn.w_v,
                                    layer.attn.w_o, GateConfig(placement="none")),
                    ffn=layer.ffn, ln1=layer.ln1, ln2=layer.ln2,
                )
                for layer in model.layers
            ]
            ungated = type(model)(w_in=model.w_in, b_in=model.b_in, layers=ungated_layers,
                                  w_head=model.w_head, b_head=model.b_head,
                                  readout=model.readout)
            pred_none, trace_none = model_forward(graph, ungated)
            bitwise.append(np.array_equal(pred_ones, pred_none) and all(
                np.array_equal(a, b) for a, b in zip(trace_ones.hidden, trace_none.hidden)
            ) and all(np.all(g == 1.0) for g in trace_gate_values(trace_ones)))
        report("4a", all(bitwise),
               f"{sum(bitwise)}/{len(cells)} saturated-gate models ({{g1,g2,g3}} x "
               f"{{per_head,shared}}, W_g = 0, bias_init 40) equal the placement-none model "
               f"bitwise (prediction and every hidden state)")

    def test_forced_zero_gate_zeroes_attention_branch(self):
        rng = SeededRng(4)
        params = init_mhsa_params(rng, 16, 4, GateConfig(placement="g1", activation="relu",
                                                         bias_init=-1.0),
                                  gate_weight_std=0.0)
        h = gaussian_matrix(rng, 6, 16, 1.0)
        out, _, _ = siggate_mhsa(h, params)
        report("4b", bool(np.all(out == 0.0)),
               "a closed gate (relu, W_g = 0, bias_init -1) yields an exactly zero "
               "attention branch")

    def test_shared_gating_bitwise_equals_duplicated_per_head(self):
        rng = SeededRng(5)
        shared = init_mhsa_params(rng, 16, 4, GateConfig(placement="g1", sharing="shared"))
        duplicated = MhsaParams(
            shared.w_q, shared.w_k, shared.w_v, shared.w_o,
            GateConfig(placement="g1", sharing="per_head"),
            w_g=np.repeat(shared.w_g, 4, axis=0), b_g=np.repeat(shared.b_g, 4, axis=0),
        )
        h = gaussian_matrix(rng, 7, 16, 1.0)
        out_a, _, _ = siggate_mhsa(h, shared)
        out_b, _, _ = siggate_mhsa(h, duplicated)
        report("4c", np.array_equal(out_a, out_b),
               "shared gating is bitwise identical to per-head gating with "
               "the same duplicated parameters")

    def test_fresh_init_gate_mean_is_sigmoid_half(self):
        model = init_model(SeededRng(6), d_in=4, d=16, n_heads=4, n_layers=3,
                           gate=GateConfig(placement="g1"), gate_weight_std=0.0)
        task = make_toy_task(seed=6, n_graphs=2, nodes_per_graph=6)
        _, trace = model_forward(task.train[0][0], model)
        per_layer = gate_stats(trace_gate_values(trace), "per_layer")
        target = 0.6224593
        ok = all(abs(g.mean - target) <= 1e-6 for g in per_layer)
        report("4d", ok,
               f"fresh-init gate mean per layer = "
               f"{[round(g.mean, 7) for g in per_layer]} (sigmoid(0.5) +- 1e-6)")


class TestCriterion5ParameterOverhead:
    def test_gate_parameter_formula(self, capsys):
        ok_a = gate_param_count(256, 32, 8, 5) == 328_960
        ok_b = gate_param_count(64, 8, 8, 10) == 41_600
        report("5", ok_a and ok_b,
               "gate_param_count(256,32,8,5)=328960 and gate_param_count(64,8,8,10)=41600")


class TestCriterion6MetricUnits:
    def test_metric_units(self):
        entropy_ok = all(
            abs(attention_entropy(np.full((n, n), 1.0 / n)) - np.log(n)) <= 1e-12
            for n in range(2, 9)
        )
        onehot_ok = attention_entropy(np.eye(5)) == 0.0
        mad_same_ok = mad(np.tile([1.0, 2.0], (3, 1))) == pytest.approx(0.0, abs=1e-12)
        mad_orth_ok = mad(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(1.0, abs=1e-12)
        gs = gate_stats([np.array([0.05, 0.95])], "pooled")
        gate_ok = gs.frac_below == 0.5 and gs.frac_above == 0.5
        ok = entropy_ok and onehot_ok and mad_same_ok and mad_orth_ok and gate_ok
        report("6", ok, "entropy(uniform n)=ln n for n in 2..8, entropy(one-hot)=0, "
                        "mad(identical)=0, mad(orthogonal)=1, gate fracs 0.5/0.5")


class TestCriterion7InvarianceSuite:
    def test_model_permutation_invariance_100_permutations(self):
        model = init_model(SeededRng(7), d_in=4, d=16, n_heads=4, n_layers=2,
                           gate=GateConfig(placement="g1"))
        task = make_toy_task(seed=7, n_graphs=2, nodes_per_graph=8)
        graph = task.train[0][0]
        pred, _ = model_forward(graph, model)
        perm_rng = SeededRng(77)
        worst = 0.0
        for _ in range(100):
            perm = np.argsort(perm_rng.uniform((graph.n,)))
            relabel = {int(old): int(new) for new, old in enumerate(perm)}
            permuted = GraphInstance(
                n=graph.n,
                node_features=graph.node_features[perm],
                edges=[(relabel[a], relabel[b]) for a, b in graph.edges],
            )
            pred_p, _ = model_forward(permuted, model)
            worst = max(worst, float(np.max(np.abs(pred_p - pred))))
        report("7a", worst <= 1e-9,
               f"prediction drift over 100 random node relabelings: {worst:.2e} <= 1e-9")

    def test_softmax_row_sums_across_forward_corpus(self):
        worst = 0.0
        for placement in ("none", "g1", "g2", "g3"):
            model = init_model(SeededRng(8), d_in=4, d=16, n_heads=4, n_layers=2,
                               gate=GateConfig(placement=placement))
            task = make_toy_task(seed=8, n_graphs=3, nodes_per_graph=7)
            for graph, _ in task.train:
                mask = np.eye(graph.n, dtype=bool) | (SeededRng(9).uniform(
                    (graph.n, graph.n)) > 0.3)
                masked = GraphInstance(n=graph.n, node_features=graph.node_features,
                                       edges=graph.edges, attn_mask=mask)
                for g in (graph, masked):
                    _, trace = model_forward(g, model)
                    for heads in trace.head_traces:
                        for ht in heads:
                            worst = max(worst, float(np.max(
                                np.abs(ht.attention.sum(axis=1) - 1.0))))
        report("7b", worst <= 1e-12,
               f"worst attention row-sum deviation across the forward corpus: {worst:.2e}")

    def test_command_determinism_bitwise(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "experiment.n = 16\nexperiment.d = 32\nexperiment.heads = 4\n"
            "experiment.d_k = 8\nexperiment.seeds = 0, 1\n"
            "experiment.robustness = true\nexperiment.c_sweep = 0.5\n"
            "experiment.rho_sweep = 0.4\n"
            "model.layers = 1\nmodel.d = 8\nmodel.heads = 2\n"
            "training.epochs = 3\ntask.n_graphs = 6\ntask.nodes = 5\n"
            "training.lrs = 1e-3, 2e-3\n"
        )
        pairs = []
        for cmd in ("rank-exp", "lr-sweep"):
            out1, out2 = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
            main([cmd, "--config", str(cfg), "--out", str(out1)])
            main([cmd, "--config", str(cfg), "--out", str(out2)])
            for root, _, files in os.walk(out1):
                rel = os.path.relpath(root, out1)
                for name in sorted(files):
                    a = os.path.join(out1, rel, name)
                    b = os.path.join(out2, rel, name)
                    pairs.append((read_bytes(a) == read_bytes(b), f"{cmd}/{rel}/{name}"))
        ok = all(p for p, _ in pairs)
        report("7c", ok, f"{sum(p for p, _ in pairs)}/{len(pairs)} output files "
                         "bitwise identical across reruns")


class TestCriterion8DirectionalDepthStudy:
    def test_gated_keeps_higher_mad_and_entropy(self):
        """Direction-only check on trained 12-layer models; the benchmark
        magnitudes from full-scale training are out of scope."""
        mad_wins = 0
        entropy_wins = 0
        details = []
        for seed in range(5):
            task = make_toy_task(seed=seed, n_graphs=12, nodes_per_graph=8)
            results = {}
            for placement in ("g1", "none"):
                cfg = TrainConfig(
                    lr=1e-3, weight_decay=1e-5, epochs=80, seed=seed, loss="mae",
                    n_layers=12, d=16, n_heads=4,
                    gate=GateConfig(placement=placement) if placement != "none"
                    else GateConfig(placement="none"),
                )
                history = train_toy(cfg, task)
                profiles = [depth_profile(t) for t in history.final_test_traces]
                results[placement] = (
                    float(np.mean([p.mad[-1] for p in profiles])),
                    float(np.mean([p.entropy[-1] for p in profiles])),
                )
            (mad_g, ent_g), (mad_u, ent_u) = results["g1"], results["none"]
            mad_wins += mad_g >= mad_u
            entropy_wins += ent_g > ent_u
            details.append(f"seed {seed}: MAD {mad_g:.3f}/{mad_u:.3f} "
                           f"H {ent_g:.3f}/{ent_u:.3f}")
        ok = mad_wins >= 4 and entropy_wins >= 4
        report("8", ok,
               f"final-layer MAD(gated)>=MAD(ungated) in {mad_wins}/5 seeds, "
               f"entropy higher in {entropy_wins}/5 seeds (need >= 4/5 each); "
               + "; ".join(details))


class TestCriterion9ScopeStatement:
    def test_readme_declares_out_of_scope_results(self):
        with open(README, "r", encoding="utf-8") as fh:
            text = fh.read()
        needed = ["ZINC", "OGB", "LRGB", "significance"]
        ok = all(token in text for token in needed) and (
            "not reproduce" in text or "out of scope" in text
        )
        report("9", ok, "README declares benchmark results, significance tests and "
                        "LR-sweep MAE values out of scope; the harness reproduces "
                        "protocol shape only")
