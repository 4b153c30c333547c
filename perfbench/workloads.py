"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed in ``setup`` and
then offers one *round* of work as a list of calls into the library's
public entry points (the ones the CLI commands and acceptance tests use).
A call reports how many units of work it holds; its check returns how
many of those units failed, why, and the values compared against the
stored reference outputs. Calls with the same label in different rounds
take the same inputs and must give the same outputs.

Why these four (they stress different layers, and each optimisation the
roadmap plans is exercised by one and bypassed by another):

* ``gradcheck`` - the 120 s-gated command: tiny-matrix plain forwards,
  where per-call Python overhead dominates. Prefix caching and batched
  perturbations show here and nowhere else.
* ``train_deep`` - the largest acceptance test (criterion 8): 12-layer
  taped forwards, backward and AdamW. Heads-as-axis and graph batching
  show here; MPNN work is small at n=8.
* ``rank_sweep`` - no model and no tape, only the random source, softmax
  and power iteration. It should stay flat for model-side changes.
* ``forward_large`` - tape-free forwards and diagnostics at n~128, the
  only place MPNN gather/scatter and BLAS-sized matmuls dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from siggate import attention, autodiff, diagnostics, gps, synthexp, training
from siggate.numeric import SeededRng, gaussian_matrix

GRADCHECK_TOL = 1e-5  # acceptance criterion 3
ROW_SUM_TOL = 1e-12
ROUNDS_PER_SEED = 1000  # rank_sweep: seed blocks of consecutive workload seeds never overlap


@dataclass
class Call:
    """One timed call: ``run()`` does the work, ``check(out)`` judges it."""

    label: str
    units: int
    run: Callable[[], Any]
    check: Callable[[Any], "Verdict"]


@dataclass
class Verdict:
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    data: dict[str, int] = field(default_factory=dict)

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        self.problems.append(problem)


class MemoLift:
    """Memoizing array -> ``Var`` wrapper for the public ``lift=`` argument."""

    def __init__(self):
        self._vars = {}

    def __call__(self, arr):
        node = self._vars.get(id(arr))
        if node is None:
            node = self._vars[id(arr)] = autodiff.Var(arr)
        return node


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradcheckSizes:
    d_in: int = 4
    d: int = 16
    heads: int = 4
    layers: int = 2
    nodes: int = 6
    sample: int = 2  # coordinates per parameter
    h: float = 1e-5


class Gradcheck:
    """Criterion-3 finite-difference check over all 13 placement x activation cells."""

    name = "gradcheck"
    unit = "checked coordinate (two tape-free forwards)"
    Sizes = GradcheckSizes

    def __init__(self, seed: int, sizes: GradcheckSizes):
        self.seed = seed
        self.sizes = sizes

    def _cells(self):
        yield "none", "sigmoid"
        for placement in ("g1", "g2", "g3"):
            for activation in attention.GATE_ACTIVATIONS:
                yield placement, activation

    def setup(self) -> None:
        s = self.sizes
        task = synthexp.make_toy_task(self.seed, n_graphs=2, nodes_per_graph=s.nodes,
                                      feature_dim=s.d_in)
        self.batch = task.train[:1]
        self.cells = []
        for placement, activation in self._cells():
            model = gps.init_model(
                SeededRng(self.seed), d_in=s.d_in, d=s.d, n_heads=s.heads, n_layers=s.layers,
                gate=attention.GateConfig(placement=placement, activation=activation),
            )
            params = training.ParamSet.from_model(model)
            coords = sum(min(s.sample, arr.size) for _, arr in params.items())
            # Warm-up forward; its loss is also a reference value.
            loss0 = training.batch_loss(model, self.batch, "mse")
            self.cells.append((f"{placement}/{activation}", model, params, coords, loss0))

    def calls(self, r: int) -> list[Call]:
        s = self.sizes
        out = []
        for label, model, params, coords, loss0 in self.cells:
            def run(model=model, params=params):
                return training.finite_difference_check(
                    model, params, self.batch, h=s.h, sample=s.sample, seed=self.seed,
                    loss="mse")

            def check(report, coords=coords, loss0=loss0):
                v = Verdict(values=[loss0, float(report.n_checked)])
                worst = report.max_param_rel
                if report.n_checked != coords:
                    v.fail(coords, f"checked {report.n_checked} coordinates, expected {coords}")
                elif not (math.isfinite(worst) and worst <= GRADCHECK_TOL):
                    v.fail(coords, f"max_param_rel {worst:.3e} > {GRADCHECK_TOL:g} "
                                   f"({report.worst_param_by_norm})")
                return v

            out.append(Call(label, coords, run, check))
        return out

    def tape_nodes(self) -> int:
        """Nodes of one taped forward per cell, summed over the cells."""
        total = 0
        for _, model, _, _, _ in self.cells:
            lift = MemoLift()
            preds = [gps.model_forward(g, model, lift=lift)[0] for g, _ in self.batch]
            total += count_nodes(preds)
        return total


# ---------------------------------------------------------------------------
# train_deep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSizes:
    layers: int = 12
    d: int = 16
    heads: int = 4
    graphs: int = 12
    nodes: int = 8
    epochs: int = 4


class TrainDeep:
    """Criterion-8 setup: 12-layer AdamW training, gated (g1) and ungated."""

    name = "train_deep"
    unit = "epoch (loss_and_gradients + adamw_step over the training graphs)"
    Sizes = TrainSizes

    def __init__(self, seed: int, sizes: TrainSizes):
        self.seed = seed
        self.sizes = sizes

    def _config(self, placement: str, epochs: int) -> training.TrainConfig:
        s = self.sizes
        return training.TrainConfig(
            lr=1e-3, weight_decay=1e-5, epochs=epochs, seed=self.seed, loss="mae",
            n_layers=s.layers, d=s.d, n_heads=s.heads,
            gate=attention.GateConfig(placement=placement),
        )

    def setup(self) -> None:
        s = self.sizes
        self.task = synthexp.make_toy_task(self.seed, n_graphs=s.graphs, nodes_per_graph=s.nodes)
        training.train_toy(self._config("g1", 1), self.task)  # one warm-up epoch

    def calls(self, r: int) -> list[Call]:
        epochs = self.sizes.epochs
        out = []
        for placement in ("g1", "none"):
            cfg = self._config(placement, epochs)

            def check(history):
                losses = history.losses + [history.final_train_loss, history.final_test_loss]
                v = Verdict(values=losses)
                if len(history.losses) != epochs or not _finite(losses):
                    v.fail(epochs, f"non-finite or missing losses {losses}")
                elif not history.final_train_loss < history.losses[0]:
                    v.fail(epochs, f"final train loss {history.final_train_loss:.6g} "
                                   f"not below the first {history.losses[0]:.6g}")
                return v

            out.append(Call(placement, epochs,
                            lambda cfg=cfg: training.train_toy(cfg, self.task), check))
        return out

    def tape_nodes(self) -> int:
        """Nodes of one taped epoch (all training graphs) per model, summed."""
        s = self.sizes
        d_in = self.task.train[0][0].d_in
        total = 0
        for placement in ("g1", "none"):
            cfg = self._config(placement, 1)
            model = gps.init_model(SeededRng(cfg.seed), d_in=d_in, d=cfg.d,
                                   n_heads=cfg.n_heads, n_layers=s.layers, gate=cfg.gate)
            lift = MemoLift()
            preds = [gps.model_forward(g, model, lift=lift)[0] for g, _ in self.task.train]
            total += count_nodes(preds)
        return total


# ---------------------------------------------------------------------------
# rank_sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankSizes:
    n: int = 64
    d: int = 256
    heads: int = 8
    seeds: int = 5


class RankSweep:
    """Calibrated stable-rank study at the default scale, plus the robustness sweep."""

    name = "rank_sweep"
    unit = "(sweep cell, seed) pair: 8 heads x 2 stable ranks"
    Sizes = RankSizes

    def __init__(self, seed: int, sizes: RankSizes):
        self.seed = seed
        self.sizes = sizes

    def _config(self, r: int) -> synthexp.RankExpConfig:
        """Round ``r`` gets its own seeds, so a run averages the seed-dependent
        power-iteration work over many seeds; round 0 of seed 0 is the default 0-4."""
        s = self.sizes
        first = s.seeds * (ROUNDS_PER_SEED * self.seed + r)
        return synthexp.RankExpConfig(n=s.n, d=s.d, n_heads=s.heads, d_k=s.d // s.heads,
                                      seeds=tuple(range(first, first + s.seeds)))

    def setup(self) -> None:
        first = self._config(0)
        synthexp.run_rank_experiment(replace(first, seeds=first.seeds[:1]))  # warm-up pair

    def _check_cells(self, cells) -> Verdict:
        """``cells`` is a list of (RankExpResult, gain band)."""
        v = Verdict(data={"band_miss_cells": 0, "band_miss_pairs": 0})
        for result, band in cells:
            cfg = result.config
            d_k = cfg.d_k
            v.values += [result.attained_gate_mean, result.attained_gate_std]
            if not (abs(result.attained_gate_mean - cfg.target_gate_mean) <= synthexp.GATE_MEAN_TOL
                    and abs(result.attained_gate_std - cfg.target_gate_std)
                    <= synthexp.GATE_STD_TOL):
                v.fail(len(result.per_seed),
                       f"c={cfg.c:g} rho={cfg.rho:g}: gate moments "
                       f"({result.attained_gate_mean:.4f}, {result.attained_gate_std:.4f})")
                continue
            for s in result.per_seed:
                v.values += [s.srank_ungated, s.srank_gated]
                if not all(math.isfinite(x) and 1.0 <= x <= d_k
                           for x in (s.srank_ungated, s.srank_gated)):
                    v.fail(1, f"c={cfg.c:g} rho={cfg.rho:g} seed {s.seed}: stable ranks "
                              f"{s.srank_ungated}, {s.srank_gated} outside [1, {d_k}]")
                v.data["band_miss_pairs"] += s.srank_gated <= s.srank_ungated
            v.data["band_miss_cells"] += not band[0] <= result.mean_gain <= band[1]
        return v

    def calls(self, r: int) -> list[Call]:
        cfg = self._config(r)
        n_seeds = len(cfg.seeds)
        n_sweep = len(synthexp.C_SWEEP) + len(synthexp.RHO_SWEEP)
        first = cfg.seeds[0]
        return [
            Call(f"default@{first}", n_seeds, lambda: synthexp.run_rank_experiment(cfg),
                 lambda res: self._check_cells([(res, synthexp.MEAN_GAIN_BAND)])),
            Call(f"sweep@{first}", n_seeds * n_sweep,
                 lambda: synthexp.run_robustness_sweep(cfg),
                 lambda cells: self._check_cells(
                     [(c.result, synthexp.SWEEP_GAIN_BAND) for c in cells])),
        ]

    def tape_nodes(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# forward_large
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForwardSizes:
    graphs: int = 16
    n_min: int = 120  # graph i has n_min + i nodes, wrapping at n_max
    n_max: int = 135
    edges: int = 800  # directed edges per graph
    d_in: int = 8
    d: int = 64
    heads: int = 8
    layers: int = 4


def random_graph(rng: SeededRng, n: int, d_in: int, directed_edges: int) -> gps.GraphInstance:
    """Uniform random graph with exactly ``directed_edges // 2`` undirected
    edges, each stored in both directions, so the work per graph does not
    depend on the seed."""
    src, dst = np.triu_indices(n, k=1)
    pick = np.sort(np.argsort(rng.uniform((src.size,)))[:directed_edges // 2])
    edges = [(int(a), int(b)) for a, b in zip(src[pick], dst[pick])]
    edges += [(b, a) for a, b in edges]
    return gps.GraphInstance(n=n, node_features=gaussian_matrix(rng, n, d_in, 1.0), edges=edges)


class ForwardLarge:
    """What ``diagnose`` does after reading its files: forward + instruments."""

    name = "forward_large"
    unit = "graph (tape-free forward, depth profile and per-layer gate stats)"
    Sizes = ForwardSizes

    def __init__(self, seed: int, sizes: ForwardSizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        s = self.sizes
        rng = SeededRng(self.seed)
        self.graphs = []
        for i in range(s.graphs):
            n = s.n_min + i % (s.n_max - s.n_min + 1)
            self.graphs.append(random_graph(rng, n, s.d_in, s.edges))
        self.model = gps.init_model(rng, d_in=s.d_in, d=s.d, n_heads=s.heads,
                                    n_layers=s.layers, gate=attention.GateConfig(placement="g1"))
        self._diagnose(self.graphs[0])  # warm-up graph

    def _diagnose(self, graph):
        pred, trace = gps.model_forward(graph, self.model)
        profile = diagnostics.depth_profile(trace)
        per_layer = diagnostics.gate_stats(diagnostics.trace_gate_values(trace), "per_layer")
        return graph.n, pred, trace, profile, per_layer

    @staticmethod
    def _check(out) -> Verdict:
        n, pred, trace, profile, per_layer = out
        v = Verdict(values=[*pred, *profile.mad, *profile.entropy, *(g.mean for g in per_layer)])
        heads = [ht for layer in trace.head_traces for ht in layer]
        if not _finite(pred, *trace.hidden, *(ht.attention for ht in heads),
                       *(ht.gate for ht in heads), v.values):
            v.fail(1, "non-finite prediction, hidden state, attention, gate or instrument")
        elif max(float(np.max(np.abs(ht.attention.sum(axis=1) - 1.0))) for ht in heads) \
                > ROW_SUM_TOL:
            v.fail(1, "attention rows do not sum to 1 within 1e-12")
        elif not all(np.all((ht.gate > 0.0) & (ht.gate < 1.0)) for ht in heads):
            v.fail(1, "gate outside (0, 1)")
        elif not all(0.0 <= m <= 2.0 for m in profile.mad):
            v.fail(1, f"MAD outside [0, 2]: {profile.mad}")
        elif not all(0.0 <= e <= math.log(n) for e in profile.entropy):
            v.fail(1, f"entropy outside [0, log n]: {profile.entropy}")
        return v

    def calls(self, r: int) -> list[Call]:
        return [Call(f"graph{i}", 1, lambda g=g: self._diagnose(g), self._check)
                for i, g in enumerate(self.graphs)]

    def tape_nodes(self) -> int:
        return 0


def count_nodes(preds) -> int:
    """Distinct autodiff nodes reachable from ``preds`` through ``parents``."""
    seen = set()
    stack = list(preds)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(parent for parent, _ in node.parents)
    return len(seen)


WORKLOADS = {w.name: w for w in (Gradcheck, TrainDeep, RankSweep, ForwardLarge)}
