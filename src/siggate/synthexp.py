"""Calibrated synthetic stable-rank study and the toy regression task.

The study asks whether element-wise sigmoid gating raises the effective
(stable) rank of per-head attention outputs. Per seed: hidden states H
with unit-variance Gaussian entries, Q/K/V projections with std
1/sqrt(d), logits c * Q K^T / sqrt(d_k), a Bernoulli mask removing each
off-diagonal ordered pair with probability rho (diagonal kept), softmax,
Y = A V. The gate is sigma(scale * (H W_g) + bias) with W_g drawn Gaussian
and column-normalized so H W_g has exactly unit marginal variance; (scale,
bias) come from :func:`calibrate_gate`, which moment-matches the marginal
gate distribution to target (mean, std) by Gauss-Hermite quadrature and a
damped Newton iteration. Reported stable ranks are arithmetic means over
heads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import stable_rank
from .gps import GraphInstance
from .numeric import NonFiniteInputError, SeededRng, gaussian_matrix, row_softmax, sigmoid
from .numeric import write_csv

__all__ = [
    "RankExpConfig",
    "SeedResult",
    "RankExpResult",
    "CalibratedGate",
    "SweepCell",
    "SyntheticTask",
    "calibrate_gate",
    "run_rank_experiment",
    "run_robustness_sweep",
    "make_toy_task",
    "triangle_count",
    "toy_label",
    "C_SWEEP",
    "RHO_SWEEP",
    "MEAN_GAIN_BAND",
    "SWEEP_GAIN_BAND",
    "GATE_MEAN_TOL",
    "GATE_STD_TOL",
]

# Acceptance bands for the default configuration and the robustness sweep.
MEAN_GAIN_BAND = (0.05, 0.09)
SWEEP_GAIN_BAND = (0.04, 0.10)
GATE_MEAN_TOL = 0.03
GATE_STD_TOL = 0.02
_CALIBRATION_TOL = 1e-12  # the largest moment residual calibrate_gate returns

C_SWEEP = (0.5, 1.0, 1.5, 2.0, 3.0)
RHO_SWEEP = (0.05, 0.20, 0.40, 0.60)


@dataclass
class RankExpConfig:
    n: int = 64
    d: int = 256
    n_heads: int = 8
    d_k: int = 32
    rho: float = 0.20
    c: float = 1.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    target_gate_mean: float = 0.58
    target_gate_std: float = 0.19

    def __post_init__(self):
        for name in ("n", "d", "n_heads", "d_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.d_k * self.n_heads != self.d:
            raise ValueError(
                f"d_k * n_heads must equal d ({self.d_k} * {self.n_heads} != {self.d})"
            )
        if not self.seeds:
            raise ValueError("at least one seed required")


@dataclass
class CalibratedGate:
    scale: float
    bias: float
    attained_mean: float
    attained_std: float


@dataclass
class SeedResult:
    seed: int
    srank_ungated: float
    srank_gated: float

    @property
    def relative_gain(self) -> float:
        return (self.srank_gated - self.srank_ungated) / self.srank_ungated


@dataclass
class RankExpResult:
    config: RankExpConfig
    calibration: CalibratedGate
    per_seed: list[SeedResult]
    attained_gate_mean: float
    attained_gate_std: float

    @property
    def mean_gain(self) -> float:
        return float(np.mean([s.relative_gain for s in self.per_seed]))

    @property
    def std_gain(self) -> float:
        return float(np.std([s.relative_gain for s in self.per_seed]))

    def mean_std(self, attr: str) -> tuple[float, float]:
        vals = np.array([getattr(s, attr) for s in self.per_seed])
        return float(vals.mean()), float(vals.std())


# ---------------------------------------------------------------------------
# Gate calibration
# ---------------------------------------------------------------------------

_QUAD_ORDER = 96


@functools.cache
def _gauss_hermite():
    """The order-96 rule as read-only ``(z, w)``, computed once per process
    (``hermgauss(96)`` takes about 7 ms)."""
    # Physicists' rule; change of variables z = sqrt(2) x turns it into an
    # expectation against the standard normal density.
    x, w = np.polynomial.hermite.hermgauss(_QUAD_ORDER)
    rule = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gate_moments(scale: float, bias: float, z, w):
    g = sigmoid(scale * z + bias)
    gp = g * (1.0 - g)
    m1 = float(w @ g)
    m2 = float(w @ (g * g))
    # Jacobian entries of (m1, m2) in (scale, bias).
    j = np.array([
        [float(w @ (z * gp)), float(w @ gp)],
        [float(w @ (2.0 * g * z * gp)), float(w @ (2.0 * g * gp))],
    ])
    return m1, m2, j


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def calibrate_gate(target_mean: float, target_std: float) -> CalibratedGate:
    """Find (scale, bias) with sigma(scale*z + bias), z ~ N(0,1), matching
    the target mean and std, by Gauss-Hermite quadrature of order 96.

    The reachable stds at mean m are (0, sqrt(m(1-m))): the supremum is the
    Bernoulli limit of an infinitely steep gate. Infeasible targets raise
    with that range in the message; so do targets so near it that Newton
    meets a singular Jacobian or ends with a moment residual above 1e-12.
    """
    if not 0.0 < target_mean < 1.0:
        raise ValueError(f"target mean must lie in (0, 1), got {target_mean}")
    sup_std = float(np.sqrt(target_mean * (1.0 - target_mean)))
    if not 0.0 <= target_std < sup_std:  # also rejects NaN
        raise ValueError(
            f"target std {target_std} infeasible at mean {target_mean}; "
            f"the feasible range is [0, {sup_std:.6g})"
        )
    if target_std == 0.0:
        return CalibratedGate(scale=0.0, bias=_logit(target_mean),
                              attained_mean=target_mean, attained_std=0.0)

    def unreached(why: str) -> ValueError:
        return ValueError(f"calibrate_gate: targets (mean {target_mean}, std {target_std}) "
                          f"{why} (the std's Bernoulli limit is {sup_std:.6g})")

    z, w = _gauss_hermite()
    target_m2 = target_std ** 2 + target_mean ** 2
    bias = _logit(target_mean)
    # First-order guess: std(sigmoid(s z + b)) ~ sigma'(b) * s for small s.
    scale = target_std / max(target_mean * (1.0 - target_mean), 1e-6)
    for _ in range(200):
        m1, m2, jac = _gate_moments(scale, bias, z, w)
        resid = np.array([m1 - target_mean, m2 - target_m2])
        err = float(np.max(np.abs(resid)))
        if err < 1e-13:
            break
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            raise unreached(f"make the moment Jacobian singular at scale {scale:.6g}, "
                            f"bias {bias:.6g}") from None
        damp = 1.0
        for _ in range(60):
            s_new = scale - damp * step[0]
            b_new = bias - damp * step[1]
            m1n, m2n, _ = _gate_moments(s_new, b_new, z, w)
            if abs(m1n - target_mean) + abs(m2n - target_m2) < float(np.sum(np.abs(resid))):
                break
            damp *= 0.5
        scale, bias = scale - damp * step[0], bias - damp * step[1]
        if damp == 0.5 ** 60:  # no halving lowered the residual: Newton has stalled
            break
    scale = abs(scale)  # sigma(s z + b) and sigma(-s z + b) share a law for z ~ N(0,1)
    m1, m2, _ = _gate_moments(scale, bias, z, w)
    err = max(abs(m1 - target_mean), abs(m2 - target_m2))
    if not err <= _CALIBRATION_TOL:
        raise unreached(f"are missed by a moment residual of {err:.3g} > {_CALIBRATION_TOL:g}")
    return CalibratedGate(
        scale=scale, bias=bias,
        attained_mean=m1, attained_std=float(np.sqrt(max(m2 - m1 * m1, 0.0))),
    )


# ---------------------------------------------------------------------------
# Rank experiment
# ---------------------------------------------------------------------------


def _unit_column_gaussian(rng: SeededRng, rows: int, cols: int) -> np.ndarray:
    w = gaussian_matrix(rng, rows, cols, 1.0)
    return w / np.linalg.norm(w, axis=0, keepdims=True)


def _head_outputs(cfg: RankExpConfig, pairs, seed: int, cal: CalibratedGate):
    """Every head's ``y`` and ``y * gate`` for every (c, rho) in ``pairs``, as a
    ``(heads, pairs, 2, n, d_k)`` stack, and the gate moments. The draws and the
    gate do not depend on c or rho, so each head's ``q k^T``, ``v`` and gate are
    made once, into stacks over the heads; each pair then takes its logits,
    softmax, ``A V`` and gating for every head in one call each."""
    heads, n = cfg.n_heads, cfg.n
    inv_sqrt_dk = 1.0 / np.sqrt(cfg.d_k)
    proj_std = 1.0 / np.sqrt(cfg.d)
    rng = SeededRng(seed)
    hidden = gaussian_matrix(rng, n, cfg.d, 1.0)
    uniforms = rng.uniform((n, n))
    scores = np.empty((heads, n, n))
    values = np.empty((heads, n, cfg.d_k))
    gates = np.empty((heads, n, cfg.d_k))
    moments = np.zeros(3)  # the gate values' sum, sum of squares and count
    for h in range(heads):
        w_q = gaussian_matrix(rng, cfg.d, cfg.d_k, proj_std)
        w_k = gaussian_matrix(rng, cfg.d, cfg.d_k, proj_std)
        w_v = gaussian_matrix(rng, cfg.d, cfg.d_k, proj_std)
        w_g = _unit_column_gaussian(rng, cfg.d, cfg.d_k)
        np.matmul(hidden @ w_q, (hidden @ w_k).T, out=scores[h])
        np.matmul(hidden, w_v, out=values[h])
        gate = sigmoid(cal.scale * (hidden @ w_g) + cal.bias, out=gates[h])
        moments += gate.sum(), (gate * gate).sum(), gate.size
    outputs = np.empty((heads, len(pairs), 2, n, cfg.d_k))  # (head, pair, gated)
    for i, (c, rho) in enumerate(pairs):
        # each off-diagonal pair dropped independently; diagonal kept so no row is empty
        keep = uniforms >= rho
        np.fill_diagonal(keep, True)
        try:  # every head reads the one mask; an error names the head and the row
            attn = row_softmax(scores * c * inv_sqrt_dk, keep)
        except NonFiniteInputError as exc:
            raise NonFiniteInputError(f"rank study cell c={c:g} rho={rho:g}: {exc}") from None
        np.matmul(attn, values, out=outputs[:, i, 0])
        np.multiply(outputs[:, i, 0], gates, out=outputs[:, i, 1])
    return outputs, moments


def _run_seed(args):
    """One seed of the rank study for every (c, rho) in ``pairs`` (top-level so
    process pools can map it). The stable ranks of every head's outputs are
    taken in one call, once the pass's stacks are freed."""
    cfg, pairs, seed, cal = args
    outputs, moments = _head_outputs(cfg, pairs, seed, cal)
    sranks = stable_rank(outputs.reshape(-1, cfg.n, cfg.d_k)).reshape(outputs.shape[:3])
    results = [SeedResult(seed=seed, srank_ungated=float(np.mean(sranks[:, i, 0])),
                          srank_gated=float(np.mean(sranks[:, i, 1])))
               for i in range(len(pairs))]
    return results, moments


def _run_configs(configs: list[RankExpConfig], map_fn=map) -> list[RankExpResult]:
    """The rank study for configs that differ only in c and rho: one pass
    per seed serves every config, and equal (c, rho) pairs run once."""
    if not configs:
        return []
    cfg = configs[0]
    cal = calibrate_gate(cfg.target_gate_mean, cfg.target_gate_std)
    slot = {key: i for i, key in enumerate(dict.fromkeys((c.c, c.rho) for c in configs))}
    jobs = [(cfg, list(slot), seed, cal) for seed in cfg.seeds]
    per_seed = [[] for _ in slot]
    moments = np.zeros(3)
    for results, seed_moments in map_fn(_run_seed, jobs):
        for i, result in enumerate(results):
            per_seed[i].append(result)
        moments += seed_moments
    gate_sum, gate_sq_sum, gate_count = moments
    gate_mean = gate_sum / gate_count
    gate_var = gate_sq_sum / gate_count - gate_mean ** 2
    return [RankExpResult(
        config=c, calibration=cal, per_seed=list(per_seed[slot[c.c, c.rho]]),
        attained_gate_mean=float(gate_mean),
        attained_gate_std=float(np.sqrt(max(gate_var, 0.0))),
    ) for c in configs]


def run_rank_experiment(cfg: RankExpConfig, map_fn=map) -> RankExpResult:
    """Stable rank of per-head attention outputs, gated vs ungated.

    ``map_fn`` lets a caller fan the independent seeds out to a process
    pool; aggregation order (and therefore the result) is seed order either way.
    """
    return _run_configs([cfg], map_fn)[0]


@dataclass
class SweepCell:
    config_id: str
    c: float
    rho: float
    result: RankExpResult


def run_robustness_sweep(base: RankExpConfig, c_values=C_SWEEP,
                         rho_values=RHO_SWEEP, map_fn=map) -> list[SweepCell]:
    """Gain across the concentration sweep (at base rho) and the sparsity
    sweep (at c = 1.0); one cell per configuration. Every config is built
    (and so validated) before anything is drawn; ``map_fn`` maps over seeds."""

    def variant(config_id, c, rho):
        try:
            return config_id, replace(base, c=c, rho=rho)
        except ValueError as exc:
            raise ValueError(f"sweep cell {config_id}: {exc}") from None

    cells = [variant(f"c_{c:g}", c, base.rho) for c in c_values]
    cells += [variant(f"rho_{rho:g}", 1.0, rho) for rho in rho_values]
    results = _run_configs([cfg for _, cfg in cells], map_fn=map_fn)
    return [SweepCell(config_id, cfg.c, cfg.rho, result)
            for (config_id, cfg), result in zip(cells, results)]


# ---------------------------------------------------------------------------
# Toy regression task
# ---------------------------------------------------------------------------

TRIANGLE_WEIGHT = 0.25
TRAIN_FRACTION = 0.75


@dataclass
class SyntheticTask:
    train: list[tuple[GraphInstance, float]]
    test: list[tuple[GraphInstance, float]]
    seed: int = 0


def triangle_count(n: int, edges) -> int:
    """Number of undirected triangles: trace(A³) / 6 of the adjacency matrix
    without self-loops, each triangle being 6 closed walks of length 3."""
    adj = np.zeros((n, n), dtype=np.int64)
    for a, b in edges:
        if a != b:
            adj[a, b] = adj[b, a] = 1
    return int(np.trace(adj @ adj @ adj)) // 6


def toy_label(g: GraphInstance) -> float:
    """Weighted triangle count plus the per-node mean feature sum."""
    return TRIANGLE_WEIGHT * triangle_count(g.n, g.edges) + float(g.node_features.sum()) / g.n


def make_toy_task(seed: int, n_graphs: int = 24, nodes_per_graph: int = 8,
                  feature_dim: int = 4, edge_prob: float = 0.35) -> SyntheticTask:
    """Random undirected graphs with a label computable by brute force."""
    if n_graphs < 2 or nodes_per_graph < 1:
        raise ValueError("need at least 2 graphs and 1 node per graph")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = SeededRng(seed)
    n = nodes_per_graph
    upper = np.triu_indices(n, 1)  # each pair's draw, in the order of the scalar draws
    pairs = []
    for _ in range(n_graphs):
        kept = rng.uniform((len(upper[0]),)) < edge_prob
        src, dst = (ix[kept].tolist() for ix in upper)
        edges = [e for i, j in zip(src, dst) for e in ((i, j), (j, i))]
        feats = gaussian_matrix(rng, n, feature_dim, 1.0)
        graph = GraphInstance(n=n, node_features=feats, edges=edges)
        pairs.append((graph, toy_label(graph)))
    n_train = min(max(1, round(TRAIN_FRACTION * n_graphs)), n_graphs - 1)
    return SyntheticTask(train=pairs[:n_train], test=pairs[n_train:], seed=seed)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_seed_csv(path, cells: list[SweepCell]) -> None:
    write_csv(path, "config_id,c,rho,seed,srank_ungated,srank_gated,rel_gain", (
        (cell.config_id, cell.c, cell.rho, s.seed, s.srank_ungated, s.srank_gated,
         s.relative_gain)
        for cell in cells for s in cell.result.per_seed
    ))


def write_aggregate_csv(path, cells: list[SweepCell]) -> None:
    rows = []
    for cell in cells:
        r = cell.result
        rows.append((cell.config_id, cell.c, cell.rho, *r.mean_std("srank_ungated"),
                     *r.mean_std("srank_gated"), r.mean_gain, r.std_gain,
                     r.attained_gate_mean, r.attained_gate_std))
    write_csv(path, "config_id,c,rho,srank_ungated_mean,srank_ungated_std,"
              "srank_gated_mean,srank_gated_std,rel_gain_mean,rel_gain_std,"
              "gate_mean,gate_std", rows)
