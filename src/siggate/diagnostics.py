"""Measurement instruments: stable rank, over-smoothing, entropy, gate stats.

Conventions fixed here (they are not unique in the literature):

* MAD is the mean pairwise cosine distance over all unordered node pairs,
  not restricted to graph neighborhoods; rows with norm < 1e-12 are
  excluded from the pairing because cosine distance is undefined there.
* Attention entropy uses the natural logarithm and ``0 log 0 = 0``; the
  per-layer value is the arithmetic mean over heads.
* Gate statistics can be pooled over the full element distribution
  (layers x heads x entries) or reported per layer; fractions use strict
  thresholds ``< 0.1`` and ``> 0.9``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .gps import LayerTrace
from .numeric import NonFiniteInputError, top_singular_value, write_csv, write_lines

__all__ = [
    "GateStats",
    "DepthProfile",
    "RankBoundReport",
    "stable_rank",
    "mad",
    "attention_entropy",
    "gate_stats",
    "rank_bound_holds",
    "depth_profile",
    "trace_gate_values",
    "write_diagnostics_csv",
    "diagnostics_report",
    "write_diagnostics_json",
]

GATE_LOW = 0.1
GATE_HIGH = 0.9
_ZERO_ROW_TOL = 1e-12


@dataclass
class GateStats:
    mean: float
    std: float
    frac_below: float
    frac_above: float
    count: int


@dataclass
class DepthProfile:
    mad: list[float]
    entropy: list[float]


@dataclass
class RankBoundReport:
    srank_av: float
    srank_a: float
    srank_v: float
    holds: bool


def stable_rank(m):
    """||M||_F^2 / ||M||_2^2 — a continuous effective-rank surrogate.

    A stack ``(K, r, c)`` gives an array of K values, each bitwise what a
    lone call on its matrix gives (see :func:`top_singular_value`): the
    squares are summed matrix by matrix, as a lone call sums them, whatever
    the stack's layout. A finite matrix whose squares overflow, or whose
    sigma^2 underflows, is divided by its top singular value first: its
    value is then ||M / sigma||_F^2.
    """
    m = np.asarray(m, dtype=np.float64)
    top = top_singular_value(m)  # rejects the zero matrix and shapes not 2-D or 3-D
    stack, tops = (m, top) if m.ndim == 3 else (m[None], np.array([top]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # recomputed below
        squares = tops * tops
        ranks = np.array([np.sum(s * s) for s in stack]) / squares
    for i in np.flatnonzero(~np.isfinite(ranks) | (squares < np.finfo(float).tiny)):
        ranks[i] = np.sum(np.square(stack[i] / tops[i]))
    return ranks if m.ndim == 3 else float(ranks[0])


def mad(h) -> float:
    """Mean pairwise cosine distance between rows (all unordered pairs)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 2:
        raise ValueError(f"mad needs an n x d matrix with n >= 2, got shape {h.shape}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(h, axis=1)
    big = ~np.isfinite(norms)
    if big.any():
        if not np.isfinite(h[big]).all():
            raise NonFiniteInputError(f"mad undefined: row {np.argmin(np.isfinite(h).all(axis=1))} "
                                      f"holds a non-finite value")
        # A finite row whose norm overflows: cosine distance does not depend on
        # scale, so divide the row by its largest magnitude first.
        h = h.copy()
        h[big] /= np.abs(h[big]).max(axis=1, keepdims=True)
        norms[big] = np.linalg.norm(h[big], axis=1)
    keep = norms > _ZERO_ROW_TOL
    if keep.sum() < 2:
        raise ValueError("mad undefined: fewer than 2 nonzero rows")
    unit = h[keep] / norms[keep, None]
    sim = unit @ unit.T
    upper = sim[~np.tri(sim.shape[0], dtype=bool)]  # the pairs i < j, row by row
    return float(np.mean(1.0 - upper))


def attention_entropy(a) -> float:
    """Average per-row Shannon entropy (natural log) of a row-stochastic matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"attention matrix must be 2-D, got shape {a.shape}")
    return _entropies(a[None])[0]


def _entropies(stack, layer: int | None = None) -> list[float]:
    """:func:`attention_entropy` of each matrix of a K x n x n stack, bitwise. The
    stack is validated once; each matrix's ``p log p`` then goes to one reused
    n x n buffer, never to a stack-wide temporary. A bad matrix raises what
    its lone call raises, naming ``layer`` and the head when ``layer`` is given."""
    sums = stack.sum(axis=-1)
    lowest = stack.min(axis=(1, 2), initial=np.inf)  # NaN where a is; the row sums name it first
    bad = ~(np.abs(sums - 1.0) <= 1e-6).all(axis=1) | (lowest < 0.0)
    if bad.any():
        k = int(bad.argmax())
        at = "" if layer is None else f"layer {layer}, head {k}: "
        if not np.isfinite(sums[k]).all():
            raise NonFiniteInputError(f"{at}attention_entropy undefined: row "
                                      f"{np.argmin(np.isfinite(sums[k]))} holds a non-finite value")
        raise ValueError(f"{at}invalid attention matrix: rows must be non-negative and sum to 1")
    plogp = np.empty_like(stack[0])  # laid out as the matrices, as np.log(a) would be
    out = []
    for a, low in zip(stack, lowest):
        if low > 0.0:  # every entry positive: the plain log is bitwise the masked one
            np.log(a, out=plogp)
        else:
            plogp.fill(0.0)
            np.log(a, out=plogp, where=a > 0.0)
        plogp *= a
        out.append(float(np.mean(-plogp.sum(axis=1))))
    return out


def _stats_of(values: np.ndarray) -> GateStats:
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not flat.size:
        raise ValueError("gate_stats undefined: a layer holds no gate values")
    mean = float(flat.mean())
    if not np.isfinite(mean):
        raise NonFiniteInputError(f"gate_stats undefined: the gate values have mean {mean}")
    return GateStats(
        mean=mean,
        std=float(flat.std()),
        frac_below=float(np.mean(flat < GATE_LOW)),
        frac_above=float(np.mean(flat > GATE_HIGH)),
        count=int(flat.size),
    )


def gate_stats(gates, pooling: str = "pooled"):
    """Gate-activation statistics.

    ``gates`` is a list with one array of gate values per layer (any
    shape; heads may be stacked). ``pooled`` flattens everything into one
    element distribution; ``per_layer`` returns one GateStats per entry.
    """
    if not gates:
        raise ValueError("gate_stats needs at least one layer of gate values")
    if pooling == "pooled":
        return _stats_of(np.concatenate([np.ravel(g) for g in gates]))
    if pooling == "per_layer":
        return [_stats_of(g) for g in gates]
    raise ValueError(f"pooling must be 'pooled' or 'per_layer', got {pooling!r}")


def rank_bound_holds(a, v, tol: float = 1e-9) -> RankBoundReport:
    """Check srank(AV) <= min(srank(A), srank(V)) + tol for row-stochastic A.

    This product bound holds for exact rank but is not a theorem for
    stable rank: row averaging can cancel V's dominant direction and
    flatten the spectrum. ``holds=False`` is therefore a finding about the
    pair, not an error; the stable ranks are reported as computed, never
    clamped. What does hold is srank(AV) <= min(srank(A), srank(V)) *
    (||A||_2 ||V||_2 / ||AV||_2)^2.
    """
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0.0) or np.any(np.abs(a.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("a must be row-stochastic (non-negative rows summing to 1)")
    sr_a = stable_rank(a)
    sr_v = stable_rank(v)
    sr_av = stable_rank(a @ np.asarray(v, dtype=np.float64))
    return RankBoundReport(
        srank_av=sr_av, srank_a=sr_a, srank_v=sr_v,
        holds=bool(sr_av <= min(sr_a, sr_v) + tol),
    )


def trace_gate_values(trace: LayerTrace) -> list[np.ndarray]:
    """Per-layer gate values, head after head (a shared gate once per head,
    as each head reads it); empty list if ungated. Each is the layer's gate
    stack raveled, a view of it where the stack allows."""
    return [np.broadcast_to(heads.gate, (len(heads), *heads.gate.shape[1:])).ravel()
            for heads in trace.head_traces if heads.gate is not None]


def depth_profile(trace: LayerTrace) -> DepthProfile:
    """Per-layer MAD of hidden states and head-averaged attention entropy,
    the latter read from each layer's attention stack (head axis first)."""
    ents = []
    for i, heads in enumerate(trace.head_traces):
        stack = np.asarray(heads.attention, dtype=np.float64)
        if stack.ndim != 3:  # a batch's K x B x n x n stack: a head's is no matrix
            raise ValueError(f"layer {i}, head 0: attention matrix must be 2-D, "
                             f"got shape {stack.shape[1:]}")
        ents.append(float(np.mean(_entropies(stack, i))))
    return DepthProfile(mad=[mad(h) for h in trace.hidden], entropy=ents)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def write_diagnostics_csv(path, profile: DepthProfile, per_layer, pooled) -> None:
    """CSV layout: one row per layer plus a 'pooled' summary row.

    Gate columns are 'nan' for ungated models. ``per_layer``/``pooled`` may
    be None in that case.
    """
    def gate_cells(gs):
        return ["nan"] * 4 if gs is None else [gs.mean, gs.std, gs.frac_below, gs.frac_above]

    rows = [[i, m, e] + gate_cells(per_layer[i] if per_layer else None)
            for i, (m, e) in enumerate(zip(profile.mad, profile.entropy))]
    if pooled is not None:
        rows.append(["pooled", "nan", "nan"] + gate_cells(pooled))
    write_csv(path, "layer,mad,entropy,gate_mean,gate_std,gate_below,gate_above", rows)


def diagnostics_report(profile: DepthProfile, per_layer, pooled) -> dict:
    return {
        "layers": [
            {
                "layer": i,
                "mad": profile.mad[i],
                "entropy": profile.entropy[i],
                "gate": asdict(per_layer[i]) if per_layer else None,
            }
            for i in range(len(profile.mad))
        ],
        "pooled_gate": asdict(pooled) if pooled is not None else None,
    }


def write_diagnostics_json(path, profile: DepthProfile, per_layer, pooled) -> None:
    report = diagnostics_report(profile, per_layer, pooled)
    write_lines(path, [json.dumps(report, indent=2, sort_keys=True)])
