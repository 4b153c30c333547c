"""Scaled dot-product attention and its sigmoid-gated variants.

Gate placements:

* ``g1`` — gate the attention output per head: ``(A V) ⊙ g`` with
  ``g = act(H W_g + b_g)`` of shape n x d_k. This is the default.
* ``g2`` — gate the values before attention: ``A (g ⊙ V)``.
* ``g3`` — gate the pre-softmax logits: ``softmax(g' ⊙ Q K^T / sqrt(d_k)) V``.
  The logits are n x n, so the gate is built bilinearly from two auxiliary
  d x d_k projections plus a scalar bias:
  ``g' = act((H W_g)(H W_g2)^T / sqrt(d_k) + b)``.
* ``none`` — plain softmax attention.

Heads either own their gate parameters (``per_head``) or alias a single
shared set (``shared``). Forward functions accept an optional ``lift``
callable that wraps parameter arrays into autodiff nodes; without it they
run as plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .numeric import SeededRng, ShapeError, gaussian_matrix

__all__ = [
    "PLACEMENTS",
    "SHARINGS",
    "GATE_ACTIVATIONS",
    "GateConfig",
    "HeadParams",
    "MhsaParams",
    "HeadTrace",
    "sdpa",
    "compute_gate",
    "gated_head_forward",
    "siggate_mhsa",
    "merge_heads",
    "gate_param_count",
    "init_head_params",
    "init_mhsa_params",
]

PLACEMENTS = ("none", "g1", "g2", "g3")
SHARINGS = ("per_head", "shared")
GATE_ACTIVATIONS = ("sigmoid", "tanh", "relu", "sigmoid_squared")


def _identity(x):
    return x


@dataclass
class GateConfig:
    """Where and how the gate is applied."""

    placement: str = "g1"
    sharing: str = "per_head"
    activation: str = "sigmoid"
    bias_init: float = 0.5

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.sharing not in SHARINGS:
            raise ValueError(f"sharing must be one of {SHARINGS}, got {self.sharing!r}")
        if self.activation not in GATE_ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {GATE_ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass
class HeadParams:
    """Projections for one attention head; gate fields unused when ungated."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_g: np.ndarray | None = None
    w_g2: np.ndarray | None = None
    b_g: np.ndarray | None = None


@dataclass
class MhsaParams:
    heads: list[HeadParams]
    w_o: np.ndarray
    gate: GateConfig = field(default_factory=lambda: GateConfig(placement="none"))

    @property
    def d(self) -> int:
        return self.heads[0].w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.heads[0].w_q.shape[1]


@dataclass
class HeadTrace:
    """Per-head forward capture: attention matrix, gate values, head output."""

    attention: np.ndarray
    gate: np.ndarray | None
    output: np.ndarray


def _validate_mhsa(n_features: int, params: MhsaParams) -> None:
    if not params.heads:
        raise ValueError("MhsaParams needs at least one head")
    d, d_k = params.heads[0].w_q.shape
    if n_features != d:
        raise ShapeError(f"input has {n_features} features but heads expect {d}")
    for i, head in enumerate(params.heads):
        for name in ("w_q", "w_k", "w_v"):
            shape = getattr(head, name).shape
            if shape != (d, d_k):
                raise ShapeError(f"head {i}.{name} has shape {shape}, expected {(d, d_k)}")
    k = len(params.heads)
    if params.w_o.shape[0] != k * d_k:
        raise ShapeError(
            f"w_o has {params.w_o.shape[0]} input rows but heads concatenate to {k * d_k}"
        )
    cfg = params.gate
    if cfg.placement == "none":
        return
    for i, head in enumerate(params.heads):
        if head.w_g is None or head.b_g is None:
            raise ValueError(f"placement {cfg.placement!r} needs gate params on head {i}")
        if head.w_g.shape != (d, d_k):
            raise ShapeError(f"head {i}.w_g has shape {head.w_g.shape}, expected {(d, d_k)}")
        if cfg.placement == "g3":
            if head.w_g2 is None:
                raise ShapeError(f"placement 'g3' needs a second gate projection on head {i}")
            if head.w_g2.shape != (d, d_k):
                raise ShapeError(
                    f"head {i}.w_g2 has shape {head.w_g2.shape}, expected {(d, d_k)}"
                )
            if np.shape(head.b_g) != (1,):
                raise ShapeError("g3 gate bias must be a single scalar, shape (1,)")
        elif np.shape(head.b_g) != (d_k,):
            raise ShapeError(f"gate bias must have shape ({d_k},), got {np.shape(head.b_g)}")
    if cfg.sharing == "shared":
        first = params.heads[0]
        for i, head in enumerate(params.heads[1:], start=1):
            if head.w_g is not first.w_g or head.b_g is not first.b_g:
                raise ValueError(f"sharing is 'shared' but head {i} has its own gate params")


def _projections(h, head: HeadParams, lift):
    lf = lift or _identity
    q = ad.matmul(h, lf(head.w_q))
    k = ad.matmul(h, lf(head.w_k))
    v = ad.matmul(h, lf(head.w_v))
    return q, k, v


def _by_graph(x, n_graphs: int):
    """The rows of an N x k array as ``n_graphs`` stacked n x k matrices.

    One graph stays a matrix, so its attention runs on plain matrices.
    """
    if n_graphs == 1:
        return x
    rows, cols = ad.value(x).shape
    return ad.reshape(x, (n_graphs, rows // n_graphs, cols))


def _scores(a, b, d_k: int, n_graphs: int):
    """``a b^T / sqrt(d_k)`` between the rows of each graph: n x n per graph."""
    prod = ad.bmm(_by_graph(a, n_graphs), ad.transpose(_by_graph(b, n_graphs)))
    return ad.mul(prod, 1.0 / np.sqrt(d_k))


def _attend(attention, v, n_graphs: int):
    """``attention @ v`` per graph, returned as N x d_k rows."""
    out = ad.bmm(attention, _by_graph(v, n_graphs))
    if n_graphs == 1:
        return out
    return ad.reshape(out, (-1, ad.value(out).shape[-1]))


def sdpa(h, head: HeadParams, mask=None, *, lift=None, n_graphs: int = 1):
    """Standard scaled dot-product attention for one head.

    Returns ``(attention, y)`` with ``attention = softmax(Q K^T / sqrt(d_k))``
    (row-stochastic, masked entries exactly 0) and ``y = attention @ V``.
    ``h`` holds the N = B·n rows of ``n_graphs`` = B graphs of n nodes each;
    nodes attend only within their own graph. For B > 1 the attention is
    B x n x n; ``mask`` is N x n, the graphs' n x n masks stacked by rows.
    """
    q, k, v = _projections(h, head, lift)
    d_k = head.w_q.shape[1]
    attention = ad.row_softmax(_scores(q, k, d_k, n_graphs), mask)
    return attention, _attend(attention, v, n_graphs)


def compute_gate(h, head: HeadParams, activation: str, *, lift=None):
    """N x d_k gate values: ``act(H W_g + b_g)``."""
    lf = lift or _identity
    z = ad.add(ad.matmul(h, lf(head.w_g)), lf(head.b_g))
    return ad.apply_activation(activation, z)


def _logit_gate(h, head: HeadParams, activation: str, n_graphs: int, *, lift=None):
    # n x n gate per graph matching the logit shape, from two d x d_k projections.
    lf = lift or _identity
    d_k = head.w_g.shape[1]
    left = ad.matmul(h, lf(head.w_g))
    right = ad.matmul(h, lf(head.w_g2))
    z = _scores(left, right, d_k, n_graphs)
    return ad.apply_activation(activation, ad.add(z, lf(head.b_g)))


def _override_gate(shape, gate_override):
    if gate_override == "ones":
        return np.ones(shape)
    if gate_override == "zeros":
        return np.zeros(shape)
    raise ValueError(f"gate_override must be 'ones', 'zeros' or None, got {gate_override!r}")


def gated_head_forward(h, head: HeadParams, cfg: GateConfig, mask=None, *,
                       lift=None, gate_override=None, n_graphs: int = 1):
    """One head's forward pass under the configured gate placement.

    Returns ``(output, HeadTrace)``. ``gate_override`` replaces the computed
    gate with exact all-ones/all-zeros constants; it exists so the limit
    cases can be expressed without pushing biases to saturation. ``h``,
    ``mask`` and ``n_graphs`` are as in :func:`sdpa`; the output and the
    g1/g2 gate are N x d_k, the attention and the g3 gate n x n per graph.
    """
    placement = cfg.placement if cfg is not None else "none"

    if placement == "none":
        attention, out = sdpa(h, head, mask, lift=lift, n_graphs=n_graphs)
        gate = None
    elif placement == "g1":
        attention, y = sdpa(h, head, mask, lift=lift, n_graphs=n_graphs)
        gate = (_override_gate(ad.value(y).shape, gate_override) if gate_override
                else compute_gate(h, head, cfg.activation, lift=lift))
        out = ad.mul(y, gate)
    elif placement == "g2":
        q, k, v = _projections(h, head, lift)
        attention = ad.row_softmax(_scores(q, k, head.w_q.shape[1], n_graphs), mask)
        gate = (_override_gate(ad.value(v).shape, gate_override) if gate_override
                else compute_gate(h, head, cfg.activation, lift=lift))
        out = _attend(attention, ad.mul(gate, v), n_graphs)
    elif placement == "g3":
        q, k, v = _projections(h, head, lift)
        raw = _scores(q, k, head.w_q.shape[1], n_graphs)
        gate = (_override_gate(ad.value(raw).shape, gate_override) if gate_override
                else _logit_gate(h, head, cfg.activation, n_graphs, lift=lift))
        attention = ad.row_softmax(ad.mul(gate, raw), mask)
        out = _attend(attention, v, n_graphs)
    else:  # pragma: no cover - GateConfig validates placements
        raise ValueError(f"unknown placement {placement!r}")

    trace = HeadTrace(
        attention=np.asarray(ad.value(attention)),
        gate=None if gate is None else np.asarray(ad.value(gate)),
        output=np.asarray(ad.value(out)),
    )
    return out, trace


def siggate_mhsa(h, params: MhsaParams, mask=None, *, lift=None, gate_override=None,
                 n_graphs: int = 1):
    """Gated multi-head attention: concat of gated heads times W_O.

    Returns ``(out, traces)`` where ``out`` is N x d_out and ``traces`` is
    one :class:`HeadTrace` per head in head order. ``h`` holds the rows of
    ``n_graphs`` graphs of equal size (see :func:`sdpa`).
    """
    rows, n_features = ad.value(h).shape
    _validate_mhsa(n_features, params)
    if n_graphs < 1 or rows % n_graphs:
        raise ShapeError(f"{rows} rows do not split into {n_graphs} graphs of equal size")
    outs = []
    traces = []
    for head in params.heads:
        out_k, trace = gated_head_forward(
            h, head, params.gate, mask, lift=lift, gate_override=gate_override,
            n_graphs=n_graphs,
        )
        outs.append(out_k)
        traces.append(trace)
    return merge_heads(outs, params.w_o, lift=lift), traces


def merge_heads(outs, w_o, *, lift=None):
    """Concatenate the per-head outputs along features and project by W_O."""
    lf = lift or _identity
    merged = outs[0] if len(outs) == 1 else ad.concat(outs, axis=1)
    return ad.matmul(merged, lf(w_o))


def gate_param_count(d: int, d_k: int, n_heads: int, n_layers: int) -> int:
    """Parameters added by per-head output gating: L * K * (d * d_k + d_k)."""
    for name, v in (("d", d), ("d_k", d_k), ("n_heads", n_heads), ("n_layers", n_layers)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative, got {v}")
    return n_layers * n_heads * (d * d_k + d_k)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _init_gate_arrays(rng: SeededRng, d: int, d_k: int, cfg: GateConfig,
                      gate_weight_std: float | None):
    std = (1.0 / np.sqrt(d)) if gate_weight_std is None else gate_weight_std
    if std == 0.0:
        w_g = np.zeros((d, d_k))
        w_g2 = np.zeros((d, d_k)) if cfg.placement == "g3" else None
    else:
        w_g = gaussian_matrix(rng, d, d_k, std)
        w_g2 = gaussian_matrix(rng, d, d_k, std) if cfg.placement == "g3" else None
    b_g = np.full(1 if cfg.placement == "g3" else d_k, float(cfg.bias_init))
    return w_g, w_g2, b_g


def init_head_params(rng: SeededRng, d: int, d_k: int, cfg: GateConfig, *,
                     gate_weight_std: float | None = None,
                     shared_gate: tuple | None = None) -> HeadParams:
    """Head init: Q/K/V Gaussian with std 1/sqrt(d); gate bias at ``bias_init``."""
    std = 1.0 / np.sqrt(d)
    w_q = gaussian_matrix(rng, d, d_k, std)
    w_k = gaussian_matrix(rng, d, d_k, std)
    w_v = gaussian_matrix(rng, d, d_k, std)
    head = HeadParams(w_q, w_k, w_v)
    if cfg.placement != "none":
        if shared_gate is not None:
            head.w_g, head.w_g2, head.b_g = shared_gate
        else:
            head.w_g, head.w_g2, head.b_g = _init_gate_arrays(rng, d, d_k, cfg, gate_weight_std)
    return head


def init_mhsa_params(rng: SeededRng, d: int, n_heads: int, cfg: GateConfig, *,
                     d_k: int | None = None,
                     gate_weight_std: float | None = None) -> MhsaParams:
    """Build MHSA parameters. ``d_k`` defaults to d / n_heads (must divide)."""
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    if d_k is None:
        if d % n_heads != 0:
            raise ValueError(f"d={d} is not divisible by n_heads={n_heads}; pass d_k explicitly")
        d_k = d // n_heads
    shared_gate = None
    if cfg.placement != "none" and cfg.sharing == "shared":
        shared_gate = _init_gate_arrays(rng, d, d_k, cfg, gate_weight_std)
    heads = [
        init_head_params(rng, d, d_k, cfg, gate_weight_std=gate_weight_std,
                         shared_gate=shared_gate)
        for _ in range(n_heads)
    ]
    w_o = gaussian_matrix(rng, n_heads * d_k, d, 1.0 / np.sqrt(d))
    return MhsaParams(heads=heads, w_o=w_o, gate=cfg)
