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

Heads either own their gate parameters (``per_head``) or share a single
set (``shared``). Forward functions accept an optional ``lift``
callable that wraps parameter arrays into autodiff nodes; with the default,
``autodiff.no_tape``, they run as plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .numeric import SeededRng, ShapeError, carve, fill_gaussian

__all__ = [
    "PLACEMENTS",
    "SHARINGS",
    "GATE_ACTIVATIONS",
    "GateConfig",
    "MhsaParams",
    "HeadTrace",
    "gated_head_forward",
    "siggate_mhsa",
    "merge_heads",
    "gate_param_count",
    "mhsa_skeleton",
    "init_mhsa_params",
]

PLACEMENTS = ("none", "g1", "g2", "g3")
SHARINGS = ("per_head", "shared")
GATE_ACTIVATIONS = ("sigmoid", "tanh", "relu", "sigmoid_squared")


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
        if not np.isfinite(self.bias_init):
            raise ValueError(f"bias_init must be finite, got {self.bias_init}")


_QKV = ("w_q", "w_k", "w_v")
_GATE_FIELDS = ("w_g", "w_g2", "b_g")


@dataclass
class MhsaParams:
    """A layer's attention parameters, with the heads stacked along axis 0.

    ``w_q``/``w_k``/``w_v`` are K x d x d_k and ``w_o`` is K·d_k x d_out;
    ``w_g``/``w_g2`` are G x d x d_k and ``b_g`` G x d_k (G x 1 for g3),
    where G = K for per-head gates and G = 1 for a shared gate. A stack the
    placement does not read is None. Head k is slice k of each stack (of a
    shared gate's, slice 0), so a single head is a layer with K = 1. The
    fields follow the carve order of :func:`mhsa_skeleton` (see ``gps.GpsLayerParams``).
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_g: np.ndarray | None = field(default=None, kw_only=True)
    w_g2: np.ndarray | None = field(default=None, kw_only=True)
    b_g: np.ndarray | None = field(default=None, kw_only=True)
    w_o: np.ndarray
    gate: GateConfig = field(default_factory=lambda: GateConfig(placement="none"))

    def stacked_fields(self) -> tuple[str, ...]:
        """The head stacks the gate placement reads."""
        placement = self.gate.placement
        if placement == "none":
            return _QKV
        return _QKV + (_GATE_FIELDS if placement == "g3" else ("w_g", "b_g"))


@dataclass
class HeadTrace:
    """Per-head forward capture: attention matrix, gate values, head output."""

    attention: np.ndarray
    gate: np.ndarray | None
    output: np.ndarray


def _validate_mhsa(n_features: int, params: MhsaParams) -> None:
    shape = np.shape(params.w_q)
    if len(shape) != 3 or not shape[0]:
        raise ShapeError(f"w_q must stack at least one head as K x d x d_k, got shape {shape}")
    k, d, d_k = shape
    if n_features != d:
        raise ShapeError(f"input has {n_features} features but heads expect {d}")
    if params.w_o.shape[0] != k * d_k:
        raise ShapeError(
            f"w_o has {params.w_o.shape[0]} input rows but heads concatenate to {k * d_k}"
        )
    g = 1 if params.gate.sharing == "shared" else k
    expected = {"w_k": (k, d, d_k), "w_v": (k, d, d_k), "w_g": (g, d, d_k),
                "w_g2": (g, d, d_k), "b_g": (g, 1 if params.gate.placement == "g3" else d_k)}
    read = params.stacked_fields()
    for name, want in expected.items():
        stack = getattr(params, name)
        if name not in read:
            if stack is not None:
                raise ValueError(f"placement {params.gate.placement!r} does not read {name}; "
                                 f"it must be None")
        elif stack is None:
            raise ValueError(f"placement {params.gate.placement!r} needs {name}")
        elif np.shape(stack) != want:
            raise ShapeError(f"{name} has shape {np.shape(stack)}, expected {want}")


# ---------------------------------------------------------------------------
# The stacked pass: every head of a layer at once
# ---------------------------------------------------------------------------
#
# Each array below carries the head axis first: Q, K, V and the head
# outputs are K x N x d_k, the logits and attention K x n x n for one graph
# and K x B x n x n for B graphs, and a shared gate has a head axis of 1
# that broadcasts over the K heads. ``np.matmul`` runs the same GEMM on
# each slice that one head's matrix product runs, so every head's values
# are those of a forward on that head alone. A tape-free pass may put a
# stack of copies (of the input or of a parameter stack) on axes before
# the head axis; each copy then runs on slices of these same shapes.


def _stacks(params, names, lift):
    """The lifted stacks ``names`` of a layer's :class:`MhsaParams`."""
    return [lift(getattr(params, name)) for name in names]


def _by_graph(x, n_graphs: int):
    """The K x N x k stack as K x B x n x k, ``n_graphs`` = B graphs of n rows.

    One graph stays K x n x k, so its attention runs on stacked matrices.
    """
    if n_graphs == 1:
        return x
    *lead, rows, cols = ad.value(x).shape
    return ad.reshape(x, (*lead, n_graphs, rows // n_graphs, cols))


def _scores(a, b, d_k: int, n_graphs: int):
    """``a b^T / sqrt(d_k)`` between the rows of each graph, per head."""
    prod = ad.bmm(_by_graph(a, n_graphs), ad.transpose(_by_graph(b, n_graphs)))
    return ad.mul(prod, 1.0 / np.sqrt(d_k))


def _attend(attention, v, n_graphs: int):
    """``attention @ v`` per head and graph, returned as K x N x d_k."""
    out = ad.bmm(attention, _by_graph(v, n_graphs))
    if n_graphs == 1:
        return out
    shape = ad.value(out).shape
    return ad.reshape(out, shape[:-3] + (-1, shape[-1]))


def _softmax(logits, mask):
    """Row softmax of every head's logits; all heads read the same mask."""
    if mask is not None:
        mask = np.tile(mask, (ad.value(logits).size // mask.size, 1))
    return ad.row_softmax(logits, mask)


def _value_gate(h, w_g, b_g, activation: str):
    # G x N x d_k gate values act(H W_g + b_g).
    shape = np.shape(ad.value(b_g))
    b = ad.reshape(b_g, shape[:-1] + (1, shape[-1]))
    return ad.apply_activation(activation, ad.add(ad.bmm(h, w_g), b))


def _logit_gate(h, w_g, w_g2, b_g, activation: str, n_graphs: int):
    # G x (B x) n x n gate matching the logits, from two d x d_k projections.
    d_k = np.shape(ad.value(w_g))[-1]
    z = _scores(ad.bmm(h, w_g), ad.bmm(h, w_g2), d_k, n_graphs)
    trailing = (1, 1) if n_graphs == 1 else (1, 1, 1)
    b = ad.reshape(b_g, np.shape(ad.value(b_g))[:-1] + trailing)
    return ad.apply_activation(activation, ad.add(z, b))


def _heads_pass(h, heads, mask, lift, n_graphs):
    """``(output, attention, gate)`` stacks of every head under the placement."""
    cfg = heads.gate
    placement = cfg.placement
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}")
    if np.ndim(ad.value(h)) > 2:  # tape-free copies of the input: add the head axis
        h = h[..., None, :, :]
    w_q, w_k, w_v = _stacks(heads, _QKV, lift)
    q, k, v = ad.bmm(h, w_q), ad.bmm(h, w_k), ad.bmm(h, w_v)
    raw = _scores(q, k, np.shape(ad.value(w_q))[-1], n_graphs)
    gate = None
    if placement == "g3":
        gate = _logit_gate(h, *_stacks(heads, _GATE_FIELDS, lift), cfg.activation, n_graphs)
        raw = ad.mul(gate, raw)
    attention = _softmax(raw, mask)
    if placement == "g2":
        gate = _value_gate(h, *_stacks(heads, ("w_g", "b_g"), lift), cfg.activation)
        v = ad.mul(gate, v)
    out = _attend(attention, v, n_graphs)
    if placement == "g1":
        gate = _value_gate(h, *_stacks(heads, ("w_g", "b_g"), lift), cfg.activation)
        out = ad.mul(out, gate)
    return out, attention, gate


def gated_head_forward(h, heads: MhsaParams, mask=None, *, lift=ad.no_tape, n_graphs: int = 1):
    """Every head's forward pass under the layer's gate, ``heads.gate``, at once.

    ``heads`` is a layer's :class:`MhsaParams`, whose stacks run all K heads
    in one pass; a single head is a layer with K = 1. Returns ``(output,
    traces)``: the K x N x d_k output stack and one :class:`HeadTrace` per
    head. With placement ``none`` each head is plain scaled dot-product
    attention, ``softmax(Q K^T / sqrt(d_k)) V``, whose attention rows are
    stochastic with masked entries exactly 0.

    ``h`` holds the N = B·n rows of ``n_graphs`` = B graphs of n nodes each;
    nodes attend only within their own graph. ``mask`` is N x n, the graphs'
    n x n masks stacked by rows. Per head, the output and the g1/g2 gate are
    N x d_k, the attention and the g3 gate n x n per graph (B x n x n for
    B > 1).
    """
    out, attention, gate = _heads_pass(h, heads, mask, lift, n_graphs)
    square = 3 if n_graphs == 1 else 4  # axes from the head axis on of an n x n stack
    k = np.shape(ad.value(out))[-3]
    gates = ([None] * k if gate is None
             else _per_head(gate, k, square if heads.gate.placement == "g3" else 3))
    traces = [HeadTrace(attention=a, gate=g, output=o)
              for a, g, o in zip(_per_head(attention, k, square), gates, _per_head(out, k, 3))]
    return out, traces


def _per_head(x, heads: int, axes: int):
    """Each head's part of a stack with its head axis ``axes`` from the end."""
    x = np.asarray(ad.value(x))
    lead = (slice(None),) * (x.ndim - axes)
    return [x[lead + (k if x.shape[-axes] > 1 else 0,)] for k in range(heads)]


def siggate_mhsa(h, params: MhsaParams, mask=None, *, lift=ad.no_tape, n_graphs: int = 1):
    """Gated multi-head attention: concat of gated heads times W_O.

    Returns ``(out, traces)`` where ``out`` is N x d_out and ``traces`` is
    one :class:`HeadTrace` per head in head order. ``h`` holds the rows of
    ``n_graphs`` graphs of equal size (see :func:`gated_head_forward`). All
    heads run as one stacked pass (:func:`gated_head_forward` on ``params``).
    """
    rows, n_features = ad.value(h).shape[-2:]
    _validate_mhsa(n_features, params)
    if n_graphs < 1 or rows % n_graphs:
        raise ShapeError(f"{rows} rows do not split into {n_graphs} graphs of equal size")
    outs, traces = gated_head_forward(h, params, mask, lift=lift, n_graphs=n_graphs)
    return merge_heads(outs, params.w_o, lift=lift), traces


def merge_heads(outs, w_o, *, lift=ad.no_tape):
    """Lay the K x N x d_k head outputs side by side (N x K·d_k) and project by W_O."""
    return ad.matmul(ad.merge_stack(outs), lift(w_o))


def gate_param_count(d: int, d_k: int, n_heads: int, n_layers: int) -> int:
    """Parameters added by per-head output gating: L * K * (d * d_k + d_k)."""
    for name, v in (("d", d), ("d_k", d_k), ("n_heads", n_heads), ("n_layers", n_layers)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative, got {v}")
    return n_layers * n_heads * (d * d_k + d_k)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def mhsa_skeleton(take, d: int, n_heads: int, cfg: GateConfig, *,
                  gate_weight_std: float | None = None):
    """``(params, draws, record)``: a layer's attention laid out by ``take``
    (:func:`numeric.carve`) as each head's Q, K, V, then one record per gate
    (W_g, W_g2 for g3, b_g at ``bias_init``), then W_O; each Gaussian
    block's ``(view, std)`` in draw order: a shared gate, each head's Q, K,
    V and own gate, then W_O, with std 1/sqrt(d) (gate weights:
    ``gate_weight_std`` if given; 0 draws none); and each parameter's
    ``(name, array, k, branch)`` in layout order: ``head{k}.w_q`` (a shared
    gate's ``gate.w_g``) is slice k of a stack, read by branch "heads";
    ``w_o`` by "w_o". Each head is d_k = d / K wide."""
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    if d % n_heads != 0:
        raise ValueError(f"d={d} is not divisible by n_heads={n_heads}")
    d_k = d // n_heads
    qkv = take(n_heads, len(_QKV), d, d_k)
    stacks = {name: qkv[:, i] for i, name in enumerate(_QKV)}
    record = [(f"head{k}.{name}", stacks[name], k, "heads")
              for k in range(n_heads) for name in _QKV]
    weights = ()
    shared = cfg.sharing == "shared"
    if cfg.placement != "none":
        weights = _GATE_FIELDS[:2 if cfg.placement == "g3" else 1]
        size = d * d_k
        records = take(1 if shared else n_heads,
                       len(weights) * size + (1 if cfg.placement == "g3" else d_k))
        for i, name in enumerate(weights):
            stacks[name] = records[:, i * size:(i + 1) * size].reshape(-1, d, d_k)
        stacks["b_g"] = records[:, len(weights) * size:]
        stacks["b_g"][...] = float(cfg.bias_init)
        record += [(f"{'gate' if shared else f'head{g}'}.{name}", stacks[name], g, "heads")
                   for g in range(len(records)) for name in (*weights, "b_g")]
    std = 1.0 / np.sqrt(d)
    gate_std = std if gate_weight_std is None else gate_weight_std

    def gate(g):
        return [(stacks[name][g], gate_std) for name in weights] if gate_std else []

    draws = gate(0) if shared else []
    for k in range(n_heads):
        draws += [(stacks[name][k], std) for name in _QKV] + ([] if shared else gate(k))
    params = MhsaParams(w_o=take(n_heads * d_k, d), gate=cfg, **stacks)
    record.append(("w_o", params.w_o, None, "w_o"))
    return params, draws + [(params.w_o, std)], record


def init_mhsa_params(rng: SeededRng, d: int, n_heads: int, cfg: GateConfig, *,
                     gate_weight_std: float | None = None) -> MhsaParams:
    """MHSA parameters on a vector of their own, drawn in one pass
    (:func:`mhsa_skeleton`)."""
    (params, draws, _), _ = carve(lambda take: mhsa_skeleton(
        take, d, n_heads, cfg, gate_weight_std=gate_weight_std))
    fill_gaussian(rng, draws)
    return params
