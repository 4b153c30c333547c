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
set (``shared``). The forward functions are forms on plain arrays, as
autodiff's ops are: each returns its value and traces with ``back``, the
map from its output's gradient to its input's and its arrays' terms, which
a GPS layer's tape node calls.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    "HeadTraces",
    "gated_head_forward",
    "siggate_mhsa",
    "gate_param_count",
    "mhsa_skeleton",
    "init_mhsa_params",
]

PLACEMENTS = ("none", "g1", "g2", "g3")
SHARINGS = ("per_head", "shared")
GATE_ACTIVATIONS = tuple(ad.ACTIVATIONS)


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


class HeadTraces(Sequence):
    """A layer's :class:`HeadTrace` per head, kept as the pass's stacks: the
    attention, the gate (None ungated) and the K x N x d_k output. A stack's head
    axis is 3 from the end, plus one per axis it has beyond the output's (the graph
    axis of an n x n stack over B > 1 graphs; copies of the input give every stack
    the same copy axes). The first read makes every head's trace, of views of
    slice k of each stack (slice 0 of a shared gate's, whose head axis is 1)."""

    __slots__ = ("attention", "gate", "output", "_heads")

    def __init__(self, attention, gate, output):
        self.attention, self.gate, self.output = attention, gate, output
        self._heads = None

    def __len__(self) -> int:
        return self.output.shape[-3]

    def __getitem__(self, k):
        if self._heads is None:
            n = len(self)
            self._heads = [HeadTrace(*t) for t in zip(*(
                [None] * n if x is None else _per_head(x, n, 3 + x.ndim - self.output.ndim)
                for x in (self.attention, self.gate, self.output)))]
        return self._heads[k]

    def split(self, n_graphs: int) -> list["HeadTraces"]:
        """Each graph's traces of a tape-free pass over ``n_graphs`` > 1 graphs:
        a stack of rows is reshaped once to K x B x n x k, then each graph
        takes its slice of every stack."""
        a, g, o = (x if x is None or x.ndim > self.output.ndim else _by_graph(x, n_graphs)
                   for x in (self.attention, self.gate, self.output))
        return [HeadTraces(a[:, b], None if g is None else g[:, b], o[:, b])
                for b in range(n_graphs)]


def _per_head(x, heads: int, axes: int):
    """Each head's part of a stack with its head axis ``axes`` from the end."""
    lead = (slice(None),) * (x.ndim - axes)
    return [x[lead + (k if x.shape[-axes] > 1 else 0,)] for k in range(heads)]


def _validate_mhsa(n_features: int, params: MhsaParams) -> None:
    """Check the stacks' shapes: the last axes of each, so that a tape-free
    pass may stack copies of an array on axes before them."""
    shape = np.shape(params.w_q)
    if len(shape) < 3 or not shape[-3]:
        raise ShapeError(f"w_q must stack at least one head as K x d x d_k, got shape {shape}")
    k, d, d_k = shape[-3:]
    if n_features != d:
        raise ShapeError(f"input has {n_features} features but heads expect {d}")
    if np.shape(params.w_o)[-2] != k * d_k:
        raise ShapeError(
            f"w_o has {np.shape(params.w_o)[-2]} input rows but heads concatenate to {k * d_k}"
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
        elif np.shape(stack)[-len(want):] != want:
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


def _by_graph(x, n_graphs: int):
    """The K x N x k stack as K x B x n x k, ``n_graphs`` = B graphs of n rows.

    One graph stays K x n x k, so its attention runs on stacked matrices.
    """
    if n_graphs == 1:
        return x
    *lead, rows, cols = x.shape
    return x.reshape((*lead, n_graphs, rows // n_graphs, cols))


def _scores(a, b, d_k: int, n_graphs: int):
    """``(a b^T / sqrt(d_k), back)`` between the rows of each graph, per head;
    ``back`` maps the scores' gradient to the gradients of ``a`` and ``b``."""
    prod, prod_back = ad.matmul_vjp(_by_graph(a, n_graphs),
                                    _by_graph(b, n_graphs).swapaxes(-1, -2))
    scale = 1.0 / np.sqrt(d_k)

    def back(g):
        da, db_t = prod_back(g * scale)
        return da.reshape(a.shape), db_t.swapaxes(-1, -2).reshape(b.shape)

    return np.multiply(prod, scale, out=prod), back


def _softmax(logits, mask):
    """``(P, back)`` of every head's row softmax; all heads read the same mask.
    P overwrites the logits, a fresh stack that no ``back`` reads."""
    if mask is not None:
        mask = np.tile(mask, (logits.size // mask.size, 1))
    return ad.row_softmax_vjp(logits, mask, out=logits)


def _gate(h, stacks, cfg: GateConfig, n_graphs: int):
    """``(gate, back)``: g1/g2's G x N x d_k act(H W_g + b_g), or g3's G x (B x)
    n x n gate; ``back(dgate)`` is ``(h's terms, the gate stacks' gradients)``."""
    w_g, b_g = stacks["w_g"], stacks["b_g"]
    z, z_back = ad.matmul_vjp(h, w_g)
    trailing = (1, b_g.shape[-1])
    if cfg.placement == "g3":
        z2, z2_back = ad.matmul_vjp(h, stacks["w_g2"])
        z, scores_back = _scores(z, z2, w_g.shape[-1], n_graphs)
        trailing = (1, 1) if n_graphs == 1 else (1, 1, 1)
    pre, bias_back = ad.add_vjp(z, b_g.reshape(b_g.shape[:-1] + trailing))
    gate, act_back = ad.activation_vjp(cfg.activation, pre)

    def back(dgate):
        dz, db = bias_back(*act_back(dgate))
        if cfg.placement != "g3":
            dh, dw_g = z_back(dz)
            return [dh], [dw_g, db.reshape(b_g.shape)]
        dz1, dz2 = scores_back(dz)
        (dh1, dw_g), (dh2, dw_g2) = z_back(dz1), z2_back(dz2)
        return [dh1, dh2], [dw_g, dw_g2, db.reshape(b_g.shape)]

    return gate, back


def _heads_pass(h, cfg: GateConfig, stacks, mask, n_graphs):
    """``(output, attention, gate, back)`` of every head, on the plain arrays
    ``stacks`` (by field name). ``back(g)`` gives ``h``'s term for each of
    its products, in the order an op-by-op tape summed them (Q, K, V, gate
    for g1/none; Q, K, gate, V for g2; W_g, W_g2, Q, K, V for g3), then each
    stack's gradient in field order, all from the ``back`` of each op's form."""
    placement = cfg.placement
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}")
    if np.ndim(h) > 2:  # tape-free copies of the input: add the head axis
        h = h[..., None, :, :]
    (q, q_back), (k, k_back), (v, v_back) = (ad.matmul_vjp(h, stacks[name]) for name in _QKV)
    raw, scores_back = _scores(q, k, stacks["w_q"].shape[-1], n_graphs)
    gate = None
    if placement == "g3":
        gate, gate_back = _gate(h, stacks, cfg, n_graphs)
        raw, gated_back = ad.mul_vjp(gate, raw)
    attention, softmax_back = _softmax(raw, mask)
    if placement == "g2":
        gate, gate_back = _gate(h, stacks, cfg, n_graphs)
        v, gated_back = ad.mul_vjp(gate, v)
    out_b, out_back = ad.matmul_vjp(attention, _by_graph(v, n_graphs))
    out = out_b.reshape(out_b.shape[:-3] + (-1, out_b.shape[-1])) if n_graphs > 1 else out_b
    if placement == "g1":
        gate, gate_back = _gate(h, stacks, cfg, n_graphs)
        out, gated_back = ad.mul_vjp(out, gate)

    def back(g):
        if placement == "g1":
            g, dgate = gated_back(g)
        dp, dv_b = out_back(g.reshape(out_b.shape))
        dv = dv_b.reshape(v.shape)
        if placement == "g2":
            dgate, dv = gated_back(dv)
        draw, = softmax_back(dp)
        if placement == "g3":
            dgate, draw = gated_back(draw)
        (dh_q, dw_q), (dh_k, dw_k), (dh_v, dw_v) = (
            f(d) for f, d in zip((q_back, k_back, v_back), (*scores_back(draw), dv)))
        terms, grads = [dh_q, dh_k, dh_v], [dw_q, dw_k, dw_v]
        if gate is not None:
            dh_gate, gate_grads = gate_back(dgate)
            at = {"g1": 3, "g2": 2, "g3": 0}[placement]
            terms[at:at] = dh_gate
            grads += gate_grads
        return terms + grads

    return out, attention, gate, back


def gated_head_forward(h, heads: MhsaParams, mask=None, *, n_graphs: int = 1):
    """Every head's forward pass under the layer's gate, ``heads.gate``, at once.

    ``heads`` is a layer's :class:`MhsaParams`, whose stacks run all K heads
    in one pass; a single head is a layer with K = 1. Returns ``(output,
    traces, back)``: the K x N x d_k output stack, the :class:`HeadTraces` of
    its heads, and the form's ``back`` (see :func:`_heads_pass`). With placement
    ``none`` each head is plain scaled dot-product attention,
    ``softmax(Q K^T / sqrt(d_k)) V``, whose attention rows are stochastic
    with masked entries exactly 0.

    ``h`` holds the N = B·n rows of ``n_graphs`` = B graphs of n nodes each;
    nodes attend only within their own graph. ``mask`` is N x n, the graphs'
    n x n masks stacked by rows. Per head, the output and the g1/g2 gate are
    N x d_k, the attention and the g3 gate n x n per graph (B x n x n for
    B > 1).
    """
    rows, n_features = np.shape(h)[-2:]
    _validate_mhsa(n_features, heads)
    if n_graphs < 1 or rows % n_graphs:
        raise ShapeError(f"{rows} rows do not split into {n_graphs} graphs of equal size")
    if mask is not None and np.shape(mask) != (rows, rows // n_graphs):
        raise ShapeError(f"mask has shape {np.shape(mask)}, expected {(rows, rows // n_graphs)}")
    names = heads.stacked_fields()
    out, attention, gate, back = _heads_pass(
        h, heads.gate, {name: getattr(heads, name) for name in names}, mask, n_graphs)
    return out, HeadTraces(attention, gate, out), back


def siggate_mhsa(h, params: MhsaParams, mask=None, *, n_graphs: int = 1):
    """Gated multi-head attention: concat of gated heads times W_O.

    Returns ``(out, traces, back)``: ``out`` is N x d_out, ``traces`` the
    :class:`HeadTraces` of the heads, in head order, and ``back(g)`` gives ``h``'s
    terms and the stacks' gradients as :func:`gated_head_forward`'s
    ``back`` does, then W_O's. ``h`` holds the rows of ``n_graphs`` graphs
    of equal size (see :func:`gated_head_forward`). All heads run as one
    stacked pass (:func:`gated_head_forward` on ``params``).
    """
    outs, traces, heads_back = gated_head_forward(h, params, mask, n_graphs=n_graphs)
    merged, merge_back = ad.merge_stack_vjp(outs)
    out, out_back = ad.matmul_vjp(merged, params.w_o)

    def back(g):
        dmerged, dw_o = out_back(g)
        return [*heads_back(*merge_back(dmerged)), dw_o]

    return out, traces, back


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
    ``(name, array, k)`` in layout order: ``head{k}.w_q`` (a shared gate's
    ``gate.w_g``) is slice k of a stack, ``w_o`` (k None) a plain array.
    Each head is d_k = d / K wide."""
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    if d % n_heads != 0:
        raise ValueError(f"d={d} is not divisible by n_heads={n_heads}")
    d_k = d // n_heads
    qkv = take(n_heads, len(_QKV), d, d_k)
    stacks = {name: qkv[:, i] for i, name in enumerate(_QKV)}
    record = [(f"head{k}.{name}", stacks[name], k)
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
        record += [(f"{'gate' if shared else f'head{g}'}.{name}", stacks[name], g)
                   for g in range(len(records)) for name in (*weights, "b_g")]
    std = 1.0 / np.sqrt(d)
    gate_std = std if gate_weight_std is None else gate_weight_std

    def gate(g):
        return [(stacks[name][g], gate_std) for name in weights] if gate_std else []

    draws = gate(0) if shared else []
    for k in range(n_heads):
        draws += [(stacks[name][k], std) for name in _QKV] + ([] if shared else gate(k))
    params = MhsaParams(w_o=take(n_heads * d_k, d), gate=cfg, **stacks)
    record.append(("w_o", params.w_o, None))
    return params, draws + [(params.w_o, std)], record


def init_mhsa_params(rng: SeededRng, d: int, n_heads: int, cfg: GateConfig, *,
                     gate_weight_std: float | None = None) -> MhsaParams:
    """MHSA parameters on a vector of their own, drawn in one pass
    (:func:`mhsa_skeleton`)."""
    (params, draws, _), _ = carve(lambda take: mhsa_skeleton(
        take, d, n_heads, cfg, gate_weight_std=gate_weight_std))
    fill_gaussian(rng, draws)
    return params
