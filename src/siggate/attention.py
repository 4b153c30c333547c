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

from dataclasses import dataclass, field, replace

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


_QKV = ("w_q", "w_k", "w_v")
_GATE_FIELDS = ("w_g", "w_g2", "b_g")


@dataclass
class HeadParams:
    """Projections for one attention head; gate fields unused when ungated.

    Inside an :class:`MhsaParams` every field is a view of the head's slice
    of the layer's stacked array.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_g: np.ndarray | None = None
    w_g2: np.ndarray | None = None
    b_g: np.ndarray | None = None


@dataclass
class MhsaParams:
    """A layer's attention parameters, with the heads stacked along axis 0.

    ``w_q``/``w_k``/``w_v`` are K x d x d_k, ``w_g``/``w_g2`` G x d x d_k and
    ``b_g`` G x d_k (G x 1 for g3), where G = K for per-head gates and G = 1
    for shared ones; the stacks a placement does not read are None. Each
    head's field is a persistent view of its slice: ``heads[k].w_q`` is
    ``w_q[k]``, and with shared gates every head holds the one view
    ``w_g[0]``. Writing into either array is therefore seen by both.

    On construction, head fields that already are the consecutive slices of
    one stack (``MhsaParams(heads=other.heads, ...)``) adopt that stack
    without copying. Any other fields are copied into a new stack, and the
    heads list gets copies of those heads that view it; the head objects
    passed in are not modified. A head field replaced after construction is
    rejected by :func:`siggate_mhsa`.
    """

    heads: list[HeadParams]
    w_o: np.ndarray
    gate: GateConfig = field(default_factory=lambda: GateConfig(placement="none"))
    w_q: np.ndarray | None = field(default=None, init=False, repr=False)
    w_k: np.ndarray | None = field(default=None, init=False, repr=False)
    w_v: np.ndarray | None = field(default=None, init=False, repr=False)
    w_g: np.ndarray | None = field(default=None, init=False, repr=False)
    w_g2: np.ndarray | None = field(default=None, init=False, repr=False)
    b_g: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.heads = list(self.heads)
        self._views: dict[str, list[np.ndarray]] = {}
        for name in self.stacked_fields():
            self._stack(name)

    def __setstate__(self, state):
        # Pickling and deepcopy copy views as independent arrays: restack.
        self.__dict__.update(state)
        self.__post_init__()

    def stacked_fields(self) -> tuple[str, ...]:
        """The head fields the gate placement reads, each held as a stack."""
        placement = self.gate.placement
        if placement == "none":
            return _QKV
        return _QKV + (_GATE_FIELDS if placement == "g3" else ("w_g", "b_g"))

    def _stack(self, name: str) -> None:
        arrays = [getattr(head, name) for head in self.heads]
        shared = self.gate.sharing == "shared" and name in _GATE_FIELDS
        if shared and any(a is not arrays[0] for a in arrays[1:]):
            return  # siggate_mhsa names the head with its own gate params
        members = arrays[:1] if shared else arrays
        if not members or any(a is None for a in members) \
                or len({np.shape(a) for a in members}) != 1:
            return  # siggate_mhsa reports the missing or misshapen field
        stack = _stack_of(members)
        if stack is None:
            stack = np.stack(members)
            members = list(stack)
            for i, head in enumerate(self.heads):
                self.heads[i] = replace(head, **{name: members[0 if shared else i]})
        setattr(self, name, stack)
        self._views[name] = [members[0 if shared else i] for i in range(len(self.heads))]

    @property
    def d(self) -> int:
        return self.heads[0].w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.heads[0].w_q.shape[1]


def _stack_of(arrays):
    """The stack whose consecutive slices ``arrays`` are, or None."""
    base = getattr(arrays[0], "base", None)
    if not isinstance(base, np.ndarray) or base.shape != (len(arrays),) + arrays[0].shape:
        return None
    for k, arr in enumerate(arrays):
        if arr.base is not base or arr.__array_interface__ != base[k].__array_interface__:
            return None
    return base


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
        for name in _QKV:
            shape = getattr(head, name).shape
            if shape != (d, d_k):
                raise ShapeError(f"head {i}.{name} has shape {shape}, expected {(d, d_k)}")
    k = len(params.heads)
    if params.w_o.shape[0] != k * d_k:
        raise ShapeError(
            f"w_o has {params.w_o.shape[0]} input rows but heads concatenate to {k * d_k}"
        )
    cfg = params.gate
    if cfg.placement != "none":
        _validate_gates(params, d, d_k)
    for name in params.stacked_fields():
        stack = getattr(params, name)
        views = params._views.get(name, ())
        for i, head in enumerate(params.heads):
            if i >= len(views) or getattr(head, name) is not views[i] \
                    or views[i].base is not stack:
                raise ValueError(
                    f"head {i}.{name} is not a view of the layer's stacked {name}; "
                    f"write new values into the head's array in place"
                )


def _validate_gates(params: MhsaParams, d: int, d_k: int) -> None:
    cfg = params.gate
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


# ---------------------------------------------------------------------------
# The stacked pass: every head of a layer at once
# ---------------------------------------------------------------------------
#
# Each array below carries the head axis first: Q, K, V and the head
# outputs are K x N x d_k, the logits and attention K x n x n for one graph
# and K x B x n x n for B graphs, and a shared gate has a head axis of 1
# that broadcasts over the K heads. ``np.matmul`` runs the same GEMM on
# each slice that one head's matrix product runs, so every head's values
# are those of a forward on that head alone.


def _stacks(heads, names, lift):
    """The lifted stacks ``names`` of a layer's :class:`MhsaParams`, or the
    arrays of one :class:`HeadParams` as stacks of one."""
    lf = lift or _identity
    if isinstance(heads, HeadParams):
        return [ad.reshape(lf(arr), (1,) + np.shape(arr))
                for arr in (getattr(heads, name) for name in names)]
    return [lf(getattr(heads, name)) for name in names]


def _one_head(x, heads):
    """Drop the head axis of a stack of one computed for a lone head."""
    if isinstance(heads, HeadParams):
        return ad.reshape(x, np.shape(ad.value(x))[1:])
    return x


def _by_graph(x, n_graphs: int):
    """The K x N x k stack as K x B x n x k, ``n_graphs`` = B graphs of n rows.

    One graph stays K x n x k, so its attention runs on stacked matrices.
    """
    if n_graphs == 1:
        return x
    heads, rows, cols = ad.value(x).shape
    return ad.reshape(x, (heads, n_graphs, rows // n_graphs, cols))


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
    return ad.reshape(out, (shape[0], -1, shape[-1]))


def _softmax(logits, mask):
    """Row softmax of every head's logits; all heads read the same mask."""
    if mask is not None:
        mask = np.tile(mask, (ad.value(logits).shape[0], 1))
    return ad.row_softmax(logits, mask)


def _value_gate(h, w_g, b_g, activation: str):
    # G x N x d_k gate values act(H W_g + b_g).
    b = ad.reshape(b_g, (np.shape(ad.value(b_g))[0], 1, -1))
    return ad.apply_activation(activation, ad.add(ad.bmm(h, w_g), b))


def _logit_gate(h, w_g, w_g2, b_g, activation: str, n_graphs: int):
    # G x (B x) n x n gate matching the logits, from two d x d_k projections.
    d_k = np.shape(ad.value(w_g))[-1]
    z = _scores(ad.bmm(h, w_g), ad.bmm(h, w_g2), d_k, n_graphs)
    b = ad.reshape(b_g, (-1,) + (1,) * (np.ndim(ad.value(z)) - 1))
    return ad.apply_activation(activation, ad.add(z, b))


def _override_gate(shape, gate_override):
    if gate_override == "ones":
        return np.ones(shape)
    if gate_override == "zeros":
        return np.zeros(shape)
    raise ValueError(f"gate_override must be 'ones', 'zeros' or None, got {gate_override!r}")


def _heads_pass(h, heads, cfg: GateConfig | None, mask, lift, gate_override, n_graphs):
    """``(output, attention, gate)`` stacks of every head under the placement."""
    placement = cfg.placement if cfg is not None else "none"
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}")
    w_q, w_k, w_v = _stacks(heads, _QKV, lift)
    q, k, v = ad.bmm(h, w_q), ad.bmm(h, w_k), ad.bmm(h, w_v)
    raw = _scores(q, k, np.shape(ad.value(w_q))[-1], n_graphs)
    gate = None
    if placement == "g3":
        gate = (_override_gate(ad.value(raw).shape, gate_override) if gate_override
                else _logit_gate(h, *_stacks(heads, _GATE_FIELDS, lift), cfg.activation,
                                 n_graphs))
        raw = ad.mul(gate, raw)
    attention = _softmax(raw, mask)
    if placement == "g2":
        gate = (_override_gate(ad.value(v).shape, gate_override) if gate_override
                else _value_gate(h, *_stacks(heads, ("w_g", "b_g"), lift), cfg.activation))
        v = ad.mul(gate, v)
    out = _attend(attention, v, n_graphs)
    if placement == "g1":
        gate = (_override_gate(ad.value(out).shape, gate_override) if gate_override
                else _value_gate(h, *_stacks(heads, ("w_g", "b_g"), lift), cfg.activation))
        out = ad.mul(out, gate)
    return out, attention, gate


def sdpa(h, head, mask=None, *, lift=None, n_graphs: int = 1):
    """Standard scaled dot-product attention.

    Returns ``(attention, y)`` with ``attention = softmax(Q K^T / sqrt(d_k))``
    (row-stochastic, masked entries exactly 0) and ``y = attention @ V``.
    ``h`` holds the N = B·n rows of ``n_graphs`` = B graphs of n nodes each;
    nodes attend only within their own graph. For B > 1 the attention is
    B x n x n; ``mask`` is N x n, the graphs' n x n masks stacked by rows.
    ``head`` is one :class:`HeadParams`, or a layer's :class:`MhsaParams`
    for the K-stacks of every head.
    """
    out, attention, _ = _heads_pass(h, head, None, mask, lift, None, n_graphs)
    return _one_head(attention, head), _one_head(out, head)


def compute_gate(h, head, activation: str, *, lift=None):
    """Gate values ``act(H W_g + b_g)``: N x d_k for one :class:`HeadParams`,
    G x N x d_k for a layer's :class:`MhsaParams`."""
    gate = _value_gate(h, *_stacks(head, ("w_g", "b_g"), lift), activation)
    return _one_head(gate, head)


def gated_head_forward(h, heads, cfg: GateConfig, mask=None, *,
                       lift=None, gate_override=None, n_graphs: int = 1):
    """Every head's forward pass under the configured gate placement, at once.

    ``heads`` is a layer's :class:`MhsaParams`, whose stacks run all K heads
    in one pass, or one :class:`HeadParams`, which runs as a stack of one.
    Returns ``(output, traces)``: for a layer, the K x N x d_k output stack
    and one :class:`HeadTrace` per head; for one head, its N x d_k output
    and its trace. ``gate_override`` replaces the computed gate with exact
    all-ones/all-zeros constants; it exists so the limit cases can be
    expressed without pushing biases to saturation. ``h``, ``mask`` and
    ``n_graphs`` are as in :func:`sdpa`; per head, the output and the g1/g2
    gate are N x d_k, the attention and the g3 gate n x n per graph.
    """
    out, attention, gate = _heads_pass(h, heads, cfg, mask, lift, gate_override, n_graphs)
    out_v = np.asarray(ad.value(out))
    attn_v = np.asarray(ad.value(attention))
    gate_v = None if gate is None else np.asarray(ad.value(gate))
    traces = [
        HeadTrace(attention=attn_v[k],
                  gate=None if gate_v is None else gate_v[k if len(gate_v) > 1 else 0],
                  output=out_v[k])
        for k in range(len(out_v))
    ]
    if isinstance(heads, HeadParams):
        return _one_head(out, heads), traces[0]
    return out, traces


def siggate_mhsa(h, params: MhsaParams, mask=None, *, lift=None, gate_override=None,
                 n_graphs: int = 1):
    """Gated multi-head attention: concat of gated heads times W_O.

    Returns ``(out, traces)`` where ``out`` is N x d_out and ``traces`` is
    one :class:`HeadTrace` per head in head order. ``h`` holds the rows of
    ``n_graphs`` graphs of equal size (see :func:`sdpa`). All heads run as
    one stacked pass (:func:`gated_head_forward` on ``params``).
    """
    rows, n_features = ad.value(h).shape
    _validate_mhsa(n_features, params)
    if n_graphs < 1 or rows % n_graphs:
        raise ShapeError(f"{rows} rows do not split into {n_graphs} graphs of equal size")
    outs, traces = gated_head_forward(
        h, params, params.gate, mask, lift=lift, gate_override=gate_override,
        n_graphs=n_graphs,
    )
    return merge_heads(outs, params.w_o, lift=lift), traces


def merge_heads(outs, w_o, *, lift=None):
    """Lay the K x N x d_k head outputs side by side (N x K·d_k) and project by W_O."""
    lf = lift or _identity
    return ad.matmul(ad.merge_stack(outs), lf(w_o))


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
