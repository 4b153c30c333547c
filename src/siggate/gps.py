"""GPS-style blocks: gated local message passing + global gated attention.

A layer computes ``s = h + MPNN(h) + MHSA(h)`` followed by the
Add -> LN -> FFN -> LN chain: ``h_next = ln2(ffn(ln1(s)) + ln1(s))``.
The local branch is a simplified edge-gated aggregator: each incoming
edge j->i contributes ``sigmoid(W_e [h_i || h_j || e_ij]) ⊙ (W_v h_j)``.

Also home to the graph text format used by the CLI:

    n d_in d_e
    <n rows of d_in node features>
    m
    <m rows: src dst [d_e edge features]>

Floats are written with 17 significant digits so round-trips are exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, is_dataclass
from itertools import accumulate, chain, zip_longest

import numpy as np

from . import autodiff as ad
from .attention import GateConfig, HeadTraces, MhsaParams, mhsa_skeleton, siggate_mhsa
from .numeric import NonFiniteInputError, SeededRng, ShapeError, carve, fill_gaussian, fmt_exact

__all__ = [
    "LN_EPS",
    "GraphInstance",
    "GraphBatch",
    "MpnnParams",
    "FfnParams",
    "LayerNormParams",
    "GpsLayerParams",
    "ModelParams",
    "LayerTrace",
    "LayerTraceEntry",
    "layer_norm",
    "mpnn_forward",
    "gps_layer_forward",
    "model_forward",
    "batch_forward",
    "run_layers",
    "model_embed",
    "model_readout",
    "model_skeleton",
    "init_model",
    "Layout",
    "ParamSet",
    "write_graph",
    "read_graph",
]

LN_EPS = 1e-5
READOUTS = ("mean", "sum")


@dataclass
class GraphInstance:
    """One attributed graph: features, directed edges, optional extras."""

    n: int
    node_features: np.ndarray
    edges: list[tuple[int, int]]
    edge_features: np.ndarray | None = None
    attn_mask: np.ndarray | None = None

    def __post_init__(self):
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        if self.node_features.ndim != 2 or self.node_features.shape[0] != self.n:
            raise ShapeError(
                f"node_features must be ({self.n}, d_in), got {self.node_features.shape}"
            )
        for src, dst in self.edges:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={self.n}")
        if self.edge_features is not None:
            self.edge_features = np.asarray(self.edge_features, dtype=np.float64)
            if self.edge_features.shape[0] != len(self.edges):
                raise ShapeError(
                    f"edge_features has {self.edge_features.shape[0]} rows "
                    f"for {len(self.edges)} edges"
                )
        if self.attn_mask is not None:
            self.attn_mask = np.asarray(self.attn_mask, dtype=bool)
            if self.attn_mask.shape != (self.n, self.n):
                raise ShapeError(f"attn_mask must be ({self.n}, {self.n})")
            if not np.all(np.diag(self.attn_mask)):
                raise ValueError("attn_mask diagonal must stay unmasked")

    @property
    def d_in(self) -> int:
        return self.node_features.shape[1]

    @property
    def d_e(self) -> int:
        return 0 if self.edge_features is None else self.edge_features.shape[1]


@dataclass
class GraphBatch:
    """Graphs with the same node count stacked into one disjoint union.

    The B graphs' node features form one N x d_in matrix (N = B·n) whose
    rows b·n ... b·n + n - 1 are graph b's nodes. ``src``/``dst`` index
    those rows, and ``edge_features`` (None when the graphs have none) is
    stacked in the same edge order. ``attn_mask`` is None when no graph
    has a mask; otherwise it stacks the graphs' n x n masks by rows into
    N x n, all True for a graph without one. Message passing and the
    row-wise layers run on the stacked rows unchanged; attention stays
    within each graph.
    """

    size: int
    n: int
    node_features: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_features: np.ndarray | None = None
    attn_mask: np.ndarray | None = None
    _flat: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, graphs) -> "GraphBatch":
        graphs = list(graphs)
        if not graphs:
            raise ValueError("a graph batch needs at least one graph")
        first = graphs[0]
        n, d_in, d_e = first.n, first.d_in, first.d_e
        if n == 0:
            raise ValueError("empty graph: a forward pass requires n >= 1")
        for i, g in enumerate(graphs):
            if (g.n, g.d_in, g.d_e) != (n, d_in, d_e):
                raise ShapeError(
                    f"graph {i} has (n, d_in, d_e) = {(g.n, g.d_in, g.d_e)}, "
                    f"but graph 0 has {(n, d_in, d_e)}"
                )
        counts = [len(g.edges) for g in graphs]
        edges = np.fromiter(chain.from_iterable(e for g in graphs for e in g.edges),
                            dtype=np.intp, count=2 * sum(counts)).reshape(-1, 2)
        offsets = np.repeat(np.arange(len(graphs)) * n, counts)
        mask = None
        if any(g.attn_mask is not None for g in graphs):
            mask = np.concatenate([np.ones((n, n), dtype=bool) if g.attn_mask is None
                                   else g.attn_mask for g in graphs])
        return cls(size=len(graphs), n=n,
                   node_features=np.concatenate([g.node_features for g in graphs]),
                   src=edges[:, 0] + offsets, dst=edges[:, 1] + offsets,
                   edge_features=(np.concatenate([g.edge_features for g in graphs])
                                  if d_e else None),
                   attn_mask=mask)

    @property
    def rows(self) -> int:
        return self.size * self.n

    @property
    def d_e(self) -> int:
        return 0 if self.edge_features is None else self.edge_features.shape[1]

    def scatter(self, x, end: str) -> np.ndarray:
        """Rows of ``x``, one per edge, summed into the batch's rows at the edges' ``end``
        ("dst" or "src"); the flat index for that end and ``x``'s width is built once."""
        idx, key = getattr(self, end), (end, np.shape(x)[-1])
        if key not in self._flat:
            self._flat[key] = ad.flat_index(idx, key[1])
        return ad.scatter_add(x, idx, self.rows, self._flat[key])


def _as_batch(g) -> GraphBatch:
    return g if isinstance(g, GraphBatch) else GraphBatch.of([g])


@dataclass
class MpnnParams:
    w_edge: np.ndarray  # (2d + d_e) x d
    w_val: np.ndarray  # d x d


@dataclass
class FfnParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class LayerNormParams:
    scale: np.ndarray
    shift: np.ndarray


@dataclass
class GpsLayerParams:
    """One block's parameters. Like every parameter dataclass, its fields follow
    the carve order of :func:`model_skeleton`; ``ParamSet.from_model`` relies on it."""

    attn: MhsaParams
    mpnn: MpnnParams
    ffn: FfnParams
    ln1: LayerNormParams
    ln2: LayerNormParams


@dataclass
class ModelParams:
    w_in: np.ndarray
    b_in: np.ndarray
    layers: list[GpsLayerParams]
    w_head: np.ndarray
    b_head: np.ndarray
    readout: str = "mean"
    # the ParamSet model_skeleton made (its Layout and vector); None if built by hand
    params: ParamSet | None = field(default=None, repr=False, compare=False)

    @property
    def layout(self) -> Layout | None:
        return None if self.params is None else self.params.layout


@dataclass
class LayerTraceEntry:
    hidden: np.ndarray
    head_traces: HeadTraces


@dataclass
class LayerTrace:
    """Per-layer capture of a full forward pass (diagnostics input)."""

    hidden: list[np.ndarray] = field(default_factory=list)
    head_traces: list[HeadTraces] = field(default_factory=list)

    def append(self, entry: LayerTraceEntry) -> None:
        self.hidden.append(entry.hidden)
        self.head_traces.append(entry.head_traces)

    def __len__(self) -> int:
        return len(self.hidden)

    def split(self, n_graphs: int) -> list["LayerTrace"]:
        """The per-graph traces of a :func:`batch_forward` over ``n_graphs`` graphs."""
        if n_graphs == 1:
            return [self]
        out = [LayerTrace() for _ in range(n_graphs)]
        for hidden, heads in zip(self.hidden, self.head_traces):
            rows = hidden.reshape(n_graphs, -1, hidden.shape[-1])
            for trace, h_b, heads_b in zip(out, rows, heads.split(n_graphs)):
                trace.append(LayerTraceEntry(h_b, heads_b))
        return out


def layer_norm(h, scale, shift):
    """Row-wise normalization to mean 0 / variance 1 (eps 1e-5), then affine."""
    return ad.layer_norm(h, scale, shift, LN_EPS)


def mpnn_forward(g, h, p: MpnnParams):
    """Edge-gated local aggregation; isolated nodes receive zeros.

    ``g`` is a :class:`GraphInstance` or a :class:`GraphBatch`; ``h`` holds
    one row per node (the stacked rows of a batch). A form on plain arrays:
    returns ``(out, back)``, ``back(g)`` giving ``h``'s terms (its dst
    gather's, then its src gather's; none without edges), then the
    gradients of ``w_edge`` and ``w_val`` (exact zeros without edges).
    """
    graphs = _as_batch(g)
    *lead, rows, d = np.shape(h)
    if rows != graphs.rows:
        raise ShapeError(f"h has {rows} rows, but the graph has {graphs.rows} nodes")
    want = 2 * d + graphs.d_e
    if p.w_edge.shape[-2] != want:
        raise ShapeError(
            f"w_edge expects input width {p.w_edge.shape[-2]}, "
            f"but [h_i || h_j || e_ij] has width {want}"
        )
    if p.w_val.shape[-2] != d:
        raise ShapeError(f"w_val expects {p.w_val.shape[-2]} features, hidden has {d}")
    if not graphs.src.size:
        return (np.zeros((*lead, rows, p.w_val.shape[-1])),
                lambda g: [np.zeros(p.w_edge.shape), np.zeros(p.w_val.shape)])
    pairs = np.stack((graphs.dst, graphs.src), axis=-1).ravel()
    cat = np.take(h, pairs, axis=-2).reshape((*lead, -1, 2 * d))  # [h_dst | h_src]
    h_src = cat[..., d:]
    if graphs.edge_features is not None:
        cat, _ = ad.concat_vjp(cat, graphs.edge_features)
    pre, pre_back = ad.matmul_vjp(cat, p.w_edge)
    # the gate overwrites its dead pre-activation: its VJP reads only the gate
    gate, gate_back = ad.activation_vjp("sigmoid", pre, out=pre)
    val, val_back = ad.matmul_vjp(h_src, p.w_val)
    messages, messages_back = ad.mul_vjp(gate, val)
    out = graphs.scatter(messages, "dst")

    def back(g):
        dgate, dval = messages_back(g[graphs.dst])
        dcat, dw_e = pre_back(*gate_back(dgate))
        dh_src, dw_v = val_back(dval)
        return [graphs.scatter(dcat[..., :d], "dst"),
                graphs.scatter(dcat[..., d:2 * d] + dh_src, "src"), dw_e, dw_v]

    return out, back


def gps_layer_forward(g, h, p: GpsLayerParams, *, lift=ad.no_tape):
    """One block: residual sum of branches, then ln2(ffn(ln1(s)) + ln1(s)).

    ``g`` is a :class:`GraphInstance` or a :class:`GraphBatch` whose
    stacked rows ``h`` holds. The block runs the forms of its branches and
    ops on plain arrays, and is one tape node over ``h`` and its arrays,
    each lifted once, in carve order; its VJP calls the forms' ``back``s.
    ``h``'s term is the residual's, plus the MPNN's, plus the attention's,
    added in that order.
    """
    graphs = _as_batch(g)
    attn, fields = p.attn, p.attn.stacked_fields() + ("w_o",)
    arrays = [lift(getattr(attn, name)) for name in fields] + [
        lift(arr) for arr in (p.mpnn.w_edge, p.mpnn.w_val, p.ffn.w1, p.ffn.b1, p.ffn.w2,
                              p.ffn.b2, p.ln1.scale, p.ln1.shift, p.ln2.scale, p.ln2.shift)]
    operands = [h, *arrays]
    taped = ad.Var in map(type, operands)  # as in ad.fused; tape-free, no back outlives its step
    hv, values = ad.value(h), [ad.value(x) for x in arrays]
    w_edge, w_val, w1, b1, w2, b2, scale1, shift1, scale2, shift2 = values[len(fields):]
    local, mpnn_back = mpnn_forward(graphs, hv, MpnnParams(w_edge, w_val))
    mpnn_back = mpnn_back if taped else None  # so the MPNN's E x 2d gather dies here
    global_attn, head_traces, attn_back = siggate_mhsa(
        hv, MhsaParams(gate=attn.gate, **dict(zip(fields, values))), graphs.attn_mask,
        n_graphs=graphs.size)
    attn_back = attn_back if taped else None
    s = ad.add_into(ad.add_into(local, hv), global_attn)  # local + h is h + local, bitwise
    t, ln1_back = ad.layer_norm_vjp(s, scale1, shift1, LN_EPS)
    pre, ffn1_back = ad.linear_vjp(t, w1, b1)
    hidden, gelu_back = ad.gelu_vjp(pre)
    ffn, ffn2_back = ad.linear_vjp(hidden, w2, b2)
    u = ad.add_into(ffn, t)
    h_next, ln2_back = ad.layer_norm_vjp(u, scale2, shift2, LN_EPS)

    def back(g):
        du, *d_ln2 = ln2_back(g)
        dhidden, *d_ffn2 = ffn2_back(du)
        dt, *d_ffn1 = ffn1_back(*gelu_back(dhidden))
        ds, *d_ln1 = ln1_back(du + dt)
        *dh_mpnn, dw_edge, dw_val = mpnn_back(ds)
        attn_terms = attn_back(ds)
        dh_attn, d_attn = attn_terms[:-len(fields)], attn_terms[-len(fields):]
        return [sum(dh_mpnn + dh_attn, ds), *d_attn, dw_edge, dw_val,
                *d_ffn1, *d_ffn2, *d_ln1, *d_ln2]

    entry = LayerTraceEntry(hidden=h_next, head_traces=head_traces)
    return ad.fused(h_next, operands, back), entry


def model_forward(g: GraphInstance, model: ModelParams, *, lift=ad.no_tape):
    """Full stack on one graph: input projection, L layers, pooling, linear head.

    Returns ``(prediction, trace)``; the prediction is a length-``out_dim``
    vector (an autodiff node when ``lift`` puts the parameters on a tape). This is
    :func:`batch_forward` on a batch of one graph.
    """
    pred, trace = batch_forward(GraphBatch.of([g]), model, lift=lift)
    return ad.reshape(pred, (-1,)), trace


def batch_forward(graphs: GraphBatch, model: ModelParams, *, lift=ad.no_tape):
    """Full stack on every graph of a batch in one pass.

    Returns ``(predictions, trace)``: a B x ``out_dim`` matrix with one row
    per graph, and the batch's :class:`LayerTrace` (hidden states N x d;
    :meth:`LayerTrace.split` gives the per-graph traces).
    """
    if not model.layers:
        raise ValueError("model needs at least one layer")
    if model.readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {model.readout!r}")
    h = model_embed(graphs, model, lift=lift)
    trace = LayerTrace()
    for h, entry in run_layers(graphs, h, model.layers, lift=lift):
        trace.append(entry)
    return model_readout(h, model, lift=lift, n_graphs=graphs.size), trace


def run_layers(graphs: GraphBatch, h, layers, *, lift=ad.no_tape, first: int = 0):
    """Yield ``(h, entry)`` after each layer from ``first`` on, ``h`` entering it;
    a non-finite value layer i meets raises again as ``layer i: <message>``."""
    for i, layer in enumerate(layers[first:], first):
        try:
            h, entry = gps_layer_forward(graphs, h, layer, lift=lift)
        except (NonFiniteInputError, FloatingPointError) as exc:
            raise type(exc)(f"layer {i}: {exc}") from exc
        yield h, entry


def model_embed(g, model: ModelParams, *, lift=ad.no_tape):
    """Input projection of the node features: ``X W_in + b_in``."""
    return ad.linear(g.node_features, lift(model.w_in), lift(model.b_in))


def model_readout(h, model: ModelParams, *, lift=ad.no_tape, n_graphs: int = 1):
    """Pool each graph's rows of the last hidden state, then apply the linear
    head: a B x ``out_dim`` prediction for ``n_graphs`` = B graphs (per copy)."""
    *lead, rows, d = ad.value(h).shape
    nodes = ad.reshape(h, (*lead, n_graphs, rows // n_graphs, d))
    pool = ad.vmean if model.readout == "mean" else ad.vsum
    return ad.linear(pool(nodes, axis=-2), lift(model.w_head), lift(model.b_head))


def model_skeleton(*, d_in: int, d: int, n_heads: int, n_layers: int, gate: GateConfig,
                   d_ff: int | None = None, d_e: int = 0, readout: str = "mean",
                   out_dim: int = 1, gate_weight_std: float | None = None):
    """``(model, draws)``: the model with every array a view of one zero
    vector (head stacks strided, see :func:`attention.mhsa_skeleton`),
    layer-norm scales at 1, and as ``model.params`` that vector over the
    :class:`Layout` its declarations make; and each Gaussian block's
    ``(view, std)`` in draw order: W_in, per layer the attention's, W_edge,
    W_val, W_1, W_2, then the head (std 1/sqrt(fan-in)). Each parameter is
    declared where it is carved, in dump order: its name, the array the
    forward reads (slice k of it for a head's) and its layer (-1: the input
    projection, L: the readout head)."""
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    if readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {readout!r}")
    d_ff = 2 * d if d_ff is None else d_ff

    def build(take):
        draws, record = [], []

        def param(name, layer, *shape):
            """The next parameter, declared; a matrix is a Gaussian block."""
            arr = take(*shape)
            record.append((name, arr, None, layer))
            if len(shape) == 2:
                draws.append((arr, 1.0 / np.sqrt(shape[0])))
            return arr

        w_in, b_in = param("input.w", -1, d_in, d), param("input.b", -1, d)
        layers = []
        for i in range(n_layers):
            attn, attn_draws, attn_record = mhsa_skeleton(take, d, n_heads, gate,
                                                          gate_weight_std=gate_weight_std)
            draws += attn_draws
            record += [(f"layer{i}.attn.{name}", arr, k, i) for name, arr, k in attn_record]
            pre = f"layer{i}."
            mpnn = MpnnParams(w_edge=param(pre + "mpnn.w_edge", i, 2 * d + d_e, d),
                              w_val=param(pre + "mpnn.w_val", i, d, d))
            ffn = FfnParams(w1=param(pre + "ffn.w1", i, d, d_ff),
                            b1=param(pre + "ffn.b1", i, d_ff),
                            w2=param(pre + "ffn.w2", i, d_ff, d),
                            b2=param(pre + "ffn.b2", i, d))
            ln1, ln2 = (LayerNormParams(param(pre + ln + ".scale", i, d),
                                        param(pre + ln + ".shift", i, d))
                        for ln in ("ln1", "ln2"))
            ln1.scale[...] = ln2.scale[...] = 1.0
            layers.append(GpsLayerParams(attn=attn, mpnn=mpnn, ffn=ffn, ln1=ln1, ln2=ln2))
        model = ModelParams(w_in=w_in, b_in=b_in, layers=layers,
                            w_head=param("head.w", n_layers, d, out_dim),
                            b_head=param("head.b", n_layers, out_dim), readout=readout)
        return model, draws, record

    (model, draws, record), flat = carve(build)
    names, arrays, ks, layers = zip(*record)
    shapes = tuple(arr.shape if k is None else arr.shape[1:] for arr, k in zip(arrays, ks))
    starts = tuple(accumulate(map(math.prod, shapes), initial=0))
    index = {}
    for entry in map(Carved, starts, layers, names, arrays):
        index.setdefault(id(entry.array), entry)  # a stack's first entry: its slice 0
    at = np.arange(flat.size)
    slots = np.concatenate([np.ndarray(c.array.shape, at.dtype, at, c.start * at.itemsize,
                                       c.array.strides).ravel() for c in index.values()])
    slots.setflags(write=False)
    header = dict(d_in=d_in, d=d, n_heads=n_heads, n_layers=n_layers, d_ff=d_ff, d_e=d_e,
                  out_dim=out_dim, readout=readout, **vars(gate))
    model.params = ParamSet(Layout(names, shapes, starts, index, slots, header), flat)
    return model, draws


def init_model(rng: SeededRng, **dims) -> ModelParams:
    """Seeded model init: the :func:`model_skeleton` of ``dims`` with its
    Gaussian blocks drawn in one pass. ``gate_weight_std=0.0`` zeroes the
    gate projections so fresh gates sit exactly at ``act(bias_init)``."""
    model, draws = model_skeleton(**dims)
    fill_gaussian(rng, draws)
    return model


# An array the forward reads, as carved: where in the vector it starts (it is the view from
# there with its strides), the layer that reads it, its first parameter's name, the array.
Carved = namedtuple("Carved", "start layer name array")


@dataclass(frozen=True, eq=False)
class Layout:
    """Where a model's parameters lie in one float64 vector, and what its
    forward reads: made once, by :func:`model_skeleton`, and never changed."""

    names: tuple[str, ...]  # in dump order
    shapes: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]  # each name's offset in the vector (C order), then its length
    index: dict  # by id of each array the forward reads, in carve order: its Carved record
    slots: np.ndarray  # the vector positions of those arrays' entries, each in C order
    header: dict  # the dump metadata


class ParamSet:
    """Values laid out by a :class:`Layout`: name ``layout.names[i]`` holds
    ``flat[layout.starts[i]:layout.starts[i + 1]]``, and each entry is a view
    of it, made on each call. A model that :func:`model_skeleton` built holds
    its own as ``model.params``, over the vector its arrays view."""

    __slots__ = ("layout", "flat")

    def __init__(self, layout: Layout, flat: np.ndarray):
        self.layout, self.flat = layout, flat

    @classmethod
    def from_model(cls, model: ModelParams) -> "ParamSet":
        """``model.params``, once the arrays the model holds, in the order of
        its dataclass fields (the carve order), are (``is``) those its layout's
        ``index`` records, under their own ``id``; else ValueError names the
        first parameter off the layout. A model assembled by hand has none; an
        array swapped, copied or aliased, a layer added or removed, or a deep
        copy of the model (its layout keeps the original ids) is off it."""
        params = model.params
        if params is None:
            raise ValueError("the model has no layout: a model has one only as init_model "
                             "or load_model built it")
        held = _arrays_held(model, [])
        for arr, (key, (_, _, name, kept)) in zip_longest(
                held, params.layout.index.items(), fillvalue=(None, (None,) * 4)):
            if arr is not kept or id(arr) != key:
                raise ValueError(f"parameter {name!r} is off the model's layout: a model "
                                 f"has one only as init_model or load_model built it")
        return params

    def _entry(self, i: int) -> np.ndarray:
        starts = self.layout.starts
        return self.flat[starts[i]:starts[i + 1]].reshape(self.layout.shapes[i])

    def items(self):
        return ((name, self._entry(i)) for i, name in enumerate(self.layout.names))

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.layout.names:
            raise KeyError(name)
        return self._entry(self.layout.names.index(name))

    def first_nonfinite(self) -> str | None:
        """The first entry holding a NaN or an infinity (None if there is
        none): one ``isfinite`` over ``flat``, named by the offsets."""
        finite = np.isfinite(self.flat)
        if finite.all():
            return None
        return self.layout.names[np.searchsorted(self.layout.starts, finite.argmin(), "right") - 1]


def _arrays_held(value, out: list) -> list:
    """``out`` extended by every array ``value`` holds, through lists and the
    fields of dataclasses (their instance attributes, in field order)."""
    if isinstance(value, np.ndarray):
        out.append(value)
    elif isinstance(value, list):
        for item in value:
            _arrays_held(item, out)
    elif is_dataclass(value):
        for item in vars(value).values():
            _arrays_held(item, out)
    return out


# ---------------------------------------------------------------------------
# Graph text format
# ---------------------------------------------------------------------------


def write_graph(g: GraphInstance, path) -> None:
    lines = [f"{g.n} {g.d_in} {g.d_e}"]
    for row in g.node_features:
        lines.append(" ".join(fmt_exact(x) for x in row))
    lines.append(str(len(g.edges)))
    for i, (src, dst) in enumerate(g.edges):
        parts = [str(src), str(dst)]
        if g.edge_features is not None:
            parts.extend(fmt_exact(x) for x in g.edge_features[i])
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path) -> GraphInstance:
    """Parse a graph file. A malformed or non-finite row, an edge row off the
    nodes, or any line after the last edge row raises ValueError naming the
    file (and the row). Only the rows the file holds are stored, whatever
    sizes its header gives."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    try:
        pos = 0
        n, d_in, d_e = (int(t) for t in raw[pos].split())
        if min(n, d_in, d_e) < 0:
            raise ValueError(f"the header {raw[pos]!r} has a negative size")
        pos += 1
        feats = []
        for i in range(n):
            row = [float(t) for t in raw[pos].split()]
            if len(row) != d_in:
                raise ValueError(f"node row {i} has {len(row)} values, expected {d_in}")
            if not np.isfinite(row).all():
                raise ValueError(f"node row {i} has a non-finite value: {raw[pos]!r}")
            feats.append(row)
            pos += 1
        m = int(raw[pos])
        if m < 0:
            raise ValueError(f"the edge count {raw[pos]!r} is negative")
        pos += 1
        edges, edge_feats = [], []
        for i in range(m):
            toks = raw[pos].split()
            if len(toks) != 2 + d_e:
                raise ValueError(f"edge row {i} has {len(toks)} tokens, expected {2 + d_e}")
            edges.append((int(toks[0]), int(toks[1])))
            if not all(0 <= end < n for end in edges[i]):
                raise ValueError(f"edge row {i} joins {edges[i]}, outside nodes 0..{n - 1}")
            if d_e:
                edge_feats.append([float(t) for t in toks[2:]])
                if not np.isfinite(edge_feats[i]).all():
                    raise ValueError(f"edge row {i} has a non-finite value: {raw[pos]!r}")
            pos += 1
        if pos < len(raw):
            raise ValueError(f"{len(raw) - pos} line(s) after the last edge row, "
                             f"starting with {raw[pos]!r}")
        feats = np.array(feats, dtype=np.float64).reshape(n, d_in)
        edge_feats = np.array(edge_feats, dtype=np.float64).reshape(m, d_e) if d_e else None
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed graph file {path}: {exc}") from exc
    return GraphInstance(n=n, node_features=feats, edges=edges, edge_features=edge_feats)
