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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import GateConfig, HeadTrace, MhsaParams, init_mhsa_params, siggate_mhsa
from .numeric import SeededRng, ShapeError, gaussian_matrix

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
    "gps_layer_combine",
    "model_forward",
    "batch_forward",
    "model_embed",
    "model_readout",
    "init_model",
    "write_graph",
    "read_graph",
]

LN_EPS = 1e-5
READOUTS = ("mean", "sum")


def _identity(x):
    return x


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
        edges = np.array([e for g in graphs for e in g.edges], dtype=np.intp).reshape(-1, 2)
        offsets = np.repeat(np.arange(len(graphs)) * n, [len(g.edges) for g in graphs])
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
    mpnn: MpnnParams
    attn: MhsaParams
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

    @property
    def d(self) -> int:
        return self.w_in.shape[1]


@dataclass
class LayerTraceEntry:
    hidden: np.ndarray
    head_traces: list[HeadTrace]


@dataclass
class LayerTrace:
    """Per-layer capture of a full forward pass (diagnostics input)."""

    hidden: list[np.ndarray] = field(default_factory=list)
    head_traces: list[list[HeadTrace]] = field(default_factory=list)

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
            pieces = [(_graph_pieces(ht.attention, n_graphs),
                       [None] * n_graphs if ht.gate is None
                       else _graph_pieces(ht.gate, n_graphs),
                       _graph_pieces(ht.output, n_graphs)) for ht in heads]
            for b, h_b in enumerate(_graph_pieces(hidden, n_graphs)):
                out[b].append(LayerTraceEntry(
                    h_b, [HeadTrace(a[b], g[b], o[b]) for a, g, o in pieces]))
        return out


def _graph_pieces(x: np.ndarray, n_graphs: int) -> list[np.ndarray]:
    """Each graph's piece of a batch array: its matrix of a stack, or its block of rows."""
    return list(x) if x.ndim == 3 else np.split(x, n_graphs)


def layer_norm(h, scale, shift):
    """Row-wise normalization to mean 0 / variance 1 (eps 1e-5), then affine."""
    mu = ad.vmean(h, axis=1, keepdims=True)
    centered = ad.sub(h, mu)
    var = ad.vmean(ad.square(centered), axis=1, keepdims=True)
    normed = ad.div(centered, ad.sqrt(ad.add(var, LN_EPS)))
    return ad.add(ad.mul(normed, scale), shift)


def mpnn_forward(g, h, p: MpnnParams, *, lift=None):
    """Edge-gated local aggregation; isolated nodes receive zeros.

    ``g`` is a :class:`GraphInstance` or a :class:`GraphBatch`; ``h`` holds
    one row per node (the stacked rows of a batch).
    """
    lf = lift or _identity
    graphs = _as_batch(g)
    d = ad.value(h).shape[1]
    want = 2 * d + graphs.d_e
    if p.w_edge.shape[0] != want:
        raise ShapeError(
            f"w_edge expects input width {p.w_edge.shape[0]}, "
            f"but [h_i || h_j || e_ij] has width {want}"
        )
    if p.w_val.shape[0] != d:
        raise ShapeError(f"w_val expects {p.w_val.shape[0]} features, hidden has {d}")
    if not graphs.src.size:
        return np.zeros((graphs.rows, p.w_val.shape[1]))
    h_dst = ad.take_rows(h, graphs.dst)
    h_src = ad.take_rows(h, graphs.src)
    parts = [h_dst, h_src]
    if graphs.edge_features is not None:
        parts.append(graphs.edge_features)
    gate = ad.sigmoid(ad.matmul(ad.concat(parts, axis=1), lf(p.w_edge)))
    messages = ad.mul(gate, ad.matmul(h_src, lf(p.w_val)))
    return ad.scatter_rows(messages, graphs.dst, graphs.rows)


def _ffn_forward(h, p: FfnParams, lift):
    lf = lift or _identity
    hidden = ad.gelu(ad.add(ad.matmul(h, lf(p.w1)), lf(p.b1)))
    return ad.add(ad.matmul(hidden, lf(p.w2)), lf(p.b2))


def gps_layer_forward(g, h, p: GpsLayerParams, *, lift=None, gate_override=None):
    """One block: residual sum of branches, then ln2(ffn(ln1(s)) + ln1(s)).

    ``g`` is a :class:`GraphInstance` or a :class:`GraphBatch` whose
    stacked rows ``h`` holds.
    """
    graphs = _as_batch(g)
    local = mpnn_forward(graphs, h, p.mpnn, lift=lift)
    global_attn, head_traces = siggate_mhsa(
        h, p.attn, graphs.attn_mask, lift=lift, gate_override=gate_override,
        n_graphs=graphs.size,
    )
    h_next = gps_layer_combine(h, local, global_attn, p, lift=lift)
    entry = LayerTraceEntry(hidden=np.asarray(ad.value(h_next)), head_traces=head_traces)
    return h_next, entry


def gps_layer_combine(h, local, global_attn, p: GpsLayerParams, *, lift=None):
    """The block after its two branches: ``s = h + local + global_attn``,
    then ``ln2(ffn(ln1(s)) + ln1(s))``."""
    lf = lift or _identity
    s = ad.add(ad.add(h, local), global_attn)
    t = layer_norm(s, lf(p.ln1.scale), lf(p.ln1.shift))
    return layer_norm(
        ad.add(_ffn_forward(t, p.ffn, lift), t), lf(p.ln2.scale), lf(p.ln2.shift)
    )


def model_forward(g: GraphInstance, model: ModelParams, *, lift=None, gate_override=None):
    """Full stack on one graph: input projection, L layers, pooling, linear head.

    Returns ``(prediction, trace)``; the prediction is a length-``out_dim``
    vector (an autodiff node when ``lift`` is given). This is
    :func:`batch_forward` on a batch of one graph.
    """
    pred, trace = batch_forward(GraphBatch.of([g]), model, lift=lift,
                                gate_override=gate_override)
    return ad.reshape(pred, (-1,)), trace


def batch_forward(graphs: GraphBatch, model: ModelParams, *, lift=None, gate_override=None):
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
    for layer in model.layers:
        h, entry = gps_layer_forward(graphs, h, layer, lift=lift, gate_override=gate_override)
        trace.append(entry)
    return model_readout(h, model, lift=lift, n_graphs=graphs.size), trace


def model_embed(g, model: ModelParams, *, lift=None):
    """Input projection of the node features: ``X W_in + b_in``."""
    lf = lift or _identity
    return ad.add(ad.matmul(g.node_features, lf(model.w_in)), lf(model.b_in))


def model_readout(h, model: ModelParams, *, lift=None, n_graphs: int = 1):
    """Pool each graph's rows of the last hidden state, then apply the
    linear head: a B x ``out_dim`` prediction for ``n_graphs`` = B graphs."""
    lf = lift or _identity
    rows, d = ad.value(h).shape
    nodes = ad.reshape(h, (n_graphs, rows // n_graphs, d))
    pool = ad.vmean if model.readout == "mean" else ad.vsum
    return ad.add(ad.matmul(pool(nodes, axis=1), lf(model.w_head)), lf(model.b_head))


def init_model(rng: SeededRng, *, d_in: int, d: int, n_heads: int, n_layers: int,
               gate: GateConfig, d_ff: int | None = None, d_e: int = 0,
               readout: str = "mean", out_dim: int = 1,
               gate_weight_std: float | None = None) -> ModelParams:
    """Seeded model init. ``gate_weight_std=0.0`` zeroes the gate projections
    so fresh gates sit exactly at ``act(bias_init)``."""
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    if readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {readout!r}")
    d_ff = 2 * d if d_ff is None else d_ff
    w_in = gaussian_matrix(rng, d_in, d, 1.0 / np.sqrt(d_in))
    b_in = np.zeros(d)
    layers = []
    for _ in range(n_layers):
        attn = init_mhsa_params(rng, d, n_heads, gate, gate_weight_std=gate_weight_std)
        mpnn = MpnnParams(
            w_edge=gaussian_matrix(rng, 2 * d + d_e, d, 1.0 / np.sqrt(2 * d + d_e)),
            w_val=gaussian_matrix(rng, d, d, 1.0 / np.sqrt(d)),
        )
        ffn = FfnParams(
            w1=gaussian_matrix(rng, d, d_ff, 1.0 / np.sqrt(d)),
            b1=np.zeros(d_ff),
            w2=gaussian_matrix(rng, d_ff, d, 1.0 / np.sqrt(d_ff)),
            b2=np.zeros(d),
        )
        layers.append(
            GpsLayerParams(
                mpnn=mpnn,
                attn=attn,
                ffn=ffn,
                ln1=LayerNormParams(np.ones(d), np.zeros(d)),
                ln2=LayerNormParams(np.ones(d), np.zeros(d)),
            )
        )
    w_head = gaussian_matrix(rng, d, out_dim, 1.0 / np.sqrt(d))
    b_head = np.zeros(out_dim)
    return ModelParams(w_in=w_in, b_in=b_in, layers=layers,
                       w_head=w_head, b_head=b_head, readout=readout)


# ---------------------------------------------------------------------------
# Graph text format
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_graph(g: GraphInstance, path) -> None:
    lines = [f"{g.n} {g.d_in} {g.d_e}"]
    for row in g.node_features:
        lines.append(" ".join(_fmt(x) for x in row))
    lines.append(str(len(g.edges)))
    for i, (src, dst) in enumerate(g.edges):
        parts = [str(src), str(dst)]
        if g.edge_features is not None:
            parts.extend(_fmt(x) for x in g.edge_features[i])
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path) -> GraphInstance:
    """Parse a graph file. A malformed or non-finite row, or any line after
    the last edge row, raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    try:
        pos = 0
        n, d_in, d_e = (int(t) for t in raw[pos].split())
        pos += 1
        feats = np.empty((n, d_in))
        for i in range(n):
            row = [float(t) for t in raw[pos].split()]
            if len(row) != d_in:
                raise ValueError(f"node row {i} has {len(row)} values, expected {d_in}")
            if not np.isfinite(row).all():
                raise ValueError(f"node row {i} has a non-finite value: {raw[pos]!r}")
            feats[i] = row
            pos += 1
        m = int(raw[pos])
        pos += 1
        edges = []
        edge_feats = np.empty((m, d_e)) if d_e else None
        for i in range(m):
            toks = raw[pos].split()
            if len(toks) != 2 + d_e:
                raise ValueError(f"edge row {i} has {len(toks)} tokens, expected {2 + d_e}")
            edges.append((int(toks[0]), int(toks[1])))
            if d_e:
                edge_feats[i] = [float(t) for t in toks[2:]]
                if not np.isfinite(edge_feats[i]).all():
                    raise ValueError(f"edge row {i} has a non-finite value: {raw[pos]!r}")
            pos += 1
        if pos < len(raw):
            raise ValueError(f"{len(raw) - pos} line(s) after the last edge row, "
                             f"starting with {raw[pos]!r}")
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed graph file {path}: {exc}") from exc
    return GraphInstance(n=n, node_features=feats, edges=edges, edge_features=edge_feats)
