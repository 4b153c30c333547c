"""Exact gradients, AdamW with cosine annealing, and the toy training loop.

The model forward runs over the autodiff tape, so gradients are exact for
the implemented graph; :func:`finite_difference_check` is the independent
oracle (central differences) used to verify them. Parameters live in a
:class:`ParamSet`: a flat, deterministically ordered name -> array
registry whose arrays are shared by reference with the model structure,
so in-place optimizer updates are immediately visible to forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from .attention import GateConfig, gated_head_forward, merge_heads
from .gps import (
    FfnParams,
    GpsLayerParams,
    GraphBatch,
    LayerNormParams,
    LayerTrace,
    ModelParams,
    MpnnParams,
    batch_forward,
    gps_layer_combine,
    gps_layer_forward,
    init_model,
    model_embed,
    model_forward,  # noqa: F401 - kept importable from here; perfbench's tracer tests patch it
    model_readout,
    mpnn_forward,
)
from .attention import HeadParams, MhsaParams
from .numeric import NonFiniteInputError, SeededRng

__all__ = [
    "ParamSet",
    "OptimizerState",
    "TrainConfig",
    "TrainHistory",
    "FdReport",
    "DivergenceError",
    "NonFiniteError",
    "loss_and_gradients",
    "batch_loss",
    "evaluate",
    "finite_difference_check",
    "init_optimizer",
    "adamw_step",
    "cosine_lr",
    "train_toy",
    "write_history_csv",
    "save_model",
    "load_model",
    "is_gate_param",
]

LOSSES = ("mse", "mae")
DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss {loss:g})")
        self.epoch = epoch
        self.loss = loss


class NonFiniteError(RuntimeError):
    def __init__(self, message: str, param_name: str | None):
        super().__init__(message)
        self.param_name = param_name


class ParamSet:
    """Ordered name -> array registry over all trainable parameters."""

    def __init__(self, items: dict[str, np.ndarray]):
        self._items = dict(items)

    @classmethod
    def from_model(cls, model: ModelParams) -> "ParamSet":
        items: dict[str, np.ndarray] = {}

        def put(name, arr):
            if name in items:
                raise ValueError(f"duplicate parameter name {name!r}")
            items[name] = arr

        put("input.w", model.w_in)
        put("input.b", model.b_in)
        for i, layer in enumerate(model.layers):
            pre = f"layer{i}"
            attn = layer.attn
            for k, head in enumerate(attn.heads):
                put(f"{pre}.attn.head{k}.w_q", head.w_q)
                put(f"{pre}.attn.head{k}.w_k", head.w_k)
                put(f"{pre}.attn.head{k}.w_v", head.w_v)
            cfg = attn.gate
            if cfg.placement != "none":
                if cfg.sharing == "shared":
                    head = attn.heads[0]
                    put(f"{pre}.attn.gate.w_g", head.w_g)
                    if head.w_g2 is not None:
                        put(f"{pre}.attn.gate.w_g2", head.w_g2)
                    put(f"{pre}.attn.gate.b_g", head.b_g)
                else:
                    for k, head in enumerate(attn.heads):
                        put(f"{pre}.attn.head{k}.w_g", head.w_g)
                        if head.w_g2 is not None:
                            put(f"{pre}.attn.head{k}.w_g2", head.w_g2)
                        put(f"{pre}.attn.head{k}.b_g", head.b_g)
            put(f"{pre}.attn.w_o", attn.w_o)
            put(f"{pre}.mpnn.w_edge", layer.mpnn.w_edge)
            put(f"{pre}.mpnn.w_val", layer.mpnn.w_val)
            put(f"{pre}.ffn.w1", layer.ffn.w1)
            put(f"{pre}.ffn.b1", layer.ffn.b1)
            put(f"{pre}.ffn.w2", layer.ffn.w2)
            put(f"{pre}.ffn.b2", layer.ffn.b2)
            put(f"{pre}.ln1.scale", layer.ln1.scale)
            put(f"{pre}.ln1.shift", layer.ln1.shift)
            put(f"{pre}.ln2.scale", layer.ln2.scale)
            put(f"{pre}.ln2.shift", layer.ln2.shift)
        put("head.w", model.w_head)
        put("head.b", model.b_head)
        return cls(items)

    @property
    def names(self) -> list[str]:
        return list(self._items)

    def items(self):
        return self._items.items()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def total_count(self) -> int:
        return sum(a.size for a in self._items.values())

    def subset(self, names) -> "ParamSet":
        return ParamSet({n: self._items[n] for n in names})

    def copy_values(self) -> dict[str, np.ndarray]:
        """Detached snapshot of the current values."""
        return {n: a.copy() for n, a in self._items.items()}


def is_gate_param(name: str) -> bool:
    stem = name.rsplit(".", 1)[-1]
    return stem in ("w_g", "w_g2", "b_g")


class _Lifter:
    """Memoizing array -> Var wrapper; shared arrays get a single node.

    The forward lifts each layer's stacked attention arrays; the gradient of
    a head's view is the matching slice of its stack's gradient.
    """

    def __init__(self, model: ModelParams):
        self._vars: dict[int, ad.Var] = {}
        self._views = {}
        for layer in model.layers:
            attn = layer.attn
            for name in attn.stacked_fields():
                stack = getattr(attn, name)
                if stack is None:
                    continue  # the forward rejects the layer
                for k, head in enumerate(attn.heads):
                    self._views[id(getattr(head, name))] = (stack, k if len(stack) > 1 else 0)

    def __call__(self, arr):
        node = self._vars.get(id(arr))
        if node is None:
            node = ad.Var(arr)
            self._vars[id(arr)] = node
        return node

    def grad(self, arr):
        node = self._vars.get(id(arr))
        if node is None and id(arr) in self._views:
            stack, k = self._views[id(arr)]
            g = self.grad(stack)
            return None if g is None else g[k]
        return None if node is None else node.grad


def _graph_groups(batch):
    """The (graph, target) pairs grouped by node count, in order of first
    appearance: per group, the pairs' positions in ``batch``, their
    :class:`GraphBatch` and their targets as a B x out_dim matrix."""
    positions: dict[int, list[int]] = {}
    for i, (graph, _) in enumerate(batch):
        positions.setdefault(graph.n, []).append(i)
    return [
        (idx, GraphBatch.of([batch[i][0] for i in idx]),
         np.stack([np.asarray(batch[i][1], dtype=np.float64).reshape(-1) for i in idx]))
        for idx in positions.values()
    ]


def _group_loss(pred, targets, kind: str):
    """Summed loss of one group: ``pred`` and ``targets`` are B x out_dim."""
    diff = ad.sub(pred, targets)
    if kind == "mse":
        return ad.vsum(ad.square(diff))
    if kind == "mae":
        return ad.vsum(ad.absolute(diff))
    raise ValueError(f"loss must be one of {LOSSES}, got {kind!r}")


def batch_loss(model: ModelParams, batch, loss: str = "mse", gate_override=None) -> float:
    """Mean loss over the batch, plain forward (no tape), one pass per node count."""
    total = 0.0
    for _, graphs, targets in _graph_groups(batch):
        pred, _ = batch_forward(graphs, model, gate_override=gate_override)
        total += float(ad.value(_group_loss(pred, targets, loss)))
    return total / len(batch)


def evaluate(model: ModelParams, batch, loss: str = "mse"):
    """Mean loss plus the forward traces for each graph in the batch, in order."""
    total = 0.0
    traces: list[LayerTrace] = [None] * len(batch)
    for idx, graphs, targets in _graph_groups(batch):
        pred, trace = batch_forward(graphs, model)
        total += float(ad.value(_group_loss(pred, targets, loss)))
        for i, graph_trace in zip(idx, trace.split(len(idx))):
            traces[i] = graph_trace
    return total / len(batch), traces


def _first_nonfinite_param(params: ParamSet) -> str | None:
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            return name
    return None


def loss_and_gradients(model: ModelParams, params: ParamSet, batch,
                       loss: str = "mse", gate_override=None):
    """Mean batch loss and exact gradients for every registered parameter.

    One taped pass per node count in the batch, one backward sweep.
    Raises :class:`NonFiniteError` (naming the offending parameter) if the
    loss, an attention logit or any gradient is non-finite.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    lifter = _Lifter(model)
    total = None
    try:
        for _, graphs, targets in _graph_groups(batch):
            pred, _ = batch_forward(graphs, model, lift=lifter, gate_override=gate_override)
            term = _group_loss(pred, targets, loss)
            total = term if total is None else ad.add(total, term)
    except NonFiniteInputError as exc:
        offender = _first_nonfinite_param(params)
        raise NonFiniteError(f"{exc}; first non-finite parameter: {offender}",
                             offender) from exc
    mean = ad.div(total, float(len(batch)))
    loss_val = float(ad.value(mean))
    if not np.isfinite(loss_val):
        offender = _first_nonfinite_param(params)
        raise NonFiniteError(
            f"non-finite loss; first non-finite parameter: {offender}", offender
        )
    ad.backward(mean)
    grads: dict[str, np.ndarray] = {}
    for name, arr in params.items():
        g = lifter.grad(arr)
        g = np.zeros_like(arr) if g is None else np.asarray(g)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}", name)
        grads[name] = g
    return loss_val, ParamSet(grads)


@dataclass
class FdReport:
    """Finite-difference comparison, at two granularities.

    ``max_rel_err`` is the worst per-coordinate relative error with a
    max(|analytic|, |numeric|, 1e-12) denominator. A coordinate whose true
    gradient is below the finite-difference noise floor (roughly 1e-11 *
    loss scale at h=1e-5) inflates this number without indicating a wrong
    gradient, so ``param_rel`` additionally aggregates per parameter as
    ||analytic - numeric|| / max(||analytic||, ||numeric||, 1e-12) over the
    checked coordinates; a genuine backward bug shows up there at O(1).
    """

    max_rel_err: float
    worst_param: str | None
    worst_index: int | None
    n_checked: int
    param_rel: dict[str, float]

    @property
    def max_param_rel(self) -> float:
        return max(self.param_rel.values())

    @property
    def worst_param_by_norm(self) -> str:
        return max(self.param_rel, key=self.param_rel.get)


def _arrays(obj):
    """Every numpy array held by a (nested) parameter dataclass."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _heads_output(graphs: GraphBatch, h, layer: GpsLayerParams):
    """The K x N x d_k outputs of the layer's heads: one stacked pass."""
    return gated_head_forward(h, layer.attn, layer.attn.gate, graphs.attn_mask,
                              n_graphs=graphs.size)[0]


def _probe_index(model: ModelParams) -> dict:
    """``id(array) -> (layer index, branches)`` for every array the model
    reads after its input projection: the first layer that reads the array,
    and which of that layer's branches do ("mpnn", "heads" for the stacked
    attention arrays and their views, "w_o", "combine" for the FFN and layer
    norms). The readout's arrays map to index L with no branch."""
    index: dict[int, tuple[int, frozenset]] = {}
    for i, layer in enumerate(model.layers):
        attn = layer.attn
        stacks = [getattr(attn, name) for name in attn.stacked_fields()]
        parts = {"mpnn": layer.mpnn, "heads": (attn.heads, stacks), "w_o": attn.w_o,
                 "combine": (layer.ffn, layer.ln1, layer.ln2)}
        found: dict[int, set] = {}
        for branch, part in parts.items():
            for arr in _arrays(part):
                found.setdefault(id(arr), set()).add(branch)
        for key, branches in found.items():
            index.setdefault(key, (i, frozenset(branches)))
    for arr in (model.w_head, model.b_head):
        index.setdefault(id(arr), (len(model.layers), frozenset()))
    return index


class _PlainForwardCache:
    """The branch outputs of the tape-free forward of each group of a batch.

    A finite-difference probe changes one entry of one parameter array, and
    everything the model computes before that array is first read stays as
    it was. :meth:`probe` therefore re-runs only the branches of the first
    layer that read the array (the MPNN, the stacked pass of the heads, the
    W_O merge), that layer's combine step, the later layers and the readout.
    The groups, ops and inputs are those of :func:`batch_loss`, in the same
    order, so the loss it returns is bitwise the same.
    """

    def __init__(self, model: ModelParams, batch, loss: str):
        self.model = model
        self.batch = batch
        self.loss = loss
        self.groups = _graph_groups(batch)
        self.index = _probe_index(model)
        # Per group: (h, local, head outputs, merged attention) entering
        # each layer, then the last hidden state.
        self.layers = []
        self.final = []
        for _, graphs, _ in self.groups:
            h = model_embed(graphs, model)
            entries = []
            for layer in model.layers:
                local = mpnn_forward(graphs, h, layer.mpnn)
                heads = _heads_output(graphs, h, layer)
                merged = merge_heads(heads, layer.attn.w_o)
                entries.append((h, local, heads, merged))
                h = gps_layer_combine(h, local, merged, layer)
            self.layers.append(entries)
            self.final.append(h)

    def probe(self, arr):
        """A function that returns ``batch_loss(model, batch, loss)`` for the
        current contents of ``arr``, a parameter array of the model."""
        model = self.model
        found = self.index.get(id(arr))
        if arr is model.w_in or arr is model.b_in or found is None:
            return lambda: batch_loss(model, self.batch, self.loss)
        return lambda: self._loss_from(*found)

    def _loss_from(self, index, branches):
        model = self.model
        total = 0.0
        for g, (_, graphs, targets) in enumerate(self.groups):
            if index < len(model.layers):
                layer = model.layers[index]
                h, local, heads, merged = self.layers[g][index]
                if "mpnn" in branches:
                    local = mpnn_forward(graphs, h, layer.mpnn)
                if "heads" in branches:
                    heads = _heads_output(graphs, h, layer)
                if "heads" in branches or "w_o" in branches:
                    merged = merge_heads(heads, layer.attn.w_o)
                h = gps_layer_combine(h, local, merged, layer)
                for later in model.layers[index + 1:]:
                    h, _ = gps_layer_forward(graphs, h, later)
            else:
                h = self.final[g]
            pred = model_readout(h, model, n_graphs=graphs.size)
            total += float(ad.value(_group_loss(pred, targets, self.loss)))
        return total / len(self.batch)


def finite_difference_check(model: ModelParams, params: ParamSet, batch,
                            h: float = 1e-5, sample: int | None = 100,
                            seed: int = 0, loss: str = "mse") -> FdReport:
    """Compare analytic gradients against central finite differences.

    ``sample`` coordinates are drawn per parameter (deterministically from
    ``seed``); ``sample=None`` checks every coordinate. Each perturbed loss
    re-runs the model only from the first branch that reads the perturbed
    array; it equals the full :func:`batch_loss` bitwise.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"h must lie in [1e-7, 1e-3], got {h}")
    _, grads = loss_and_gradients(model, params, batch, loss=loss)
    cache = _PlainForwardCache(model, batch, loss)
    rng = SeededRng(seed)
    max_rel = 0.0
    worst_param = None
    worst_index = None
    n_checked = 0
    param_rel: dict[str, float] = {}
    for name, arr in params.items():
        analytic = grads[name].reshape(-1)
        size = arr.size
        if sample is None or sample >= size:
            idxs = range(size)
        else:
            u = rng.uniform((size,))
            idxs = np.sort(np.argsort(u)[:sample])
        probe = cache.probe(arr)
        a_checked = []
        n_checked_vals = []
        for j in idxs:
            loc = np.unravel_index(int(j), arr.shape)
            old = arr[loc]
            arr[loc] = old + h
            f_plus = probe()
            arr[loc] = old - h
            f_minus = probe()
            arr[loc] = old
            numeric_g = (f_plus - f_minus) / (2.0 * h)
            rel = abs(analytic[j] - numeric_g) / max(abs(analytic[j]), abs(numeric_g), 1e-12)
            n_checked += 1
            a_checked.append(analytic[j])
            n_checked_vals.append(numeric_g)
            if rel > max_rel:
                max_rel = rel
                worst_param = name
                worst_index = int(j)
        a_vec = np.array(a_checked)
        n_vec = np.array(n_checked_vals)
        param_rel[name] = float(
            np.linalg.norm(a_vec - n_vec)
            / max(np.linalg.norm(a_vec), np.linalg.norm(n_vec), 1e-12)
        )
    return FdReport(max_rel, worst_param, worst_index, n_checked, param_rel)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    beta1: float
    beta2: float
    eps: float
    weight_decay: float


def init_optimizer(params: ParamSet, weight_decay: float = 0.0,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(
        m={n: np.zeros_like(a) for n, a in params.items()},
        v={n: np.zeros_like(a) for n, a in params.items()},
        step=0, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay,
    )


def adamw_step(params: ParamSet, grads: ParamSet, state: OptimizerState, lr_t: float):
    """One AdamW update in place (decoupled weight decay, bias correction)."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if state.weight_decay:
            p *= 1.0 - lr_t * state.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Cosine annealing from lr_max at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


# ---------------------------------------------------------------------------
# Toy training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 150
    seed: int = 0
    loss: str = "mae"
    n_layers: int = 2
    d: int = 16
    n_heads: int = 4
    gate: GateConfig = field(default_factory=GateConfig)
    d_ff: int | None = None
    readout: str = "mean"

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be non-negative, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")


@dataclass
class TrainHistory:
    losses: list[float]
    lrs: list[float]
    params: ParamSet
    model: ModelParams
    final_train_loss: float
    final_test_loss: float
    final_test_traces: list[LayerTrace]


def train_toy(cfg: TrainConfig, task) -> TrainHistory:
    """Full-batch AdamW training on a synthetic task; deterministic in seed."""
    d_in = task.train[0][0].d_in
    model = init_model(
        SeededRng(cfg.seed), d_in=d_in, d=cfg.d, n_heads=cfg.n_heads,
        n_layers=cfg.n_layers, gate=cfg.gate, d_ff=cfg.d_ff, readout=cfg.readout,
    )
    params = ParamSet.from_model(model)
    state = init_optimizer(params, weight_decay=cfg.weight_decay)
    losses: list[float] = []
    lrs: list[float] = []
    for epoch in range(cfg.epochs):
        lr_t = cosine_lr(epoch, cfg.epochs, cfg.lr)
        try:
            loss, grads = loss_and_gradients(model, params, task.train, loss=cfg.loss)
        except NonFiniteError as exc:
            raise DivergenceError(epoch, float("nan")) from exc
        if loss > DIVERGENCE_LIMIT:
            raise DivergenceError(epoch, loss)
        adamw_step(params, grads, state, lr_t)
        losses.append(loss)
        lrs.append(lr_t)
    final_train = batch_loss(model, task.train, cfg.loss)
    final_test, test_traces = evaluate(model, task.test, cfg.loss)
    return TrainHistory(
        losses=losses, lrs=lrs, params=params, model=model,
        final_train_loss=final_train, final_test_loss=final_test,
        final_test_traces=test_traces,
    )


def write_history_csv(history: TrainHistory, path) -> None:
    lines = ["epoch,loss,lr"]
    for i, (loss, lr) in enumerate(zip(history.losses, history.lrs)):
        lines.append(f"{i},{loss:.17g},{lr:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Model serialization (flat text format)
# ---------------------------------------------------------------------------
#
# `# key = value` header comments carry the structural hyperparameters;
# each parameter follows as `name rows cols` and rows lines of 17-digit
# values (vectors are written as a single row).


def _model_meta(model: ModelParams) -> dict:
    attn = model.layers[0].attn
    d = model.d
    return {
        "d_in": model.w_in.shape[0],
        "d": d,
        "n_heads": len(attn.heads),
        "n_layers": len(model.layers),
        "d_ff": model.layers[0].ffn.w1.shape[1],
        "d_e": model.layers[0].mpnn.w_edge.shape[0] - 2 * d,
        "out_dim": model.w_head.shape[1],
        "readout": model.readout,
        "placement": attn.gate.placement,
        "sharing": attn.gate.sharing,
        "activation": attn.gate.activation,
        "bias_init": attn.gate.bias_init,
    }


def save_model(model: ModelParams, path) -> None:
    meta = _model_meta(model)
    params = ParamSet.from_model(model)
    lines = ["# siggate-model"]
    lines += [f"# {k} = {v}" for k, v in meta.items()]
    for name, arr in params.items():
        mat = np.atleast_2d(arr)
        lines.append(f"{name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(format(float(x), ".17g") for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_dump(path):
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    i = 0
    while i < len(raw):
        line = raw[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ValueError(f"malformed parameter header in {path}: {line!r}")
        name, rows, cols = toks[0], int(toks[1]), int(toks[2])
        mat = np.empty((rows, cols))
        for r in range(rows):
            vals = [float(t) for t in raw[i].split()]
            if len(vals) != cols:
                raise ValueError(f"parameter {name!r} row {r} has {len(vals)} values, expected {cols}")
            mat[r] = vals
            i += 1
        arrays[name] = mat
    return meta, arrays


def load_model(path) -> ModelParams:
    """Rebuild a model from :func:`save_model` output (bit-exact values)."""
    meta, arrays = _read_dump(path)
    try:
        d = int(meta["d"])
        n_heads = int(meta["n_heads"])
        n_layers = int(meta["n_layers"])
        gate = GateConfig(
            placement=meta["placement"], sharing=meta["sharing"],
            activation=meta["activation"], bias_init=float(meta["bias_init"]),
        )
        readout = meta["readout"]
    except KeyError as exc:
        raise ValueError(f"model dump {path} is missing metadata key {exc}") from exc

    def mat(name):
        try:
            return arrays[name]
        except KeyError:
            raise ValueError(f"model dump {path} is missing parameter {name!r}") from None

    def vec(name):
        return mat(name).reshape(-1)

    layers = []
    for i in range(n_layers):
        pre = f"layer{i}"
        shared = None
        if gate.placement != "none" and gate.sharing == "shared":
            w_g2 = arrays.get(f"{pre}.attn.gate.w_g2")
            shared = (mat(f"{pre}.attn.gate.w_g"), w_g2, vec(f"{pre}.attn.gate.b_g"))
        heads = []
        for k in range(n_heads):
            hp = f"{pre}.attn.head{k}"
            head = HeadParams(mat(f"{hp}.w_q"), mat(f"{hp}.w_k"), mat(f"{hp}.w_v"))
            if gate.placement != "none":
                if shared is not None:
                    head.w_g, head.w_g2, head.b_g = shared
                else:
                    head.w_g = mat(f"{hp}.w_g")
                    w_g2 = arrays.get(f"{hp}.w_g2")
                    head.w_g2 = w_g2
                    head.b_g = vec(f"{hp}.b_g")
            heads.append(head)
        layers.append(
            GpsLayerParams(
                mpnn=MpnnParams(mat(f"{pre}.mpnn.w_edge"), mat(f"{pre}.mpnn.w_val")),
                attn=MhsaParams(heads=heads, w_o=mat(f"{pre}.attn.w_o"), gate=gate),
                ffn=FfnParams(mat(f"{pre}.ffn.w1"), vec(f"{pre}.ffn.b1"),
                              mat(f"{pre}.ffn.w2"), vec(f"{pre}.ffn.b2")),
                ln1=LayerNormParams(vec(f"{pre}.ln1.scale"), vec(f"{pre}.ln1.shift")),
                ln2=LayerNormParams(vec(f"{pre}.ln2.scale"), vec(f"{pre}.ln2.shift")),
            )
        )
    return ModelParams(
        w_in=mat("input.w"), b_in=vec("input.b"), layers=layers,
        w_head=mat("head.w"), b_head=vec("head.b"), readout=readout,
    )
