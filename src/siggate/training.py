"""Exact gradients, AdamW with cosine annealing, and the toy training loop.

The model forward runs over the autodiff tape, so gradients are exact for
the implemented graph; :func:`finite_difference_check` is the independent
oracle (central differences) used to verify them. Parameters live in a
:class:`ParamSet`: a flat, deterministically ordered name -> array
registry whose arrays are shared by reference with the model structure,
so in-place optimizer updates are immediately visible to forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import _GATE_FIELDS, GateConfig, gated_head_forward, merge_heads
from .gps import (
    GraphBatch,
    LayerTrace,
    ModelParams,
    ParamSet,
    batch_forward,
    gps_layer_combine,
    gps_layer_forward,
    init_model,
    model_embed,
    model_forward,  # noqa: F401 - kept importable from here; perfbench's tracer tests patch it
    model_readout,
    model_skeleton,
    mpnn_forward,
)
from .numeric import NonFiniteInputError, SeededRng, fmt_exact, write_csv

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


def is_gate_param(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in _GATE_FIELDS


class _Lifter:
    """Memoizing array -> Var wrapper; shared arrays get a single node."""

    def __init__(self):
        self._vars: dict[int, ad.Var] = {}

    def __call__(self, arr):
        node = self._vars.get(id(arr))
        if node is None:
            node = ad.Var(arr)
            self._vars[id(arr)] = node
        return node

    def grad(self, arr):
        node = self._vars.get(id(arr))
        return None if node is None else node.grad


def _graph_groups(batch):
    """The (graph, target) pairs grouped by node count, in order of first
    appearance: per group, the pairs' positions in ``batch``, their
    :class:`GraphBatch` and their targets as a B x out_dim matrix."""
    if not batch:
        raise ValueError("batch must be non-empty")
    positions: dict[int, list[int]] = {}
    for i, (graph, _) in enumerate(batch):
        positions.setdefault(graph.n, []).append(i)
    return [
        (idx, GraphBatch.of([batch[i][0] for i in idx]),
         np.stack([np.asarray(batch[i][1], dtype=np.float64).reshape(-1) for i in idx]))
        for idx in positions.values()
    ]


def _group_loss(pred, targets, kind: str):
    """Summed loss of one group (of each copy of a tape-free stack): B x out_dim."""
    diff = ad.sub(pred, targets)
    if kind == "mse":
        return ad.vsum(ad.square(diff), axis=(-2, -1))
    if kind == "mae":
        return ad.vsum(ad.absolute(diff), axis=(-2, -1))
    raise ValueError(f"loss must be one of {LOSSES}, got {kind!r}")


def batch_loss(model: ModelParams, batch, loss: str = "mse") -> float:
    """Mean loss over the batch, plain forward (no tape), one pass per node count."""
    total = 0.0
    for _, graphs, targets in _graph_groups(batch):
        pred, _ = batch_forward(graphs, model)
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


def loss_and_gradients(model: ModelParams, batch, loss: str = "mse"):
    """Mean batch loss and exact gradients for every parameter of the model.

    One taped pass per node count in the batch, one backward sweep. The
    gradients are one vector laid out as ``model.layout``: each array on the
    tape writes its gradient into the view of that vector at the array's
    recorded offset, with the array's strides. Raises
    :class:`NonFiniteError` if the loss, an attention logit or any gradient
    is non-finite, naming the first non-finite parameter (or gradient) of
    the layout; and ValueError, as :meth:`ParamSet.from_model` does, if the
    model has no layout or the forward read an array that it does not hold.
    """
    layout = model.layout or ParamSet.from_model(model)  # no layout: this raises
    lifter = _Lifter()
    total = None
    try:
        for _, graphs, targets in _graph_groups(batch):
            pred, _ = batch_forward(graphs, model, lift=lifter)
            term = _group_loss(pred, targets, loss)
            total = term if total is None else ad.add(total, term)
    except NonFiniteInputError as exc:
        offender = layout.first_nonfinite()
        raise NonFiniteError(f"{exc}; first non-finite parameter: {offender}",
                             offender) from exc
    mean = ad.div(total, float(len(batch)))
    loss_val = float(ad.value(mean))
    if not np.isfinite(loss_val):
        offender = layout.first_nonfinite()
        raise NonFiniteError(
            f"non-finite loss; first non-finite parameter: {offender}", offender
        )
    ad.backward(mean)
    flat = np.zeros(layout.flat.size)
    for arr in (node.value for node in lifter._vars.values()):
        entry = layout.index.get(id(arr))
        if entry is None:
            ParamSet.from_model(model)  # raises, naming the parameter that reads ``arr``
        g = lifter.grad(arr)
        if g is not None:
            np.ndarray(arr.shape, buffer=flat, offset=entry[0] * flat.itemsize,
                       strides=arr.strides)[...] = g
    grads = layout._like(flat)
    offender = grads.first_nonfinite()
    if offender is not None:
        raise NonFiniteError(f"non-finite gradient for parameter {offender!r}", offender)
    return loss_val, grads


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


PROBE_CHUNK = 256  # perturbed copies per batched pass; bounds the probes' memory


class _PlainForwardCache:
    """The branch outputs of the tape-free forward of each group of a batch.

    A finite-difference probe changes one entry of one parameter array, and
    everything the model computes before that array is first read stays as
    it was. :meth:`probe_losses` runs all probes of one parameter as one
    pass: its ``lift`` puts perturbed copies of the array the forward reads
    (a head's parameter is read through its layer's stack) on a leading copy
    axis, and the branch of the layer that reads it (the layout's ``index``),
    that layer's combine step, the later layers and the readout run once
    over the copies. Each copy keeps its own slice of every op, with the
    shapes of :func:`batch_loss`, so its loss is bitwise the
    :func:`batch_loss` of the model holding that copy. The model's arrays
    are never written.
    """

    def __init__(self, model: ModelParams, batch, loss: str):
        self.model = model
        self.batch = batch
        self.loss = loss
        self.groups = _graph_groups(batch)
        self.layout = ParamSet.from_model(model)  # so each array is read by one branch
        # Per group: (h, local, head outputs, merged attention) entering
        # each layer, then the last hidden state.
        self.layers = []
        self.final = []
        for _, graphs, _ in self.groups:
            h = model_embed(graphs, model)
            entries = []
            for layer in model.layers:
                local = mpnn_forward(graphs, h, layer.mpnn)
                heads = gated_head_forward(h, layer.attn, graphs.attn_mask,
                                           n_graphs=graphs.size)[0]
                merged = merge_heads(heads, layer.attn.w_o)
                entries.append((h, local, heads, merged))
                h = gps_layer_combine(h, local, merged, layer)
            self.layers.append(entries)
            self.final.append(h)

    def probe_losses(self, name: str, idxs, h: float):
        """``(f_plus, f_minus)``: for each flat index j of ``idxs``, the
        :func:`batch_loss` with entry j of the parameter ``name`` moved to
        ``old + h`` and to ``old - h``. Its copies run :data:`PROBE_CHUNK`
        at a time."""
        arr, k = self.layout.reads[name]
        _, layer, branch, _, _ = self.layout.index[id(arr)]
        param = arr if k is None else arr[k]
        idxs = np.asarray(idxs, dtype=np.intp)
        old = param.reshape(-1)[idxs]
        # Copy 2m holds entry idxs[m] at old + h, copy 2m + 1 at old - h.
        values = np.stack([old + h, old - h], axis=1).reshape(-1)
        where = np.repeat(idxs + (0 if k is None else k * param.size), 2)
        losses = np.empty(values.size)
        for lo in range(0, values.size, PROBE_CHUNK):
            chunk = slice(lo, lo + PROBE_CHUNK)
            count = values[chunk].size
            copies = np.repeat(arr[None], count, axis=0)
            copies.reshape(count, -1)[np.arange(count), where[chunk]] = values[chunk]
            losses[chunk] = self._loss_from(layer, branch, lambda a: copies if a is arr else a)
        return losses[0::2], losses[1::2]

    def _loss_from(self, index, branch, lift):
        """Per copy, the mean loss of a forward from layer ``index`` (-1: the input
        projection) re-running its ``branch``; ``lift`` gives each copy's arrays."""
        model = self.model
        total = 0.0
        for g, (_, graphs, targets) in enumerate(self.groups):
            if index < 0:
                h = model_embed(graphs, model, lift=lift)
            elif index < len(model.layers):
                layer = model.layers[index]
                h, local, heads, merged = self.layers[g][index]
                if branch == "mpnn":
                    local = mpnn_forward(graphs, h, layer.mpnn, lift=lift)
                if branch == "heads":
                    heads = gated_head_forward(h, layer.attn, graphs.attn_mask,
                                               lift=lift, n_graphs=graphs.size)[0]
                if branch in ("heads", "w_o"):
                    merged = merge_heads(heads, layer.attn.w_o, lift=lift)
                h = gps_layer_combine(h, local, merged, layer, lift=lift)
            else:
                h = self.final[g]
            for later in model.layers[index + 1:]:
                h, _ = gps_layer_forward(graphs, h, later, lift=lift)
            pred = model_readout(h, model, lift=lift, n_graphs=graphs.size)
            total = total + _group_loss(pred, targets, self.loss)
        return total / len(self.batch)


def finite_difference_check(model: ModelParams, params: ParamSet, batch,
                            h: float = 1e-5, sample: int | None = 100,
                            seed: int = 0, loss: str = "mse") -> FdReport:
    """Compare analytic gradients against central finite differences.

    ``sample`` >= 1 coordinates are drawn per parameter (deterministically
    from ``seed``); ``sample=None`` checks every coordinate. A parameter's
    probes run as one batched pass (:class:`_PlainForwardCache`), each loss
    bitwise the :func:`batch_loss` of the perturbed model; the model is only read.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"h must lie in [1e-7, 1e-3], got {h}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1 (or None for every coordinate), got {sample}")
    _, grads = loss_and_gradients(model, batch, loss=loss)
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
            idxs = np.arange(size)
        else:
            u = rng.uniform((size,))
            idxs = np.sort(np.argsort(u)[:sample])
        f_plus, f_minus = cache.probe_losses(name, idxs, h)
        a_vec, n_vec = analytic[idxs], (f_plus - f_minus) / (2.0 * h)
        n_checked += idxs.size
        for j, a, n in zip(idxs, a_vec, n_vec):
            rel = abs(a - n) / max(abs(a), abs(n), 1e-12)
            if rel > max_rel:
                max_rel, worst_param, worst_index = rel, name, int(j)
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
    """AdamW moments as flat float64 vectors, one entry per parameter
    value: the :class:`ParamSet` arrays in order, each flattened in C order."""

    m: np.ndarray
    v: np.ndarray
    step: int
    beta1: float
    beta2: float
    eps: float
    weight_decay: float


def init_optimizer(params: ParamSet, weight_decay: float = 0.0,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> OptimizerState:
    size = params.total_count()
    return OptimizerState(
        m=np.zeros(size), v=np.zeros(size),
        step=0, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay,
    )


def adamw_step(params: ParamSet, grads: ParamSet, state: OptimizerState, lr_t: float):
    """One AdamW update (decoupled weight decay, bias correction) in place on
    ``params.flat`` from ``grads.flat``, by whole-vector ops: each element
    sees the ufuncs of a per-array update. For a set from
    :meth:`ParamSet.from_model` that vector is the model's own."""
    flat = params.flat
    if flat.size != state.m.size:
        raise ValueError(f"parameters hold {flat.size} values, "
                         f"the optimizer state {state.m.size}")
    if (grads._names, grads._shapes) != (params._names, params._shapes):
        raise ValueError("the gradients are not laid out like the parameters")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    g, m, v = grads.flat, state.m, state.v
    if state.weight_decay:
        flat *= 1.0 - lr_t * state.weight_decay
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    flat -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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
    """Full-batch AdamW training on a synthetic task; deterministic in seed.
    Both splits of ``task`` must hold graphs."""
    if not task.train or not task.test:
        raise ValueError(f"toy training needs graphs in both splits; the task has "
                         f"{len(task.train)} train and {len(task.test)} test graphs")
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
            loss, grads = loss_and_gradients(model, task.train, loss=cfg.loss)
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
    """One ``epoch,loss,lr`` row per epoch of ``history``."""
    rows = ((i, loss, lr) for i, (loss, lr) in enumerate(zip(history.losses, history.lrs)))
    write_csv(path, "epoch,loss,lr", rows)


# ---------------------------------------------------------------------------
# Model serialization (flat text format)
# ---------------------------------------------------------------------------
#
# `# key = value` header comments carry the structural hyperparameters
# (the layout's ``header``); each parameter follows as `name rows cols` and
# rows lines of 17-digit values (vectors are written as a single row). The
# records are exactly the parameters of the model the metadata describes,
# in the order of its layout.


def save_model(model: ModelParams, path) -> None:
    """Write the model's layout: its recorded header, then each parameter of
    :meth:`ParamSet.from_model` (so only a model with a layout is saved)."""
    params = ParamSet.from_model(model)
    lines = ["# siggate-model"]
    lines += [f"# {k} = {v}" for k, v in params.header.items()]
    for name, arr in params.items():
        mat = np.atleast_2d(arr)
        lines.append(f"{name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(map(fmt_exact, row.tolist())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_dump(path):
    """Parse a :func:`save_model` file. A malformed header, a repeated
    parameter, a missing or malformed row, or a non-finite value raises
    ValueError naming the file (and the parameter and row)."""
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
        if len(toks) != 3 or not (toks[1].isdigit() and toks[2].isdigit()):
            raise ValueError(f"malformed parameter header in {path}: {line!r}")
        name, rows, cols = toks[0], int(toks[1]), int(toks[2])
        if name in arrays:
            raise ValueError(f"model dump {path}: parameter {name!r} appears twice")
        mat = []  # only the rows the file holds: the header's sizes may be huge
        for r in range(rows):
            where = f"model dump {path}: parameter {name!r} row {r}"
            if i >= len(raw):
                raise ValueError(f"{where}: the file ends after {r} of {rows} rows")
            try:
                vals = [float(t) for t in raw[i].split()]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if len(vals) != cols:
                raise ValueError(f"{where} has {len(vals)} values, expected {cols}")
            if not np.isfinite(vals).all():
                raise ValueError(f"{where} has a non-finite value: {raw[i].strip()!r}")
            mat.append(vals)
            i += 1
        arrays[name] = np.array(mat, dtype=np.float64).reshape(rows, cols)
    return meta, arrays


def load_model(path) -> ModelParams:
    """Rebuild a model from :func:`save_model` output (bit-exact values).

    :func:`model_skeleton` lays out the model the dump's metadata describes,
    drawing nothing, and each parameter takes the values of the record of
    that name. A record that is missing, misshapen, repeated or not a
    parameter of that model raises ValueError naming the file and the
    parameter.
    """
    meta, arrays = _read_dump(path)
    longest = max((n for record in arrays.values() for n in record.shape), default=0)
    try:
        d_in, d, n_heads, n_layers, d_ff, d_e, out_dim = (
            int(meta[key]) for key in ("d_in", "d", "n_heads", "n_layers", "d_ff", "d_e",
                                       "out_dim"))
        if n_layers > len(arrays) or max(d_in, d, d_ff, d_e, out_dim) > longest:
            raise ValueError(f"it describes a model larger than the {len(arrays)} records")
        gate = GateConfig(
            placement=meta["placement"], sharing=meta["sharing"],
            activation=meta["activation"], bias_init=float(meta["bias_init"]),
        )
        model, _ = model_skeleton(d_in=d_in, d=d, n_heads=n_heads, n_layers=n_layers,
                                  gate=gate, d_ff=d_ff, d_e=d_e, readout=meta["readout"],
                                  out_dim=out_dim)
    except KeyError as exc:
        raise ValueError(f"model dump {path} is missing metadata key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"model dump {path} has malformed metadata: {exc}") from None
    for name, arr in ParamSet.from_model(model).items():
        record = arrays.pop(name, None)
        if record is None:
            raise ValueError(f"model dump {path} is missing parameter {name!r}")
        if record.shape != np.atleast_2d(arr).shape:
            raise ValueError(f"model dump {path}: parameter {name!r} has shape "
                             f"{record.shape}, expected {np.atleast_2d(arr).shape}")
        arr[...] = record.reshape(arr.shape)
    if arrays:
        raise ValueError(f"model dump {path}: parameter {next(iter(arrays))!r} is not in "
                         f"the model its metadata describes")
    return model
