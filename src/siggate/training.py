"""Exact gradients, AdamW with cosine annealing, and the toy training loop.

The model forward runs over the autodiff tape, so gradients are exact for
the implemented graph; :func:`finite_difference_check` is the independent
oracle (central differences) used to verify them. A model's parameters
are a :class:`ParamSet`, its layout over the one vector its arrays view,
so in-place optimizer updates are immediately visible to forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import _GATE_FIELDS, GateConfig
from .gps import (
    GraphBatch,
    Layout,
    LayerTrace,
    ModelParams,
    ParamSet,
    batch_forward,
    init_model,
    model_embed,
    model_forward,  # noqa: F401 - kept importable from here; perfbench's tracer tests patch it
    model_readout,
    model_skeleton,
    run_layers,
)
from .numeric import NonFiniteInputError, SeededRng, fmt_exact, write_csv

__all__ = [
    "ParamSet",
    "Gradients",
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

_LOSS_OPS = {"mse": ad.square, "mae": ad.absolute}  # per-entry op, summed over a group
LOSSES = tuple(_LOSS_OPS)
DIVERGENCE_LIMIT = 1e6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW's fixed decays and floor


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
    op = _LOSS_OPS.get(kind)
    if op is None:
        raise ValueError(f"loss must be one of {LOSSES}, got {kind!r}")
    return ad.vsum(op(ad.sub(pred, targets)), axis=(-2, -1))


def _summed_loss(model: ModelParams, batch, loss: str, lift=ad.no_tape):
    """``(total, groups)``: the loss summed over the batch, one forward per
    node count (a tape node when ``lift`` tapes), and per group its
    positions in ``batch``, :class:`GraphBatch`, targets and
    :class:`LayerTrace`."""
    total, groups = None, []
    for idx, graphs, targets in _graph_groups(batch):
        pred, trace = batch_forward(graphs, model, lift=lift)
        term = _group_loss(pred, targets, loss)
        total = term if total is None else ad.add(total, term)
        groups.append((idx, graphs, targets, trace))
    return total, groups


def batch_loss(model: ModelParams, batch, loss: str = "mse") -> float:
    """Mean loss over the batch, plain forward (no tape), one pass per node count."""
    return float(_summed_loss(model, batch, loss)[0]) / len(batch)


def evaluate(model: ModelParams, batch, loss: str = "mse"):
    """Mean loss plus the forward traces for each graph in the batch, in order."""
    total, groups = _summed_loss(model, batch, loss)
    traces: list[LayerTrace] = [None] * len(batch)
    for idx, _, _, trace in groups:
        for i, graph_trace in zip(idx, trace.split(len(idx))):
            traces[i] = graph_trace
    return float(total) / len(batch), traces


class Gradients(ParamSet):
    """A gradient vector over the model's own :class:`Layout` (shared, not
    copied), and as ``states``, per node-count group of the taped pass, its
    :class:`GraphBatch`, targets and the hidden state after each layer."""

    __slots__ = ("states",)

    def __init__(self, layout: Layout, flat: np.ndarray, states):
        super().__init__(layout, flat)
        self.states = states


def loss_and_gradients(model: ModelParams, batch, loss: str = "mse"):
    """Mean batch loss and exact :class:`Gradients` of every model parameter.

    One taped pass per node count in the batch, one backward sweep. The
    tape's leaves are the arrays of the layout's ``index``, one ``Var``
    each; the gradients are one vector laid out as ``model.layout``, the
    leaves' gradients written into it at the layout's ``slots`` (where each
    array's entries sit). Raises :class:`NonFiniteError` if the loss, an
    attention logit or any gradient is non-finite, naming the first
    non-finite parameter (or gradient) of the layout; and ValueError, as
    :meth:`ParamSet.from_model` does, if the model has no layout or holds an
    array off it (checked when the forward reads an array outside the index,
    or leaves one of its arrays without a gradient).
    """
    layout = model.layout or ParamSet.from_model(model)  # no layout: this raises
    leaves = {key: ad.Var(carved.array) for key, carved in layout.index.items()}

    def lift(arr):
        leaf = leaves.get(id(arr))
        if leaf is None:
            ParamSet.from_model(model)  # raises, naming the parameter that reads ``arr``
        return leaf

    try:
        total, groups = _summed_loss(model, batch, loss, lift)
        mean = ad.div(total, float(len(batch)))
        loss_val = float(ad.value(mean))
        if not np.isfinite(loss_val):
            raise NonFiniteInputError("non-finite loss")
    except NonFiniteInputError as exc:
        offender = model.params.first_nonfinite()
        blame = ("every parameter is finite" if offender is None
                 else f"first non-finite parameter: {offender}")
        raise NonFiniteError(f"{exc}; {blame}", offender) from exc
    ad.backward(mean)
    taped = [leaf.grad for leaf in leaves.values()]
    if any(g is None for g in taped):
        ParamSet.from_model(model)  # only an array off the layout (an alias) goes unread: raises
    flat = np.zeros(layout.starts[-1])
    flat[layout.slots] = np.concatenate([np.ravel(g) for g in taped])
    grads = Gradients(layout, flat, [(graphs, targets, trace.hidden)
                                     for _, graphs, targets, trace in groups])
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
    Both are per parameter name, in the order of the checked set, although
    one probe pass serves every name read through one array.
    """

    max_rel_err: float
    worst_param: str | None
    worst_index: int | None
    n_checked: int
    param_rel: dict[str, float]

    @property
    def max_param_rel(self) -> float:
        return self.param_rel[self.worst_param_by_norm]

    @property
    def worst_param_by_norm(self) -> str:
        """The name with the largest ``param_rel``: the first NaN, if there is
        one, else the first largest value."""
        rels = np.fromiter(self.param_rel.values(), float, len(self.param_rel))
        return list(self.param_rel)[int(np.argmax(rels))]


PROBE_CHUNK = 256  # perturbed copies per batched pass; bounds the probes' memory
PACK_ENTRIES = 1 << 16  # copies x entries of the arrays one pass packs; bounds the same


class _PlainForwardCache:
    """The hidden state entering each layer of the forward of each group of
    a batch.

    A finite-difference probe changes one entry of one array the forward
    reads, and everything the model computes before the layer that reads
    that array (``layout.index`` gives the layer) stays as it was.
    ``layout`` and ``states`` are those of :class:`Gradients` of the batch:
    that taped pass tied each array it read to the layout, so the cache
    walks no parameters. A tape-free :func:`model_embed` per group adds the
    state entering layer 0. A taped pass runs the same ops on the same
    arrays as a tape-free one, so each state is bitwise the tape-free
    forward's.

    :meth:`probe_losses` runs the probes of the arrays one layer reads as
    few passes: a pass's ``lift`` puts each of its arrays on a leading copy
    axis, and that layer's :func:`gps_layer_forward`, the later layers and
    the readout run once over the copies (``input.*`` arrays start at the
    embedding, ``head.*`` arrays run the readout alone). Each copy keeps its
    own slice of every op, with the shapes of :func:`batch_loss`, so its
    loss is bitwise the :func:`batch_loss` of the model holding that copy.
    The model's arrays are never written.
    """

    def __init__(self, model: ModelParams, layout: Layout, states, loss: str):
        self.model = model
        self.loss = loss
        self.layout = layout
        self.groups = [(graphs, targets) for graphs, targets, _ in states]
        self.n_graphs = sum(graphs.size for graphs, _ in self.groups)
        # Per group: the hidden state entering each layer, then the last one.
        self.hidden = [[model_embed(graphs, model), *hidden] for graphs, _, hidden in states]

    def probe_losses(self, probes, h: float):
        """``(f_plus, f_minus)``: for each ``(array, flat indices)`` of
        ``probes``, arrays of the layout's ``index`` that one layer reads,
        and for each index j in turn, the :func:`batch_loss` with that
        array's entry j moved to ``old + h`` and to ``old - h``.

        The copies run array after array, copy 2m of an array holding its
        m-th index at ``old + h`` and copy 2m + 1 at ``old - h``. An array of
        more than :data:`PROBE_CHUNK` copies takes passes of its own, that
        many copies each; smaller ones share a pass while it holds at most
        that many copies and copies x entries of its arrays stay within
        :data:`PACK_ENTRIES`. A pass stacks each of its arrays' copies, all
        at the array's values but for its own copies' entries."""
        start = self.layout.index[id(probes[0][0])].layer
        wheres = [np.asarray(where, dtype=np.intp) for _, where in probes]
        counts = [where.size for where in wheres]
        # Copy c moves entry where[c] of its array by step[c]; old + (-h) is old - h.
        where = np.repeat(np.concatenate(wheres), 2)
        step = np.tile([h, -h], where.size // 2)
        passes, pack, copies, entries, hi = [], [], 0, 0, 0
        for (arr, _), count in zip(probes, counts):
            lo, hi = hi, hi + 2 * count
            if hi - lo > PROBE_CHUNK:
                passes += [[(arr, a, min(a + PROBE_CHUNK, hi))]
                           for a in range(lo, hi, PROBE_CHUNK)]
                continue
            copies, entries = copies + hi - lo, entries + arr.size
            if pack and (copies > PROBE_CHUNK or copies * entries > PACK_ENTRIES):
                passes.append(pack)
                pack, copies, entries = [], hi - lo, arr.size
            pack.append((arr, lo, hi))
        losses, copy_axis = np.empty(hi), np.arange(hi)
        for runs in filter(None, passes + [pack]):
            rows = np.concatenate([copy_axis[lo:hi] for _, lo, hi in runs])  # the pass's copies
            stacks, at = {}, 0
            for arr, lo, hi in runs:
                stack = stacks[id(arr)] = arr[None].repeat(rows.size, axis=0)
                stack.reshape(rows.size, -1)[copy_axis[at:at + hi - lo],
                                             where[lo:hi]] += step[lo:hi]
                at += hi - lo
            losses[rows] = self._loss_from(start, lambda a: stacks.get(id(a), a))
        return losses[0::2], losses[1::2]

    def _loss_from(self, start, lift):
        """Per copy, the mean loss of a forward from layer ``start`` (-1: the
        embedding, L: the readout alone); ``lift`` gives each copy's arrays."""
        model = self.model
        total = 0.0
        for (graphs, targets), states in zip(self.groups, self.hidden):
            h = model_embed(graphs, model, lift=lift) if start < 0 else states[start]
            for h, _ in run_layers(graphs, h, model.layers, lift=lift, first=max(start, 0)):
                pass
            pred = model_readout(h, model, lift=lift, n_graphs=graphs.size)
            total = total + _group_loss(pred, targets, self.loss)
        return total / self.n_graphs


def _checked_coordinates(sizes, sample: int | None, seed: int):
    """``(counts, coords)`` for names of ``sizes`` entries: how many
    coordinates of each name the check probes, and those flat coordinates,
    name after name, each name's in ascending order. A name of more than
    ``sample`` entries takes the entries where its piece of one ``uniform``
    draw holds its ``sample`` smallest values; any other, every entry. The
    pieces of one size are sorted by one row-wise ``argsort``, which sorts
    each row as a lone ``argsort`` of that piece does."""
    counts = sizes if sample is None else np.minimum(sizes, sample)
    first = np.cumsum(counts) - counts
    coords = np.arange(counts.sum()) - np.repeat(first, counts)
    cut = counts < sizes
    pieces = np.where(cut, sizes, 0)
    draw = SeededRng(seed).uniform((int(pieces.sum()),))
    drawn_at = np.cumsum(pieces) - pieces
    for size in np.unique(sizes[cut]):
        rows = np.flatnonzero(cut & (sizes == size))
        picked = np.argsort(draw[drawn_at[rows, None] + np.arange(size)], axis=1)[:, :sample]
        coords[first[rows, None] + np.arange(sample)] = np.sort(picked, axis=1)
    return counts, coords


def _piece_norms(vectors, counts):
    """Per row of ``vectors``, the 2-norm of each piece of it, the pieces
    ``counts`` long one after another, each bitwise its ``np.linalg.norm``.
    The pieces of one length take one stacked vector-vector ``matmul``,
    whose every product is the ``ddot`` the norm runs; the stack is
    C-contiguous so that each runs at unit stride, as the norm's does."""
    first = np.cumsum(counts) - counts
    norms = np.empty((len(vectors), len(counts)))
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        block = np.ascontiguousarray(vectors[:, first[rows, None] + np.arange(count)])
        norms[:, rows] = np.sqrt(block[..., None, :] @ block[..., None])[..., 0, 0]
    return norms


def finite_difference_check(model: ModelParams, params: ParamSet, batch,
                            h: float = 1e-5, sample: int | None = 100,
                            seed: int = 0, loss: str = "mse") -> FdReport:
    """Compare analytic gradients against central finite differences.

    ``params`` names the parameters to check, each with the model's shape
    (else ValueError). ``sample`` >= 1 coordinates are drawn per parameter
    (deterministically from ``seed``, in one draw); ``sample=None`` checks
    every coordinate. The model runs unperturbed once, as the taped pass of
    :func:`loss_and_gradients`, whose hidden states the probes start from.
    The probes of the arrays one layer reads run as a few batched passes
    (:meth:`_PlainForwardCache.probe_losses`), each loss bitwise the
    :func:`batch_loss` of the perturbed model; the model is only read.

    The bookkeeping is array ops over every checked coordinate, each bitwise
    its per-name form: the coordinates come from :func:`_checked_coordinates`,
    the norms of ``param_rel`` from :func:`_piece_norms`.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"h must lie in [1e-7, 1e-3], got {h}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1 (or None for every coordinate), got {sample}")
    layout = model.layout or ParamSet.from_model(model)  # no layout: this raises
    if not params.layout.names:
        raise ValueError("params is empty: there is no parameter to check")
    shapes = dict(zip(layout.names, layout.shapes))
    for name, shape in zip(params.layout.names, params.layout.shapes):
        if name not in shapes:
            raise ValueError(f"params names {name!r}, which is not a parameter of the model")
        if shape != shapes[name]:
            raise ValueError(f"params gives {name!r} the shape {shape}, "
                             f"but the model's has {shapes[name]}")
    _, grads = loss_and_gradients(model, batch, loss=loss)  # off the layout: this raises
    cache = _PlainForwardCache(model, grads.layout, grads.states, loss)
    names, sizes = params.layout.names, np.diff(params.layout.starts)
    counts, coords = _checked_coordinates(sizes, sample, seed)
    first = np.cumsum(counts) - counts  # where each name's coordinates start
    # The probes, layer after layer, array after array, each array's names
    # in order: a head's coordinate j is entry k * size + j of its stack.
    by_layer = {}  # layer -> {id of an array it reads: [array, its names' positions, count]}
    shifts = []
    for i, (name, size, count) in enumerate(zip(names, sizes.tolist(), counts.tolist())):
        stack, k = layout.reads[name]
        shifts.append((k or 0) * size)
        arrays = by_layer.setdefault(layout.index[id(stack)].layer, {})
        run = arrays.setdefault(id(stack), [stack, [], 0])
        run[1].append(i)
        run[2] += count
    order = [i for arrays in by_layer.values() for _, named, _ in arrays.values()
             for i in named]
    probed = np.repeat(first[order] - (np.cumsum(counts[order]) - counts[order]),
                       counts[order]) + np.arange(coords.size)  # probe order -> coordinate
    where = (coords + np.repeat(shifts, counts))[probed]
    diffs, hi = [], 0
    for arrays in by_layer.values():
        probes = []
        for stack, _, count in arrays.values():
            lo, hi = hi, hi + count
            probes.append((stack, where[lo:hi]))
        f_plus, f_minus = cache.probe_losses(probes, h)
        diffs.append((f_plus - f_minus) / (2.0 * h))
    n_all = np.empty(coords.size)
    n_all[probed] = np.concatenate(diffs)
    starts = dict(zip(layout.names, layout.starts))
    a_all = grads.flat[np.repeat([starts[name] for name in names], counts) + coords]
    rel = np.abs(a_all - n_all) / np.maximum(np.maximum(np.abs(a_all), np.abs(n_all)), 1e-12)
    worst = int(np.argmax(np.where(rel > 0.0, rel, 0.0)))  # the first maximum, never a NaN
    max_rel, worst_param, worst_index = 0.0, None, None
    if rel[worst] > 0.0:
        worst_param = names[np.searchsorted(first + counts, worst, "right")]
        max_rel, worst_index = rel[worst], int(coords[worst])
    diff_norm, a_norm, n_norm = _piece_norms(np.stack([a_all - n_all, a_all, n_all]), counts)
    param_rel = diff_norm / np.maximum(np.maximum(a_norm, n_norm), 1e-12)
    return FdReport(max_rel, worst_param, worst_index, coords.size,
                    dict(zip(names, param_rel.tolist())))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """AdamW moments as flat float64 vectors laid out as the parameters'
    ``flat``: one entry per parameter value, in the layout's order; and two
    vectors of that size that each step writes its intermediates into."""

    m: np.ndarray
    v: np.ndarray
    step: int
    weight_decay: float
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, self.m.size))


def init_optimizer(params: ParamSet, weight_decay: float = 0.0) -> OptimizerState:
    size = params.flat.size
    return OptimizerState(m=np.zeros(size), v=np.zeros(size), step=0,
                          weight_decay=weight_decay)


def adamw_step(params: ParamSet, grads: ParamSet, state: OptimizerState, lr_t: float):
    """One AdamW update (decoupled weight decay, bias correction) in place on
    ``params.flat`` from ``grads.flat``, by whole-vector ops written into the
    state's scratch vectors: each element sees the ufuncs of a per-array
    update, in its order, and the step allocates no vector. For a set from
    :meth:`ParamSet.from_model` that vector is the model's own. A state of
    another size, or gradients of other names or shapes, is a ValueError."""
    flat = params.flat
    if flat.size != state.m.size:
        raise ValueError(f"parameters hold {flat.size} values, "
                         f"the optimizer state {state.m.size}")
    if (grads.layout.names, grads.layout.shapes) != (params.layout.names, params.layout.shapes):
        raise ValueError("the gradients are not laid out like the parameters")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    g, m, v = grads.flat, state.m, state.v
    update, denom = state.scratch
    if state.weight_decay:
        flat *= 1.0 - lr_t * state.weight_decay
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=update)
    v *= ADAM_BETA2
    v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=update), out=update)
    np.multiply(lr_t, np.divide(m, bc1, out=update), out=update)
    np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), ADAM_EPS, out=denom)
    flat -= np.divide(update, denom, out=update)
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
    params = model.params
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
        del grads  # with it this step's hidden states, before the next taped pass
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
    """One ``epoch,loss,lr`` row per epoch of ``history``: it reads only its
    ``losses`` and ``lrs``, which is all a pool worker sends back of it."""
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
    """Write :meth:`ParamSet.from_model` of the model (so only a model with
    a layout is saved): its layout's header, then each parameter."""
    params = ParamSet.from_model(model)
    lines = ["# siggate-model"]
    lines += [f"# {k} = {v}" for k, v in params.layout.header.items()]
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
    for name, arr in model.params.items():  # the skeleton's own: no walk to check
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
