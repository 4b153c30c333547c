"""Reference formulas the library's faster kernels must match bit for bit.

Each is the plain numpy formulation of a kernel, kept here as an
independent oracle: ``numeric.sigmoid``, the row scatter-add behind the
MPNN's scatters (``autodiff.scatter_add``), the ``0 log 0 = 0``
sum of ``diagnostics.attention_entropy``, the upper triangle of
``diagnostics.mad`` gathered by ``np.triu_indices``, and the rank study run
one (c, rho) cell at a time, each cell drawing its seeds from scratch and
taking each stable rank from a lone eigensolver call on its Gram matrix. It also keeps hand-written descriptions of the model's
parameters, against which the declarations of ``gps.model_skeleton`` are
checked: the parameter registry written out name by name (a head's
parameter is its slice of the layer's stack), and the probe index built by
walking the parameter dataclasses.
For attention it keeps the gate activations as plain numpy, one head's
forward pass written out op by op on that head's plain arrays, and the
head-by-head draws of ``attention.init_mhsa_params``. For the gradient
check it keeps the one-probe loop: each probe writes its perturbed entry
into the model and runs the full tape-free ``training.batch_loss``. For the
parameter storage it keeps the Box-Muller formula of one
``SeededRng.standard_normal`` call, the model init drawn one
``gaussian_matrix`` call per weight, the gradients assembled name by name
after the backward sweep of a forward with its own memoizing ``lift``
(:class:`MemoLift`), the loop that named the first non-finite parameter
array by array, and the parameter sets the tests build by hand
(:func:`param_set`, :func:`subset`, :func:`copy_values`). For the tape it
keeps the GPS layer and its MPNN composed of autodiff's ops, one tape
node each (:func:`per_op_layer_forward`, :func:`per_op_mpnn_forward`), whose
gradients the one-node layer must give bit for bit, and the gate
activations as the op chains the tape ran before ``autodiff`` had one
closed form per activation (:func:`chained_activation`). The forms those
op-by-op oracles need and the library does not run (``transpose_vjp``,
``take_rows_vjp``, ``scatter_rows_vjp``, ``sqrt_vjp``, ``erf_vjp``) live
here, in autodiff's ``(out, back)`` convention. For the per-call costs of a
training step it keeps the row softmax with one max reduction per row, the
SplitMix64 stream in Python integers, the per-head traces made up front and
cut by ``np.split``, and the AdamW step that allocated its intermediates.
For the instruments it keeps ``diagnostics.depth_profile`` and
``diagnostics.trace_gate_values`` as they read each head's trace on its own:
one ``attention_entropy`` call per head, and the heads' gates joined one by
one.
"""

import numpy as np

from dataclasses import fields, is_dataclass
from itertools import accumulate

from scipy.special import erf

from siggate import autodiff as ad
from siggate.diagnostics import _ZERO_ROW_TOL, DepthProfile, attention_entropy, mad
from siggate.gps import Layout, ParamSet
from siggate.numeric import NonFiniteInputError, SeededRng, gaussian_matrix, row_softmax, sigmoid
from siggate.synthexp import calibrate_gate


def two_branch_sigmoid(x):
    """Stable logistic function with one exp per branch and a select."""
    x = np.asarray(x, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, None)))
    ex = np.exp(np.clip(x, None, 0.0))
    neg = ex / (1.0 + ex)
    return np.where(x >= 0.0, pos, neg)


def add_at_rows(x, idx, n_rows):
    """Rows of ``x`` summed into ``n_rows`` zero rows at ``idx`` by ``np.add.at``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n_rows,) + x.shape[1:])
    np.add.at(out, np.asarray(idx, dtype=np.intp), x)
    return out


def nested_where_entropy(a):
    """Mean row entropy of a row-stochastic matrix with ``0 log 0 = 0``."""
    plogp = np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0)
    return float(np.mean(-plogp.sum(axis=1)))


def triu_mad(h):
    """``diagnostics.mad`` of rows whose norms stay finite, the pairs i < j of
    the nonzero rows gathered by ``np.triu_indices``."""
    h = np.asarray(h, dtype=np.float64)
    norms = np.linalg.norm(h, axis=1)
    keep = norms > _ZERO_ROW_TOL
    unit = h[keep] / norms[keep, None]
    sim = unit @ unit.T
    return float(np.mean(1.0 - sim[np.triu_indices(unit.shape[0], k=1)]))


def eigvalsh_top_singular_value(m):
    """Largest singular value of a finite nonzero matrix whose squares stay
    finite: the square root of the largest eigenvalue of its smaller Gram
    matrix, from one lone ``np.linalg.eigvalsh`` call."""
    m = np.asarray(m, dtype=np.float64)
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def _stable_rank(m):
    top = eigvalsh_top_singular_value(m)
    return float(np.sum(m * m)) / (top * top)


def per_cell_rank_seed(cfg, seed, cal):
    """One seed of one rank-study cell: every draw made for this cell alone.

    Returns the head-mean stable ranks, the gate sums and one dict per head
    of its ``seed``, output ``y``, ``gate`` and both stable ranks."""
    inv_sqrt_dk = 1.0 / np.sqrt(cfg.d_k)
    proj_std = 1.0 / np.sqrt(cfg.d)
    rng = SeededRng(seed)
    hidden = gaussian_matrix(rng, cfg.n, cfg.d, 1.0)
    mask = rng.uniform((cfg.n, cfg.n)) >= cfg.rho
    np.fill_diagonal(mask, True)
    sr_ungated, sr_gated, captured = [], [], []
    gate_sum = gate_sq_sum = 0.0
    gate_count = 0
    for _ in range(cfg.n_heads):
        w_q = gaussian_matrix(rng, cfg.d, cfg.d_k, proj_std)
        w_k = gaussian_matrix(rng, cfg.d, cfg.d_k, proj_std)
        w_v = gaussian_matrix(rng, cfg.d, cfg.d_k, proj_std)
        w_g = gaussian_matrix(rng, cfg.d, cfg.d_k, 1.0)
        w_g = w_g / np.linalg.norm(w_g, axis=0, keepdims=True)
        q, k, v = hidden @ w_q, hidden @ w_k, hidden @ w_v
        attn = row_softmax(cfg.c * (q @ k.T) * inv_sqrt_dk, mask)
        y = attn @ v
        gate = sigmoid(cal.scale * (hidden @ w_g) + cal.bias)
        sr_ungated.append(_stable_rank(y))
        sr_gated.append(_stable_rank(y * gate))
        gate_sum += gate.sum()
        gate_sq_sum += (gate * gate).sum()
        gate_count += gate.size
        captured.append({"seed": seed, "y": y, "gate": gate,
                         "srank_ungated": sr_ungated[-1], "srank_gated": sr_gated[-1]})
    return (float(np.mean(sr_ungated)), float(np.mean(sr_gated)),
            gate_sum, gate_sq_sum, gate_count, captured)


def per_cell_rank_experiment(cfg):
    """The rank study for one config, seed by seed, every draw made afresh.

    Returns ``(calibration, [(seed, srank_ungated, srank_gated)], gate mean,
    gate std, intermediates)``."""
    cal = calibrate_gate(cfg.target_gate_mean, cfg.target_gate_std)
    per_seed, intermediates = [], []
    gate_sum = gate_sq_sum = 0.0
    gate_count = 0
    for seed in cfg.seeds:
        su, sg, gsum, gsq, gcount, captured = per_cell_rank_seed(cfg, seed, cal)
        per_seed.append((seed, su, sg))
        gate_sum += gsum
        gate_sq_sum += gsq
        gate_count += gcount
        intermediates.extend(captured)
    gate_mean = gate_sum / gate_count
    gate_var = gate_sq_sum / gate_count - gate_mean ** 2
    return (cal, per_seed, float(gate_mean), float(np.sqrt(max(gate_var, 0.0))),
            intermediates)


def assert_bitwise(got, want):
    """Same shape and the same bytes (so +0.0 and -0.0 differ)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.tobytes() == want.tobytes()


def hand_written_reads(model):
    """``{name: (array, k)}`` of every parameter, written out name by name in
    the order of the model dump from the model's dataclasses: the array the
    forward reads for it, of which the parameter is slice k (a head stack's)
    or, k None, the whole."""
    items = {}

    def put(name, arr, k=None):
        if name in items:
            raise ValueError(f"duplicate parameter name {name!r}")
        items[name] = (arr, k)

    put("input.w", model.w_in)
    put("input.b", model.b_in)
    for i, layer in enumerate(model.layers):
        pre = f"layer{i}"
        attn = layer.attn
        for k in range(attn.w_q.shape[0]):
            put(f"{pre}.attn.head{k}.w_q", attn.w_q, k)
            put(f"{pre}.attn.head{k}.w_k", attn.w_k, k)
            put(f"{pre}.attn.head{k}.w_v", attn.w_v, k)
        cfg = attn.gate
        if cfg.placement != "none":
            if cfg.sharing == "shared":
                put(f"{pre}.attn.gate.w_g", attn.w_g, 0)
                if attn.w_g2 is not None:
                    put(f"{pre}.attn.gate.w_g2", attn.w_g2, 0)
                put(f"{pre}.attn.gate.b_g", attn.b_g, 0)
            else:
                for k in range(attn.w_q.shape[0]):
                    put(f"{pre}.attn.head{k}.w_g", attn.w_g, k)
                    if attn.w_g2 is not None:
                        put(f"{pre}.attn.head{k}.w_g2", attn.w_g2, k)
                    put(f"{pre}.attn.head{k}.b_g", attn.b_g, k)
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
    return items


def hand_written_registry(model):
    """``{name: array}`` of every parameter: :func:`hand_written_reads`, each
    head's slice taken."""
    return {name: arr if k is None else arr[k]
            for name, (arr, k) in hand_written_reads(model).items()}


def dataclass_arrays(obj):
    """Every numpy array held by a (nested) parameter dataclass."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from dataclass_arrays(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from dataclass_arrays(getattr(obj, f.name))


def dataclass_probe_index(model):
    """``id(array) -> the first layer that reads it`` for every array the
    layers hold (each attention stack once), and L for the readout's arrays."""
    index = {}
    for i, layer in enumerate(model.layers):
        for arr in dataclass_arrays(layer):
            index.setdefault(id(arr), i)
    for arr in (model.w_head, model.b_head):
        index.setdefault(id(arr), len(model.layers))
    return index


def dump_text(meta, registry):
    """A model dump written from ``meta`` and the records of ``registry`` in its order."""
    lines = ["# siggate-model"] + [f"# {k} = {v}" for k, v in meta.items()]
    for name, arr in registry.items():
        mat = np.atleast_2d(arr)
        lines.append(f"{name} {mat.shape[0]} {mat.shape[1]}")
        lines += [" ".join(format(float(x), ".17g") for x in row) for row in mat]
    return "\n".join(lines) + "\n"


GATE_ACTIVATIONS = {
    "sigmoid": two_branch_sigmoid,
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(np.asarray(x, dtype=np.float64), 0.0),
    "sigmoid_squared": lambda x: two_branch_sigmoid(x) ** 2,
}


def per_row_max_softmax(logits, mask=None):
    """``numeric.row_softmax`` with every row's maximum taken by ``z.max(axis=1)``,
    one reduction loop per row, as it was for rows of every length: its checks
    and messages too."""
    z = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if not m.any(axis=1).all():
            bad = int(np.flatnonzero(~m.any(axis=1))[0])
            raise ValueError(f"row {bad} is fully masked; softmax undefined")
        z = np.where(m, z, -np.inf)
    zmax = z.max(axis=1, keepdims=True)
    if not np.isfinite(zmax).all():
        bad = int(np.flatnonzero(~np.isfinite(zmax))[0])
        raise NonFiniteInputError(
            f"row {bad} has largest logit {zmax[bad, 0]}; softmax undefined")
    e = z - zmax
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def masked_softmax(logits, mask=None):
    """Row softmax after max subtraction; masked entries come out exactly 0."""
    z = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        z = np.where(mask, z, -np.inf)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def head_forward(h, head, placement, activation="sigmoid", mask=None):
    """One head on one graph, op by op in the library's order: ``(output,
    attention, gate)`` with ``gate`` None for placement ``none``. ``head``
    maps ``w_q``, ``w_k``, ``w_v`` (and the gate's ``w_g``, ``w_g2``,
    ``b_g``) to that head's plain arrays."""
    act = GATE_ACTIVATIONS[activation]
    inv_sqrt_dk = 1.0 / np.sqrt(head["w_q"].shape[1])
    logits = ((h @ head["w_q"]) @ (h @ head["w_k"]).T) * inv_sqrt_dk
    v = h @ head["w_v"]
    gate = None
    if placement == "g3":
        gate = act(((h @ head["w_g"]) @ (h @ head["w_g2"]).T) * inv_sqrt_dk + head["b_g"][0])
        logits = gate * logits
    attention = masked_softmax(logits, mask)
    if placement == "g2":
        gate = act(h @ head["w_g"] + head["b_g"])
        v = gate * v
    out = attention @ v
    if placement == "g1":
        gate = act(h @ head["w_g"] + head["b_g"])
        out = out * gate
    return out, attention, gate


def head_by_head_init(rng, d, n_heads, cfg, gate_weight_std=None):
    """``(heads, w_o)`` drawn as a layer's init draws them: a shared gate
    first, then per head Q, K, V (std 1/sqrt(d)) and the head's own gate
    (W_g, for g3 also W_g2, and a bias at ``bias_init`` that draws
    nothing), then W_O. A gate weight std of 0 gives zeros and draws
    nothing. Each head is a dict of its plain arrays by field name (a gate
    field the placement lacks is None; every head holds the shared gate)."""
    d_k = d // n_heads
    std = 1.0 / np.sqrt(d)
    g_std = std if gate_weight_std is None else gate_weight_std
    g3 = cfg.placement == "g3"

    def gate():
        if g_std:
            w_g = gaussian_matrix(rng, d, d_k, g_std)
            w_g2 = gaussian_matrix(rng, d, d_k, g_std) if g3 else None
        else:
            w_g, w_g2 = np.zeros((d, d_k)), np.zeros((d, d_k)) if g3 else None
        return w_g, w_g2, np.full(1 if g3 else d_k, float(cfg.bias_init))

    gated = cfg.placement != "none"
    shared = gate() if gated and cfg.sharing == "shared" else None
    heads = []
    for _ in range(n_heads):
        qkv = [gaussian_matrix(rng, d, d_k, std) for _ in range(3)]
        g = (shared or gate()) if gated else (None, None, None)
        heads.append(dict(zip(("w_q", "w_k", "w_v", "w_g", "w_g2", "b_g"), (*qkv, *g))))
    return heads, gaussian_matrix(rng, n_heads * d_k, d, std)


def one_probe_losses(model, batch, loss, arr, idxs, h):
    """``(f_plus, f_minus)``: for each flat index j of ``idxs``, the full
    ``batch_loss`` with ``arr``'s entry j written to ``old + h``, then to
    ``old - h``, one probe at a time; the entry is restored after each."""
    from siggate.training import batch_loss

    plus, minus = [], []
    for j in idxs:
        loc = np.unravel_index(int(j), arr.shape)
        old = arr[loc]
        try:
            arr[loc] = old + h
            plus.append(batch_loss(model, batch, loss))
            arr[loc] = old - h
            minus.append(batch_loss(model, batch, loss))
        finally:
            arr[loc] = old
    return plus, minus


def vector_positions(model, probes):
    """The positions in the model's vector of the entries of ``probes``, a
    list of ``(array, flat indices)`` of arrays that view that vector, array
    after array: each entry's byte offset from the vector's first entry, as
    its array's strides place it, in entries."""
    base = model.params.flat.__array_interface__["data"][0]
    at = []
    for arr, idxs in probes:
        loc = np.unravel_index(np.asarray(idxs, dtype=np.intp), arr.shape)
        offset = arr.__array_interface__["data"][0] - base
        offset += sum(i * stride for i, stride in zip(loc, arr.strides))
        at.append(offset // arr.itemsize)
    return np.concatenate(at)


def one_probe_fd_check(model, params, batch, h=1e-5, sample=100, seed=0, loss="mse"):
    """``training.finite_difference_check`` with its probes run one at a
    time by :func:`one_probe_losses`: the same coordinates, arithmetic and
    report. ``params`` names the parameters to check, in its order; each
    is probed as the model's own entry of that name."""
    from siggate.training import FdReport, loss_and_gradients

    _, grads = loss_and_gradients(model, batch, loss=loss)
    rng = SeededRng(seed)
    max_rel, worst_param, worst_index, n_checked = 0.0, None, None, 0
    param_rel = {}
    for name in params.layout.names:
        arr = model.params[name]
        analytic = grads[name].reshape(-1)
        if sample is None or sample >= arr.size:
            idxs = range(arr.size)
        else:
            idxs = np.sort(np.argsort(rng.uniform((arr.size,)))[:sample])
        a_checked, n_checked_vals = [], []
        for j, f_plus, f_minus in zip(idxs, *one_probe_losses(model, batch, loss, arr, idxs, h)):
            numeric_g = (f_plus - f_minus) / (2.0 * h)
            rel = abs(analytic[j] - numeric_g) / max(abs(analytic[j]), abs(numeric_g), 1e-12)
            n_checked += 1
            a_checked.append(analytic[j])
            n_checked_vals.append(numeric_g)
            if rel > max_rel:
                max_rel, worst_param, worst_index = rel, name, int(j)
        a_vec, n_vec = np.array(a_checked), np.array(n_checked_vals)
        param_rel[name] = float(np.linalg.norm(a_vec - n_vec)
                                / max(np.linalg.norm(a_vec), np.linalg.norm(n_vec), 1e-12))
    return FdReport(max_rel, worst_param, worst_index, n_checked, param_rel)


def splitmix64(seed, counter, count):
    """Raw outputs ``counter + 1`` to ``counter + count`` of the SplitMix64
    stream of ``seed``, in Python integers: ``mix64(seed + i * GOLDEN)`` mod 2^64."""
    mask, out = (1 << 64) - 1, []
    for i in range(counter + 1, counter + count + 1):
        x = (seed + i * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        out.append(x ^ (x >> 31))
    return np.array(out, dtype=np.uint64)


def concatenated_box_muller(rng, count):
    """``count`` normals as one ``standard_normal`` call drew them: p =
    ceil(count / 2) pairs from the next 2p raw outputs (:func:`splitmix64`,
    advancing ``rng``'s counter), u1 the first p and u2 the next p, then the
    p cosine values and the p sine values, cut to ``count``."""
    pairs = (count + 1) // 2
    raw = splitmix64(rng.seed, rng._counter, 2 * pairs)
    rng._counter += 2 * pairs
    u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:count]


def per_call_init(rng, *, d_in, d, n_heads, n_layers, gate, d_ff=None, d_e=0, out_dim=1,
                  gate_weight_std=None):
    """``{name: array}`` of the model ``gps.init_model`` builds, in dump
    order, drawn one ``gaussian_matrix`` call per weight: W_in, then per
    layer the heads (:func:`head_by_head_init`), W_edge, W_val, W_1 and W_2,
    then the head. Biases are zero, layer-norm scales one and gate biases
    at ``bias_init``."""
    d_ff = 2 * d if d_ff is None else d_ff
    out = {"input.w": gaussian_matrix(rng, d_in, d, 1.0 / np.sqrt(d_in)), "input.b": np.zeros(d)}
    for i in range(n_layers):
        pre = f"layer{i}"
        heads, w_o = head_by_head_init(rng, d, n_heads, gate, gate_weight_std)
        for k, head in enumerate(heads):
            for f in ("w_q", "w_k", "w_v"):
                out[f"{pre}.attn.head{k}.{f}"] = head[f]
        if gate.placement != "none":
            owners = ["gate"] if gate.sharing == "shared" else [f"head{k}" for k in range(n_heads)]
            for owner, head in zip(owners, heads):
                for f in ("w_g", "w_g2", "b_g"):
                    if head[f] is not None:
                        out[f"{pre}.attn.{owner}.{f}"] = head[f]
        out[f"{pre}.attn.w_o"] = w_o
        out[f"{pre}.mpnn.w_edge"] = gaussian_matrix(rng, 2 * d + d_e, d, 1.0 / np.sqrt(2 * d + d_e))
        out[f"{pre}.mpnn.w_val"] = gaussian_matrix(rng, d, d, 1.0 / np.sqrt(d))
        out[f"{pre}.ffn.w1"] = gaussian_matrix(rng, d, d_ff, 1.0 / np.sqrt(d))
        out[f"{pre}.ffn.b1"] = np.zeros(d_ff)
        out[f"{pre}.ffn.w2"] = gaussian_matrix(rng, d_ff, d, 1.0 / np.sqrt(d_ff))
        out[f"{pre}.ffn.b2"] = np.zeros(d)
        for ln in ("ln1", "ln2"):
            out[f"{pre}.{ln}.scale"] = np.ones(d)
            out[f"{pre}.{ln}.shift"] = np.zeros(d)
    out["head.w"] = gaussian_matrix(rng, d, out_dim, 1.0 / np.sqrt(d))
    out["head.b"] = np.zeros(out_dim)
    return out


class MemoLift:
    """The ``lift`` of a taped forward that puts each array on the tape once,
    the first time the forward reads it; ``grad(arr)`` is that leaf's
    gradient after a backward sweep (None if the forward never read ``arr``)."""

    def __init__(self):
        self.leaves = {}

    def __call__(self, arr):
        if id(arr) not in self.leaves:
            self.leaves[id(arr)] = ad.Var(arr)
        return self.leaves[id(arr)]

    def grad(self, arr):
        leaf = self.leaves.get(id(arr))
        return None if leaf is None else leaf.grad


def per_name_gradients(model, params, batch, loss="mse"):
    """``{name: gradient}`` for every name of ``params``, assembled name by
    name after one taped pass: each name looks up the array the model's
    dataclasses hold for it (:func:`hand_written_reads`) and takes that
    array's gradient (slice k of a head stack's), or zeros when the array is
    not on the tape."""
    from siggate.gps import batch_forward
    from siggate.training import _graph_groups, _group_loss

    lift = MemoLift()
    total = None
    for _, graphs, targets in _graph_groups(batch):
        pred, _ = batch_forward(graphs, model, lift=lift)
        term = _group_loss(pred, targets, loss)
        total = term if total is None else ad.add(total, term)
    ad.backward(ad.div(total, float(len(batch))))
    read = hand_written_reads(model)
    grads = {}
    for name, arr in params.items():
        stack, k = read[name]
        g = lift.grad(stack)
        grads[name] = (np.zeros_like(arr) if g is None
                       else np.asarray(g) if k is None else np.asarray(g)[k])
    return grads


def param_set(items):
    """A :class:`ParamSet` of copies of the arrays of ``items`` (name ->
    array), packed in order into a new vector, over a layout of their
    names and shapes alone: it reads no model."""
    arrays = [np.asarray(a, dtype=np.float64) for a in items.values()]
    starts = tuple(accumulate((a.size for a in arrays), initial=0))
    layout = Layout(tuple(items), tuple(a.shape for a in arrays), starts, index={},
                    slots=np.zeros(0, dtype=np.intp), header={})
    return ParamSet(layout, np.concatenate([a.reshape(-1) for a in arrays] or [np.zeros(0)]))


def subset(params, names):
    """Copies of the named entries of ``params``, as :func:`param_set`."""
    return param_set({name: params[name] for name in names})


def copy_values(params):
    """A detached snapshot of the values of ``params``, by name."""
    return {name: arr.copy() for name, arr in params.items()}


def first_nonfinite_by_loop(params):
    """The first name of ``params`` whose array holds a NaN or an infinity, array by array."""
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            return name
    return None


# ---------------------------------------------------------------------------
# The GPS layer as a composition of tape ops
# ---------------------------------------------------------------------------
#
# ``gps.gps_layer_forward`` as it was written before the layer became one
# tape node: every numpy op of the layer is an autodiff op, put on the tape
# through its form by :func:`taped` (the gate activations are the op chains
# of :func:`chained_activation`, independent of autodiff's activation
# table), so a taped pass records one node per op and the backward sweep
# sums each array's gradient terms in the order its consumers come off the
# tape. The layer node's closed-form VJP must give these gradients bit for
# bit.


def taped(form, *operands, **static):
    """The op of autodiff's ``form`` on ``operands`` (``static``: its other
    arguments), one tape node when a ``Var`` is among them."""
    out, back = form(*map(ad.value, operands), **static)
    return ad.fused(out, operands, back)


def transpose_vjp(x):
    """Swap the last two axes: the transpose of a matrix, or of each
    matrix in a stack."""
    return np.asarray(x).swapaxes(-1, -2), lambda g: (np.asarray(g).swapaxes(-1, -2),)


def take_rows_vjp(x, idx):
    """Row gather ``x[idx]`` (rows are axis -2 of a stack of matrices); its
    ``back`` scatter-adds into the source rows with the MPNN's scatter."""
    return np.take(x, idx, axis=-2), lambda g: (ad.scatter_add(g, idx, np.shape(x)[-2]),)


def scatter_rows_vjp(x, idx, n_rows):
    """Sum rows of ``x`` into an ``n_rows``-row output at positions ``idx``
    with the MPNN's scatter."""
    return ad.scatter_add(x, idx, n_rows), lambda g: (np.asarray(g)[idx],)


def sqrt_vjp(x):
    y = np.sqrt(np.asarray(x, dtype=np.float64))
    return y, lambda g: (g * 0.5 / y,)


def erf_vjp(x):
    x = np.asarray(x, dtype=np.float64)
    return erf(x), lambda g: (g * (2.0 / np.sqrt(np.pi)) * np.exp(-x * x),)


def _elementwise_node(x, fwd, vjp):
    """``fwd`` on ``x`` as a tape node of its own: ``vjp(g, x, y)`` is x's
    term for ``y = fwd(x)``."""
    xv = np.asarray(ad.value(x), dtype=np.float64)
    y = fwd(xv)
    return ad.fused(y, [x], lambda g: [vjp(g, xv, y)])


def chained_activation(name, x):
    """The gate activation ``name`` one node per elementwise op, in the
    arithmetic of the tape's ops before the activation table:
    ``sigmoid_squared`` is a sigmoid node, then ``autodiff.square``'s node."""
    if name == "tanh":
        return _elementwise_node(x, np.tanh, lambda g, x, y: g * (1.0 - y * y))
    if name == "relu":
        return _elementwise_node(x, lambda v: np.maximum(v, 0.0),
                                 lambda g, x, y: g * (x > 0.0))
    s = _elementwise_node(x, sigmoid, lambda g, x, y: g * y * (1.0 - y))
    return ad.square(s) if name == "sigmoid_squared" else s


def _per_op_by_graph(x, n_graphs):
    if n_graphs == 1:
        return x
    *lead, rows, cols = ad.value(x).shape
    return ad.reshape(x, (*lead, n_graphs, rows // n_graphs, cols))


def _per_op_scores(a, b, d_k, n_graphs):
    prod = ad.matmul(_per_op_by_graph(a, n_graphs),
                     taped(transpose_vjp, _per_op_by_graph(b, n_graphs)))
    return taped(ad.mul_vjp, prod, 1.0 / np.sqrt(d_k))


def _per_op_heads(h, heads, mask, lift, n_graphs):
    cfg = heads.gate
    act = cfg.activation
    w_q, w_k, w_v = (lift(getattr(heads, name)) for name in ("w_q", "w_k", "w_v"))
    q, k, v = ad.matmul(h, w_q), ad.matmul(h, w_k), ad.matmul(h, w_v)
    raw = _per_op_scores(q, k, np.shape(ad.value(w_q))[-1], n_graphs)

    def value_gate():
        b_g = lift(heads.b_g)
        shape = np.shape(ad.value(b_g))
        b = ad.reshape(b_g, shape[:-1] + (1, shape[-1]))
        return chained_activation(act, ad.add(ad.matmul(h, lift(heads.w_g)), b))

    if cfg.placement == "g3":
        w_g, w_g2, b_g = lift(heads.w_g), lift(heads.w_g2), lift(heads.b_g)
        z = _per_op_scores(ad.matmul(h, w_g), ad.matmul(h, w_g2),
                           np.shape(ad.value(w_g))[-1], n_graphs)
        trailing = (1, 1) if n_graphs == 1 else (1, 1, 1)
        b = ad.reshape(b_g, np.shape(ad.value(b_g))[:-1] + trailing)
        raw = taped(ad.mul_vjp, chained_activation(act, ad.add(z, b)), raw)
    if mask is not None:
        mask = np.tile(mask, (ad.value(raw).size // mask.size, 1))
    attention = taped(ad.row_softmax_vjp, raw, mask=mask)
    if cfg.placement == "g2":
        v = taped(ad.mul_vjp, value_gate(), v)
    out = ad.matmul(attention, _per_op_by_graph(v, n_graphs))
    if n_graphs > 1:
        shape = ad.value(out).shape
        out = ad.reshape(out, shape[:-3] + (-1, shape[-1]))
    if cfg.placement == "g1":
        out = taped(ad.mul_vjp, out, value_gate())
    return out


def per_op_mpnn_forward(graphs, h, p, *, lift=ad.no_tape):
    """``gps.mpnn_forward``'s value on a :class:`GraphBatch` op by op: two row
    gathers, a concatenation, the gate, the values, their product and the
    scatter; taped, one node per op. Without edges these run on no rows, and
    give ``h`` and the weights exact zero terms."""
    h_dst = taped(take_rows_vjp, h, idx=graphs.dst)
    h_src = taped(take_rows_vjp, h, idx=graphs.src)
    parts = [h_dst, h_src]
    if graphs.edge_features is not None:
        parts.append(graphs.edge_features)
    gate = chained_activation("sigmoid", ad.matmul(taped(ad.concat_vjp, *parts), lift(p.w_edge)))
    messages = taped(ad.mul_vjp, gate, ad.matmul(h_src, lift(p.w_val)))
    return taped(scatter_rows_vjp, messages, idx=graphs.dst, n_rows=graphs.rows)


def per_op_layer_forward(g, h, p, *, lift=ad.no_tape):
    """One GPS block op by op: ``(h_next, entry)`` as ``gps.gps_layer_forward``
    returns them, but with a trace of no heads; taped, one node per op."""
    from siggate.attention import HeadTraces
    from siggate.gps import LN_EPS, LayerTraceEntry, _as_batch

    graphs = _as_batch(g)
    local = per_op_mpnn_forward(graphs, h, p.mpnn, lift=lift)
    heads = _per_op_heads(h, p.attn, graphs.attn_mask, lift, graphs.size)
    global_attn = ad.matmul(taped(ad.merge_stack_vjp, heads), lift(p.attn.w_o))
    s = ad.add(ad.add(h, local), global_attn)
    t = ad.layer_norm(s, lift(p.ln1.scale), lift(p.ln1.shift), LN_EPS)
    hidden = taped(ad.gelu_vjp, ad.linear(t, lift(p.ffn.w1), lift(p.ffn.b1)))
    ffn = ad.linear(hidden, lift(p.ffn.w2), lift(p.ffn.b2))
    h_next = ad.layer_norm(ad.add(ffn, t), lift(p.ln2.scale), lift(p.ln2.shift), LN_EPS)
    no_heads = HeadTraces(np.empty((0, 0, 0)), None, np.empty((0, 0, 0)))
    return h_next, LayerTraceEntry(hidden=np.asarray(ad.value(h_next)), head_traces=no_heads)


def eager_head_traces(traces, placement, n_graphs):
    """A layer's :class:`HeadTrace` per head, each made up front from the stacks
    of ``traces`` (a :class:`attention.HeadTraces`), as ``gated_head_forward``
    built them before it kept the stacks: slice k along each stack's head axis,
    which sits 3 axes from the end (4 for an n x n stack over several graphs),
    behind any axes of copies."""
    from siggate.attention import HeadTrace

    def per_head(x, axes):
        lead = (slice(None),) * (x.ndim - axes)
        return [x[lead + (k if x.shape[-axes] > 1 else 0,)] for k in range(heads)]

    square = 3 if n_graphs == 1 else 4
    heads = traces.output.shape[-3]
    gates = ([None] * heads if traces.gate is None
             else per_head(traces.gate, square if placement == "g3" else 3))
    return [HeadTrace(attention=a, gate=g, output=o) for a, g, o in
            zip(per_head(traces.attention, square), gates, per_head(traces.output, 3))]


def np_split_trace(trace, n_graphs):
    """The per-graph pieces of a batch's :class:`gps.LayerTrace` as ``split``
    cut them before it reshaped the stacks: per head, a stack's matrices one by
    one, or ``np.split`` of its rows; ``[(hidden, [(attention, gate, output)])]``
    per layer, for each graph."""
    def pieces(x):
        return list(x) if x.ndim == 3 else np.split(x, n_graphs)

    out = [[] for _ in range(n_graphs)]
    for hidden, heads in zip(trace.hidden, trace.head_traces):
        cut = [(pieces(ht.attention), [None] * n_graphs if ht.gate is None
                else pieces(ht.gate), pieces(ht.output)) for ht in heads]
        for b, h_b in enumerate(pieces(hidden)):
            out[b].append((h_b, [(a[b], g[b], o[b]) for a, g, o in cut]))
    return out


def allocating_adamw_step(flat, g, m, v, t, lr_t, weight_decay):
    """One AdamW step on whole vectors, in place on ``flat``, ``m`` and ``v``,
    as ``training.adamw_step`` wrote it before it had scratch vectors: each
    intermediate a fresh array."""
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    if weight_decay:
        flat *= 1.0 - lr_t * weight_decay
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * (g * g)
    flat -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def per_head_depth_profile(trace):
    """``diagnostics.depth_profile`` read head by head: each layer's entropy is
    the mean of one :func:`attention_entropy` call per head's matrix."""
    ents = [float(np.mean([attention_entropy(ht.attention) for ht in heads]))
            for heads in trace.head_traces]
    return DepthProfile(mad=[mad(h) for h in trace.hidden], entropy=ents)


def per_head_trace_gate_values(trace):
    """``diagnostics.trace_gate_values`` read head by head: each layer's heads'
    gates (a shared gate once per head), raveled and joined in head order."""
    out = []
    for heads in trace.head_traces:
        vals = [ht.gate for ht in heads if ht.gate is not None]
        if vals:
            out.append(np.concatenate([v.ravel() for v in vals]))
    return out
