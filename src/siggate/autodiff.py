"""Minimal reverse-mode tape over numpy arrays.

Every op in this module accepts a mix of :class:`Var` nodes and plain
arrays/scalars. If no argument is a ``Var`` the op computes eagerly and
returns a plain array, so forward-only code pays nothing; if any argument
is a ``Var`` the op records a node with the vector-Jacobian products
needed for the backward sweep. A composite op (a GPS layer and its
branches) is one :func:`fused` node: its forward runs on plain arrays,
keeping what its closed-form VJP reads, and the VJP composes the
``*_vjp`` forms of the ops here, in their arithmetic. So the model's
forward is written once and serves both paths.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

from . import numeric

__all__ = [
    "Var",
    "no_tape",
    "value",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "linear",
    "transpose",
    "vsum",
    "vmean",
    "reshape",
    "concat",
    "merge_stack",
    "take_rows",
    "scatter_rows",
    "sigmoid",
    "tanh",
    "relu",
    "sqrt",
    "square",
    "absolute",
    "erf",
    "gelu",
    "layer_norm",
    "row_softmax",
    "apply_activation",
    "fused",
    "inline",
    "mul_vjp",
    "matmul_vjp",
    "linear_vjp",
    "merge_stack_vjp",
    "gelu_vjp",
    "layer_norm_vjp",
    "activation_vjp",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


class Var:
    """A node in the computation graph: a value plus backward edges, each a
    ``(parent, vjp)`` pair, or for a :func:`fused` node a ``(parent, index)``
    pair into the terms its ``joint`` VJP gives at once."""

    __slots__ = ("value", "parents", "grad", "joint")

    def __init__(self, value, parents=(), joint=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.grad = None
        self.joint = joint

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def no_tape(arr):
    """The ``lift`` of a tape-free forward: each parameter stays a plain array."""
    return arr


def value(x):
    """Unwrap a Var (or pass a plain array/scalar through)."""
    return x.value if type(x) is Var else x


def _tracked(*xs):
    return any(type(x) is Var for x in xs)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(root: Var) -> None:
    """Populate ``.grad`` on every node reachable from ``root``.

    Iterative topological order; deep stacks would blow Python's recursion
    limit otherwise.
    """
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        for (parent, _), pg in zip(node.parents, _terms(node, g)):
            parent.grad = pg if parent.grad is None else parent.grad + pg


def _terms(node: Var, g) -> list:
    """Each parent's gradient term for the gradient ``g`` of ``node``, in parent order."""
    if node.joint is None:
        return [vjp(g) for _, vjp in node.parents]
    terms = node.joint(g)
    return [terms[i] for _, i in node.parents]


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def _node(out, *edges):
    """A node over ``out`` whose parents are the Var operands among
    ``edges``, each an (operand, vjp) pair."""
    return Var(out, tuple((x, vjp) for x, vjp in edges if type(x) is Var))


def fused(out, operands, vjp):
    """One node over ``out`` for a composite op: ``vjp(g)`` returns a gradient
    term for each of ``operands``, in their order, and the node's parents
    are the Var operands. An operand listed twice gets two terms, which the
    sweep adds in that order. With no Var among ``operands`` this is ``out``."""
    if not _tracked(*operands):
        return out
    return Var(out, tuple((x, i) for i, x in enumerate(operands) if type(x) is Var), vjp)


def inline(x):
    """``(operands, terms)`` of node ``x``: its parents, and ``terms(g)``, their
    gradient terms for the gradient ``g`` of ``x``. A :func:`fused` node that
    lists these operands and these terms takes ``x``'s place on the tape
    with the same sums. A plain array has neither."""
    if type(x) is not Var:
        return [], lambda g: []
    return [p for p, _ in x.parents], lambda g: _terms(x, g)


def add(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av + bv
    return _node(av + bv, (a, lambda g, s=np.shape(av): _unbroadcast(g, s)),
                 (b, lambda g, s=np.shape(bv): _unbroadcast(g, s)))


def sub(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av - bv
    return _node(av - bv, (a, lambda g, s=np.shape(av): _unbroadcast(g, s)),
                 (b, lambda g, s=np.shape(bv): _unbroadcast(-g, s)))


def mul(a, b):
    av, bv = value(a), value(b)
    return fused(av * bv, (a, b), lambda g: mul_vjp(g, av, bv))


def mul_vjp(g, a, b):
    """``(∂a, ∂b)`` of ``a * b`` for the product's gradient ``g``."""
    return _unbroadcast(g * b, np.shape(a)), _unbroadcast(g * a, np.shape(b))


def div(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av / bv
    return _node(av / bv, (a, lambda g, o=bv, s=np.shape(av): _unbroadcast(g / o, s)),
                 (b, lambda g, n=av, o=bv, s=np.shape(bv): _unbroadcast(-g * n / (o * o), s)))


def matmul(a, b):
    """Matrix product ``a @ b`` of two matrices, or of stacks of them.

    Operands are ``(..., n, k)`` and ``(..., k, m)`` (shape-checked by
    :func:`numeric.matmul`) whose leading axes broadcast, so a matrix times
    a stack multiplies it by each matrix of the stack. A broadcast
    operand's gradient is summed over the axes it was broadcast along.
    """
    av, bv = value(a), value(b)
    return fused(numeric.matmul(av, bv), (a, b), lambda g: matmul_vjp(g, av, bv))


def matmul_vjp(g, a, b):
    """``(∂a, ∂b)`` of ``a @ b`` (arrays) for the product's gradient ``g``."""
    return (_unbroadcast(np.matmul(g, b.swapaxes(-1, -2)), a.shape),
            _unbroadcast(np.matmul(a.swapaxes(-1, -2), g), b.shape))


def _per_row(v):
    """A tape-free vector (or stack of them) made to broadcast over matrix rows."""
    return v if np.ndim(v) < 2 else np.expand_dims(v, -2)


def linear(x, w, b):
    """``x @ w + b`` as one node: the matrix product (shape-checked as in
    :func:`matmul`) plus a bias broadcast over the rows. Tape-free, each
    operand may carry a stack of copies along leading axes."""
    out, back = linear_vjp(value(x), value(w), value(b))
    if not _tracked(x, w, b):
        return out
    if out.ndim != 2:
        raise numeric.ShapeError("a taped linear multiplies matrices; stacks go through matmul")
    return fused(out, (x, w, b), back)


def linear_vjp(x, w, b):
    """``(x @ w + b, back)`` on plain arrays, ``back(g)`` giving ``(∂x, ∂w, ∂b)``
    of matrices."""
    out = numeric.matmul(x, w) + _per_row(b)
    return out, lambda g: (g @ w.T, x.T @ g, _unbroadcast(g, np.shape(b)))


def transpose(x):
    """Swap the last two axes: the transpose of a matrix, or of each
    matrix in a stack."""
    if type(x) is not Var:
        return np.asarray(x).swapaxes(-1, -2)
    return Var(x.value.swapaxes(-1, -2), ((x, lambda g: np.asarray(g).swapaxes(-1, -2)),))


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------


def _spread(g, shape, axis, keepdims):
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def vsum(x, axis=None, keepdims=False):
    if type(x) is not Var:
        return np.sum(x, axis=axis, keepdims=keepdims)
    out = np.sum(x.value, axis=axis, keepdims=keepdims)
    shape = x.value.shape
    return Var(out, ((x, lambda g: _spread(g, shape, axis, keepdims)),))


def vmean(x, axis=None, keepdims=False):
    xv = value(x)
    count = xv.size if axis is None else xv.shape[axis]
    return div(vsum(x, axis=axis, keepdims=keepdims), float(count))


def reshape(x, shape):
    if type(x) is not Var:
        return np.reshape(x, shape)
    orig = x.value.shape
    return Var(x.value.reshape(shape), ((x, lambda g: np.asarray(g).reshape(orig)),))


def merge_stack(x):
    """A stack of K matrices of shape n x m laid side by side: n x (K·m),
    with matrix k in columns k·m ... (k+1)·m - 1. Tape-free, axes before
    the K axis are a stack of copies, each merged on its own."""
    out, back = merge_stack_vjp(value(x))
    return out if type(x) is not Var else Var(out, ((x, back),))


def merge_stack_vjp(x):
    """``(merge_stack(x), back)`` on a plain array."""
    *lead, heads, rows, cols = x.shape
    return (x.swapaxes(-3, -2).reshape((*lead, rows, heads * cols)),
            lambda g: np.asarray(g).reshape(rows, heads, cols).transpose(1, 0, 2))


def concat(parts, axis=-1):
    """Join ``parts`` along ``axis``. Tape-free, parts given as stacks of
    copies along leading axes broadcast the parts that have no such axes."""
    vals = [value(p) for p in parts]
    if not _tracked(*parts):
        if any(np.ndim(v) > 2 for v in vals):
            lead = np.broadcast_shapes(*(np.shape(v)[:-2] for v in vals))
            vals = [np.broadcast_to(v, lead + np.shape(v)[-2:]) for v in vals]
        return np.concatenate(vals, axis)
    out = np.concatenate(vals, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])
    parents = []
    for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        if type(part) is Var:
            def vjp(g, lo=int(lo), hi=int(hi)):
                sl = [slice(None)] * np.asarray(g).ndim
                sl[axis] = slice(lo, hi)
                return np.asarray(g)[tuple(sl)]

            parents.append((part, vjp))
    return Var(out, tuple(parents))


def _scatter_add(x, idx, n_rows):
    """Rows (axis -2) of ``x`` summed into ``n_rows`` rows at ``idx``, each
    matrix of a stack along leading axes on its own: ``bincount`` over flat
    (matrix, row, column) indices adds each cell's entries in index order
    from +0.0, as ``np.add.at`` on zeros does, so the two agree bitwise.
    (With no indices ``bincount`` returns integers, hence the cast.)"""
    x = np.asarray(x, dtype=np.float64)
    *lead, _, cols = x.shape
    rows = np.arange(math.prod(lead))[:, None] * n_rows + idx if lead else idx
    flat = (rows[..., None] * cols + np.arange(cols)).ravel()
    out = np.bincount(flat, weights=x.ravel(), minlength=math.prod(lead) * n_rows * cols)
    return out.astype(np.float64, copy=False).reshape((*lead, n_rows, cols))


def take_rows(x, idx):
    """Row gather ``x[idx]`` (tape-free, rows are axis -2 of a stack of
    matrices); backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if type(x) is not Var:
        return np.take(x, idx, axis=-2)
    n_rows = x.value.shape[0]
    return Var(x.value[idx], ((x, lambda g: _scatter_add(g, idx, n_rows)),))


def scatter_rows(x, idx, n_rows):
    """Sum rows of ``x`` into an ``n_rows``-row output at positions ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    out = _scatter_add(value(x), idx, n_rows)
    if type(x) is not Var:
        return out
    return Var(out, ((x, lambda g: np.asarray(g)[idx]),))


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def _unary(x, fwd, make_vjp):
    if type(x) is not Var:
        return fwd(np.asarray(x, dtype=np.float64))
    out = fwd(x.value)
    return Var(out, ((x, make_vjp(x.value, out)),))


def sigmoid(x):
    return _unary(x, numeric.sigmoid, lambda xv, yv: lambda g: g * yv * (1.0 - yv))


def tanh(x):
    return _unary(x, np.tanh, lambda xv, yv: lambda g: g * (1.0 - yv * yv))


def relu(x):
    # Subgradient 0 at the kink.
    return _unary(
        x, lambda v: np.maximum(v, 0.0), lambda xv, yv: lambda g: g * (xv > 0.0)
    )


def sqrt(x):
    return _unary(x, np.sqrt, lambda xv, yv: lambda g: g * 0.5 / yv)


def square(x):
    return _unary(x, np.square, lambda xv, yv: lambda g: g * 2.0 * xv)


def absolute(x):
    return _unary(x, np.abs, lambda xv, yv: lambda g: g * np.sign(xv))


def erf(x):
    return _unary(
        x,
        _erf,
        lambda xv, yv: lambda g: g * _TWO_OVER_SQRT_PI * np.exp(-xv * xv),
    )


def gelu(x):
    """Exact (erf-based) Gaussian error linear unit, ``(x/2)(1 + erf(x/√2))``.

    The derivative is ``(1 + erf(u))/2 + (x/2)(2/√π)e^{-u²}/√2`` with
    ``u = x/√2``, evaluated in the order the chain rule through those
    factors gives.
    """
    out, back = gelu_vjp(np.asarray(value(x), dtype=np.float64))
    return out if type(x) is not Var else Var(out, ((x, back),))


def gelu_vjp(x):
    """``(gelu(x), back)`` on a plain array (see :func:`gelu`)."""
    half = x * 0.5
    u = x * _INV_SQRT2
    s = _erf(u) + 1.0
    return half * s, lambda g: (g * s * 0.5
                                + g * half * _TWO_OVER_SQRT_PI * np.exp(-u * u) * _INV_SQRT2)


def layer_norm(h, scale, shift, eps):
    """Row-wise normalization to mean 0 / variance 1, then ``* scale + shift``.

    One node with the closed-form VJP (Ba, Kiros & Hinton, 2016): with
    x̂ the normalized rows, σ their standard deviation and gx̂ = g·scale,
    ∂h = (gx̂ - mean(gx̂) - x̂·mean(gx̂·x̂)) / σ, row by row.

    A row whose variance overflows would become exact zeros, so an infinite
    σ raises :class:`~siggate.numeric.NonFiniteInputError` naming the row. A
    row holding NaN stays NaN for the checks downstream to name.
    """
    out, back = layer_norm_vjp(value(h), value(scale), value(shift), eps)
    return fused(out, (h, scale, shift), back)


def layer_norm_vjp(h, scale, shift, eps):
    """``(layer_norm(h, scale, shift, eps), back)`` on plain arrays, ``back(g)``
    giving ``(∂h, ∂scale, ∂shift)`` of a matrix ``h``."""
    cols = float(h.shape[-1])
    centered = h - h.sum(axis=-1, keepdims=True) / cols
    std = np.sqrt(np.square(centered).sum(axis=-1, keepdims=True) / cols + eps)
    if np.isinf(std).any():
        row = int(np.flatnonzero(np.isinf(std))[0])
        raise numeric.NonFiniteInputError(
            f"layer_norm: row {row} has an infinite standard deviation (its variance overflows)")
    normed = centered / std

    def back(g):
        gn = g * scale  # the means over a row are its sums over ``cols``, as ``np.mean`` has them
        return ((gn - gn.sum(axis=-1, keepdims=True) / cols
                 - normed * ((gn * normed).sum(axis=-1, keepdims=True) / cols)) / std,
                _unbroadcast(g * normed, scale.shape), _unbroadcast(g, shift.shape))

    return normed * _per_row(scale) + _per_row(shift), back


def row_softmax(logits, mask=None):
    """Differentiable row softmax; see :func:`siggate.numeric.row_softmax`.

    A stack of logit matrices runs as the matrix of all its rows, so its
    ``mask`` holds those rows stacked in order.
    """
    z = np.asarray(value(logits))
    if z.ndim > 2:
        out = numeric.row_softmax(z.reshape(-1, z.shape[-1]), mask).reshape(z.shape)
    else:
        out = numeric.row_softmax(z, mask)
    if type(logits) is not Var:
        return out

    def vjp(g):
        t = np.asarray(g) * out
        return t - out * t.sum(axis=-1, keepdims=True)

    return Var(out, ((logits, vjp),))


def apply_activation(name: str, x):
    """Dispatch the gate activations by name."""
    if name == "sigmoid":
        return sigmoid(x)
    if name == "tanh":
        return tanh(x)
    if name == "relu":
        return relu(x)
    if name == "sigmoid_squared":
        return square(sigmoid(x))
    raise ValueError(f"unknown activation {name!r}")


def activation_vjp(name: str, x):
    """``(act(x), back)`` of a plain array: :func:`apply_activation` on a leaf
    of its own, ``back`` running its chain of VJPs down to the leaf."""
    leaf = Var(x)
    out = apply_activation(name, leaf)

    def back(g):
        node = out
        while node is not leaf:
            ((node, vjp),) = node.parents
            g = vjp(g)
        return g

    return out.value, back
