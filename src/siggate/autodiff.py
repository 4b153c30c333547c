"""Minimal reverse-mode tape over numpy arrays.

Every op ``f`` in this module is written once, as its form ``f_vjp(*arrays)
-> (out, back)`` on plain arrays, the convention of ``jax.vjp``: ``back(g)``
maps the gradient ``g`` of ``out`` to one term per operand, in operand
order. The ops that code outside a GPS layer applies to taped values
(``add``, ``matmul``, ``linear``, ``layer_norm``, ...) run their form on the
values of their operands, a mix of :class:`Var` nodes and plain
arrays/scalars, and pass the result through :func:`fused`. With no ``Var``
among the operands that is the plain array, so forward-only code records
nothing; with one, it is a node whose parents are the ``Var`` operands. A
GPS layer is the one composite op, one :func:`fused` node: its forward
runs its branches' forms (``gps.mpnn_forward``, ``attention.siggate_mhsa``)
and the forms here, on plain arrays, and its VJP calls their ``back``s. So
the model's forward is written once and serves both paths.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from . import numeric

__all__ = [
    "Var",
    "no_tape",
    "value",
    "backward",
    "add",
    "sub",
    "div",
    "matmul",
    "linear",
    "vsum",
    "vmean",
    "reshape",
    "square",
    "absolute",
    "layer_norm",
    "fused",
    "load_erf",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


class Var:
    """A node in the computation graph: a value, its parents as ``(parent, i)``
    pairs, and ``vjp(g)``, which gives a gradient term for each operand of
    the op that made the node; parent ``(p, i)`` receives term ``i``. A leaf
    has no parents."""

    __slots__ = ("value", "parents", "grad", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.grad = None
        self.vjp = vjp

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def no_tape(arr):
    """The ``lift`` of a tape-free forward: each parameter stays a plain array."""
    return arr


def value(x):
    """Unwrap a Var (or pass a plain array/scalar through)."""
    return x.value if type(x) is Var else x


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
        if node.grad is None or not node.parents:
            continue
        terms = node.vjp(node.grad)
        for parent, i in node.parents:
            parent.grad = terms[i] if parent.grad is None else parent.grad + terms[i]


def fused(out, operands, vjp):
    """One node over ``out`` for an op on ``operands``: ``vjp(g)`` returns a
    gradient term for each operand, in their order, and the node's parents
    are the Var operands. An operand listed twice gets two terms, which the
    sweep adds in that order. With no Var among ``operands`` this is ``out``."""
    if Var not in map(type, operands):
        return out
    return Var(out, tuple((x, i) for i, x in enumerate(operands) if type(x) is Var), vjp)


def _op(form, *operands, **static):
    """The op of ``form`` on ``operands``; ``static`` holds its arguments that
    are not operands (no gradient flows to them)."""
    out, back = form(*[x.value if type(x) is Var else x for x in operands], **static)
    return fused(out, operands, back)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def add_vjp(a, b):
    """``(a + b, back)``; each term is summed down to its operand's shape."""
    sa, sb = np.shape(a), np.shape(b)
    return a + b, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))


def sub_vjp(a, b):
    sa, sb = np.shape(a), np.shape(b)
    return a - b, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb))


def mul_vjp(a, b):
    return a * b, lambda g: (_unbroadcast(g * b, np.shape(a)), _unbroadcast(g * a, np.shape(b)))


def div_vjp(a, b):
    return a / b, lambda g: (_unbroadcast(g / b, np.shape(a)),
                             _unbroadcast(-g * a / (b * b), np.shape(b)))


add = partial(_op, add_vjp)
sub = partial(_op, sub_vjp)
div = partial(_op, div_vjp)


def matmul(a, b):
    """Matrix product ``a @ b`` of two matrices, or of stacks of them.

    Operands are ``(..., n, k)`` and ``(..., k, m)`` (shape-checked by
    :func:`numeric.matmul`) whose leading axes broadcast, so a matrix times
    a stack multiplies it by each matrix of the stack. A broadcast
    operand's gradient is summed over the axes it was broadcast along.
    """
    return _op(matmul_vjp, a, b)


def matmul_vjp(a, b):
    """``(a @ b, back)`` on arrays (see :func:`matmul`)."""
    return numeric.matmul(a, b), lambda g: (
        _unbroadcast(np.matmul(g, b.swapaxes(-1, -2)), a.shape),
        _unbroadcast(np.matmul(a.swapaxes(-1, -2), g), b.shape))


def _per_row(v):
    """A tape-free vector (or stack of them) made to broadcast over matrix rows."""
    return v if np.ndim(v) < 2 else np.expand_dims(v, -2)


def add_into(dead, b):
    """``dead + b``, written into ``dead``, a fresh array no ``back`` reads, when
    ``b`` has no axis that ``dead`` lacks; else a fresh sum. Axes of copies lead,
    and in a probe pass every array that has copies has the same ones, so then the
    sum has ``dead``'s shape (were it larger, numpy would raise, not write)."""
    return np.add(dead, b, out=dead) if np.ndim(b) <= dead.ndim else dead + b


def linear(x, w, b):
    """``x @ w + b`` as one node: the matrix product (shape-checked as in
    :func:`matmul`) plus a bias broadcast over the rows. Tape-free, each
    operand may carry a stack of copies along leading axes."""
    out = _op(linear_vjp, x, w, b)
    if type(out) is Var and out.value.ndim != 2:
        raise numeric.ShapeError("a taped linear multiplies matrices; stacks go through matmul")
    return out


def linear_vjp(x, w, b):
    """``(x @ w + b, back)`` on plain arrays; ``back`` takes matrices."""
    out = add_into(numeric.matmul(x, w), _per_row(b))
    return out, lambda g: (g @ w.T, x.T @ g, _unbroadcast(g, np.shape(b)))


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------


def vsum(x, axis=None, keepdims=False):
    return _op(vsum_vjp, x, axis=axis, keepdims=keepdims)


def vsum_vjp(x, axis=None, keepdims=False):
    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, np.shape(x)),)

    return np.sum(x, axis=axis, keepdims=keepdims), back


def vmean(x, axis=None, keepdims=False):
    xv = value(x)
    count = xv.size if axis is None else xv.shape[axis]
    return div(vsum(x, axis=axis, keepdims=keepdims), float(count))


def reshape(x, shape):
    return _op(reshape_vjp, x, shape=shape)


def reshape_vjp(x, shape):
    return np.reshape(x, shape), lambda g: (np.asarray(g).reshape(np.shape(x)),)


def merge_stack_vjp(x):
    """A stack of K matrices of shape n x m laid side by side: n x (K·m),
    with matrix k in columns k·m ... (k+1)·m - 1, and its ``back``, which
    takes one stack. Axes before the K axis are a stack of copies, each
    merged on its own."""
    *lead, heads, rows, cols = x.shape
    return (x.swapaxes(-3, -2).reshape((*lead, rows, heads * cols)),
            lambda g: (np.asarray(g).reshape(rows, heads, cols).transpose(1, 0, 2),))


def concat_vjp(*parts):
    """Join ``parts`` along their last axis. Parts given as stacks of copies
    along leading axes broadcast the parts that have no such axes."""
    if any(np.ndim(v) > 2 for v in parts):
        lead = np.broadcast_shapes(*(np.shape(v)[:-2] for v in parts))
        parts = [np.broadcast_to(v, lead + np.shape(v)[-2:]) for v in parts]
    return np.concatenate(parts, -1), lambda g: np.split(
        np.asarray(g), np.cumsum([np.shape(v)[-1] for v in parts])[:-1], axis=-1)


def flat_index(idx, cols: int) -> np.ndarray:
    """Flat indices of rows ``idx`` of a ``cols``-wide matrix: idx[e]·cols + c at e·cols + c."""
    return np.add.outer(idx * cols, np.arange(cols)).ravel()


def scatter_add(x, idx, n_rows, flat=None):
    """Rows (axis -2) of ``x`` summed into ``n_rows`` rows at ``idx``, each matrix
    of a stack along leading axes on its own: ``bincount`` over flat (matrix, row,
    column) indices (``flat`` is ``flat_index(idx, cols)`` if the caller keeps one)
    adds each cell's entries in index order from +0.0, as ``np.add.at`` on zeros does,
    so the two agree bitwise. (With no indices ``bincount`` returns ints, hence the cast.)"""
    x = np.asarray(x, dtype=np.float64)
    *lead, _, cols = x.shape
    flat = flat_index(idx, cols) if flat is None else flat
    if lead:  # matrix p's cells follow the p·n_rows·cols cells before it
        flat = (np.arange(math.prod(lead))[:, None] * (n_rows * cols) + flat).ravel()
    out = np.bincount(flat, weights=x.ravel(), minlength=math.prod(lead) * n_rows * cols)
    return out.astype(np.float64, copy=False).reshape((*lead, n_rows, cols))


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def _elementwise(fwd, make_vjp):
    """The form of an elementwise op ``y = fwd(x, out=out)``: ``make_vjp(x, y)``
    is x's term as a function of ``g``, holding only the arrays it reads."""
    def form(x, out=None):
        x = np.asarray(x, dtype=np.float64)
        y = fwd(x, out=out)
        vjp = make_vjp(x, y)
        return y, lambda g: (vjp(g),)

    return form


square_vjp = _elementwise(np.square, lambda x, y: lambda g: g * 2.0 * x)
absolute_vjp = _elementwise(np.abs, lambda x, y: lambda g: g * np.sign(x))
square = partial(_op, square_vjp)
absolute = partial(_op, absolute_vjp)


@cache
def load_erf():
    """``scipy.special.erf``, loaded on the first call, so a run with no
    feed-forward block never loads scipy. The call loads only the extension
    that defines the ufunc, ``scipy.special._special_ufuncs``, which links
    no BLAS (the ``scipy.special`` package would also load ``_ufuncs`` and
    with it scipy's own OpenBLAS, a second one beside numpy's). The module
    is registered in ``sys.modules`` under its own name, so a later
    ``import scipy.special`` reuses it and its ``erf`` is this object.
    Where that private extension is missing or has no ``erf``, this imports
    ``scipy.special`` instead."""
    scipy = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    name = "scipy.special._special_ufuncs"
    spec = scipy and FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "special"),
        (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is not None:
        module = sys.modules.get(name)
        if module is None:
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        if hasattr(module, "erf"):
            return module.erf
    from scipy.special import erf
    return erf


def gelu_vjp(x):
    """Exact (erf-based) Gaussian error linear unit, ``(x/2)(1 + erf(x/√2))``.

    The derivative is ``(1 + erf(u))/2 + (x/2)(2/√π)e^{-u²}/√2`` with
    ``u = x/√2``, evaluated in the order the chain rule through those
    factors gives. ``erf`` is scipy's ufunc, loaded by the first call from
    the one extension that defines it (:func:`load_erf`).
    """
    x = np.asarray(x, dtype=np.float64)
    half = x * 0.5
    u = x * _INV_SQRT2
    s = load_erf()(u)
    s += 1.0
    return half * s, lambda g: (g * s * 0.5
                                + g * half * _TWO_OVER_SQRT_PI * np.exp(-u * u) * _INV_SQRT2,)


def layer_norm(h, scale, shift, eps):
    """Row-wise normalization to mean 0 / variance 1, then ``* scale + shift``.

    One node with the closed-form VJP (Ba, Kiros & Hinton, 2016): with
    x̂ the normalized rows, σ their standard deviation and gx̂ = g·scale,
    ∂h = (gx̂ - mean(gx̂) - x̂·mean(gx̂·x̂)) / σ, row by row.

    A row whose variance overflows would become exact zeros, so an infinite
    σ raises :class:`~siggate.numeric.NonFiniteInputError` naming the row. A
    row holding NaN stays NaN for the checks downstream to name.
    """
    return _op(layer_norm_vjp, h, scale, shift, eps=eps)


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
    normed = np.divide(centered, std, out=centered)

    def back(g):
        gn = g * scale  # the means over a row are its sums over ``cols``, as ``np.mean`` has them
        return ((gn - gn.sum(axis=-1, keepdims=True) / cols
                 - normed * ((gn * normed).sum(axis=-1, keepdims=True) / cols)) / std,
                _unbroadcast(g * normed, scale.shape), _unbroadcast(g, shift.shape))

    return add_into(normed * _per_row(scale), _per_row(shift)), back


def row_softmax_vjp(logits, mask=None, out=None):
    """``(P, back)`` of the row softmax of a matrix or a stack, with its ``mask``
    (:func:`siggate.numeric.row_softmax`), ``back`` being ``t - P·rowsum(t)``
    with ``t = g·P`` (the FlashAttention backward, Dao et al., 2022, §3.1).
    ``out`` (as in numpy) may be ``logits``: ``back`` reads only P."""
    out = numeric.row_softmax(logits, mask, out)

    def back(g):
        t = np.asarray(g) * out
        return (t - out * t.sum(axis=-1, keepdims=True),)

    return out, back


def _sigmoid_squared_vjp(x, out=None):
    s = numeric.sigmoid(np.asarray(x, dtype=np.float64))
    return np.square(s, out=out), lambda g: (g * 2.0 * s * s * (1.0 - s),)


# The gate activations, whose names in this order are attention.GATE_ACTIVATIONS:
# one closed form apiece. relu's subgradient is 0 at the kink; sigmoid_squared's
# VJP is square's, then sigmoid's, in that order.
ACTIVATIONS = {
    "sigmoid": _elementwise(numeric.sigmoid, lambda x, s: lambda g: g * s * (1.0 - s)),
    "tanh": _elementwise(np.tanh, lambda x, t: lambda g: g * (1.0 - t * t)),
    "relu": _elementwise(lambda x, out: np.maximum(x, 0.0, out=out),
                         lambda x, y: lambda g: g * (x > 0.0)),
    "sigmoid_squared": _sigmoid_squared_vjp,
}


def activation_vjp(name: str, x, out=None):
    """``(act(x), back)`` of a plain array for the gate activation ``name``. ``out`` (as in
    numpy) may be ``x``: a ``back`` reads only act(x), or x's sign, which relu keeps."""
    form = ACTIVATIONS.get(name)
    if form is None:
        raise ValueError(f"unknown activation {name!r}")
    return form(x, out)
