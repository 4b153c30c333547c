"""Minimal reverse-mode tape over numpy arrays.

Every op in this module accepts a mix of :class:`Var` nodes and plain
arrays/scalars. If no argument is a ``Var`` the op computes eagerly and
returns a plain array, so forward-only code pays nothing; if any argument
is a ``Var`` the op records a node with the vector-Jacobian products
needed for the backward sweep. The model code is therefore written once
and serves both the fast inference path and exact gradient computation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf as _erf

from . import numeric

__all__ = [
    "Var",
    "value",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "bmm",
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
    "exp",
    "log",
    "sqrt",
    "square",
    "absolute",
    "erf",
    "gelu",
    "row_softmax",
    "apply_activation",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


class Var:
    """A node in the computation graph: a value plus backward edges."""

    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents  # tuple of (Var, vjp) pairs
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value(x):
    """Unwrap a Var (or pass a plain array/scalar through)."""
    return x.value if isinstance(x, Var) else x


def _tracked(*xs):
    return any(isinstance(x, Var) for x in xs)


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
        for parent, vjp in node.parents:
            pg = vjp(g)
            parent.grad = pg if parent.grad is None else parent.grad + pg


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def _binary(a, b, out, da, db):
    parents = []
    if isinstance(a, Var):
        parents.append((a, da))
    if isinstance(b, Var):
        parents.append((b, db))
    return Var(out, tuple(parents))


def add(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av + bv
    return _binary(
        a, b, av + bv,
        lambda g, s=np.shape(av): _unbroadcast(g, s),
        lambda g, s=np.shape(bv): _unbroadcast(g, s),
    )


def sub(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av - bv
    return _binary(
        a, b, av - bv,
        lambda g, s=np.shape(av): _unbroadcast(g, s),
        lambda g, s=np.shape(bv): _unbroadcast(-g, s),
    )


def mul(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av * bv
    return _binary(
        a, b, av * bv,
        lambda g, o=bv, s=np.shape(av): _unbroadcast(g * o, s),
        lambda g, o=av, s=np.shape(bv): _unbroadcast(g * o, s),
    )


def div(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return av / bv
    return _binary(
        a, b, av / bv,
        lambda g, o=bv, s=np.shape(av): _unbroadcast(g / o, s),
        lambda g, n=av, o=bv, s=np.shape(bv): _unbroadcast(-g * n / (o * o), s),
    )


def neg(x):
    if not isinstance(x, Var):
        return -np.asarray(x)
    return Var(-x.value, ((x, lambda g: -g),))


def matmul(a, b):
    av, bv = value(a), value(b)
    if not _tracked(a, b):
        return numeric.matmul(av, bv)
    out = numeric.matmul(av, bv)
    return _binary(
        a, b, out,
        lambda g, o=bv: g @ o.T,
        lambda g, o=av: o.T @ g,
    )


def bmm(a, b):
    """Stacked matrix product: ``a[i] @ b[i]`` for each matrix of a stack.

    Operands are ``(..., n, k)`` and ``(..., k, m)`` whose leading axes
    broadcast, so a matrix times a stack multiplies it by each matrix of
    the stack; on two matrices this is the plain matrix product. A
    broadcast operand's gradient is summed over the axes it was broadcast
    along.
    """
    av, bv = value(a), value(b)
    out = np.matmul(av, bv)
    if not _tracked(a, b):
        return out
    return _binary(
        a, b, out,
        lambda g, o=bv, s=np.shape(av): _unbroadcast(np.matmul(g, o.swapaxes(-1, -2)), s),
        lambda g, o=av, s=np.shape(bv): _unbroadcast(np.matmul(o.swapaxes(-1, -2), g), s),
    )


def transpose(x):
    """Swap the last two axes: the transpose of a matrix, or of each
    matrix in a stack."""
    if not isinstance(x, Var):
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
    if not isinstance(x, Var):
        return np.sum(x, axis=axis, keepdims=keepdims)
    out = np.sum(x.value, axis=axis, keepdims=keepdims)
    shape = x.value.shape
    return Var(out, ((x, lambda g: _spread(g, shape, axis, keepdims)),))


def vmean(x, axis=None, keepdims=False):
    xv = value(x)
    count = xv.size if axis is None else xv.shape[axis]
    return div(vsum(x, axis=axis, keepdims=keepdims), float(count))


def reshape(x, shape):
    if not isinstance(x, Var):
        return np.reshape(x, shape)
    orig = x.value.shape
    return Var(x.value.reshape(shape), ((x, lambda g: np.asarray(g).reshape(orig)),))


def merge_stack(x):
    """A stack of K matrices of shape n x m laid side by side: n x (K·m),
    with matrix k in columns k·m ... (k+1)·m - 1."""
    xv = value(x)
    heads, rows, cols = xv.shape
    out = xv.transpose(1, 0, 2).reshape(rows, heads * cols)
    if not isinstance(x, Var):
        return out
    return Var(out, ((x, lambda g: np.asarray(g).reshape(rows, heads, cols).transpose(1, 0, 2)),))


def concat(parts, axis=1):
    vals = [value(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    if not _tracked(*parts):
        return out
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])
    parents = []
    for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        if isinstance(part, Var):
            def vjp(g, lo=int(lo), hi=int(hi)):
                sl = [slice(None)] * np.asarray(g).ndim
                sl[axis] = slice(lo, hi)
                return np.asarray(g)[tuple(sl)]

            parents.append((part, vjp))
    return Var(out, tuple(parents))


def take_rows(x, idx):
    """Row gather ``x[idx]``; backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if not isinstance(x, Var):
        return np.asarray(x)[idx]
    shape = x.value.shape

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return out

    return Var(x.value[idx], ((x, vjp),))


def scatter_rows(x, idx, n_rows):
    """Sum rows of ``x`` into an ``n_rows``-row output at positions ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    xv = value(x)
    out = np.zeros((n_rows,) + xv.shape[1:])
    np.add.at(out, idx, xv)
    if not isinstance(x, Var):
        return out
    return Var(out, ((x, lambda g: np.asarray(g)[idx]),))


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def _unary(x, fwd, make_vjp):
    if not isinstance(x, Var):
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


def exp(x):
    return _unary(x, np.exp, lambda xv, yv: lambda g: g * yv)


def log(x):
    return _unary(x, np.log, lambda xv, yv: lambda g: g / xv)


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
    """Exact (erf-based) Gaussian error linear unit."""
    return mul(mul(x, 0.5), add(erf(mul(x, _INV_SQRT2)), 1.0))


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
    if not isinstance(logits, Var):
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
    if name == "identity":
        return x
    raise ValueError(f"unknown activation {name!r}")
