"""Dense float64 matrix primitives and a deterministic random source.

Matrices are plain 2-D C-contiguous float64 numpy arrays throughout the
package; there is no wrapper type. All computation is double precision:
the gradient checks ask for 1e-5 relative accuracy and the softmax
normalization checks for 1e-12, neither of which survives float32.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteInputError",
    "SeededRng",
    "matmul",
    "row_softmax",
    "elementwise",
    "sigmoid",
    "hadamard",
    "top_singular_value",
    "gaussian_matrix",
    "ACTIVATIONS",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteInputError(ValueError):
    """An operand holds NaN or infinite values where the result would be undefined."""


# ---------------------------------------------------------------------------
# Deterministic random source
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 increment
_U53 = float(1 << 53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function (Steele/Lea/Flood). Bijective on uint64."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _mix64_int(x: int) -> int:
    return int(_mix64(np.array([x & _MASK64], dtype=np.uint64))[0])


class SeededRng:
    """Counter-based SplitMix64 generator with Box-Muller normals.

    The i-th raw 64-bit output is ``mix64(seed + (i+1) * GOLDEN)`` where
    ``mix64`` is the SplitMix64 finalizer. Because the output is a pure
    function of (seed, counter) in exact 64-bit integer arithmetic, the
    stream is bitwise reproducible across runs and platforms, and blocks
    can be produced vectorized. Normals come from the Box-Muller
    transform, consuming exactly two raw outputs per pair.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def _raw(self, count: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        return _mix64(np.uint64(self.seed) + idx * np.uint64(_GOLDEN))

    def uniform(self, shape=()) -> np.ndarray:
        """I.i.d. uniforms on [0, 1) with 53-bit resolution."""
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(count) >> np.uint64(11)).astype(np.float64) / _U53
        return u.reshape(shape) if shape else float(u[0])

    def standard_normal(self, shape=()) -> np.ndarray:
        """I.i.d. N(0, 1) draws via Box-Muller on pairs of uniforms."""
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (count + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1).
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) / _U53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) / _U53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        z = z[:count]
        return z.reshape(shape) if shape else float(z[0])

    def child(self, index: int) -> "SeededRng":
        """Independent stream for parallel work; deterministic in (seed, index)."""
        return SeededRng(_mix64_int(self.seed ^ _mix64_int((int(index) + 1) * _GOLDEN)))


# ---------------------------------------------------------------------------
# Matrix operations
# ---------------------------------------------------------------------------


def _as_matrix(x, name="operand") -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return a @ b


def row_softmax(logits, mask=None) -> np.ndarray:
    """Row-wise softmax, stabilized by row-max subtraction.

    ``mask`` is an optional boolean array of the same shape; False entries
    are excluded (treated as -inf logits) and come out exactly 0. A fully
    masked row is rejected: it would have no distribution to normalize. So
    is a row whose largest kept logit is NaN or infinite (a NaN or +inf
    entry, or every entry -inf): its distribution is undefined. A -inf
    entry in a row with a finite maximum simply gets weight 0.
    """
    z = _as_matrix(logits, "logits")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != z.shape:
            raise ShapeError(f"mask shape {m.shape} != logits shape {z.shape}")
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


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, None)))
    ex = np.exp(np.clip(x, None, 0.0))
    neg = ex / (1.0 + ex)
    return np.where(x >= 0.0, pos, neg)


ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(np.asarray(x, dtype=np.float64), 0.0),
    "sigmoid_squared": lambda x: sigmoid(x) ** 2,
    "identity": lambda x: np.asarray(x, dtype=np.float64),
}


def elementwise(op: str, m) -> np.ndarray:
    """Apply a named nonlinearity entrywise."""
    try:
        fn = ACTIVATIONS[op]
    except KeyError:
        raise ValueError(f"unknown elementwise op {op!r}; known: {sorted(ACTIVATIONS)}") from None
    return fn(np.asarray(m, dtype=np.float64))


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two same-shaped matrices."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: shapes differ, {a.shape} vs {b.shape}")
    return a * b


def top_singular_value(m, tol=1e-12, max_iter=10_000) -> float:
    """Largest singular value by power iteration on the Gram matrix.

    Iterates on M^T M (or M M^T, whichever is smaller) from the normalized
    all-ones vector, stopping when the Rayleigh quotient changes by less
    than ``tol`` relative to its magnitude. If the start vector happens to
    lie in the null space, iteration restarts from basis vectors, which
    always succeeds for a nonzero matrix. A matrix holding NaN or inf is
    rejected before any iteration.
    """
    m = _as_matrix(m, "m")
    if not np.isfinite(m).all():
        row, col = np.argwhere(~np.isfinite(m))[0]
        raise NonFiniteInputError(
            f"top_singular_value undefined: entry ({row}, {col}) is {m[row, col]}")
    if not np.any(m):
        raise ValueError("top_singular_value undefined for the zero matrix")
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    dim = gram.shape[0]
    v = np.full(dim, 1.0 / np.sqrt(dim))
    lam = float(v @ gram @ v)
    restart = 0
    for _ in range(max_iter):
        w = gram @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            v = np.zeros(dim)
            v[restart % dim] = 1.0
            restart += 1
            lam = float(v @ gram @ v)
            continue
        v = w / norm_w
        lam_new = float(v @ (gram @ v))
        # relative change so the stopping point is scale-free
        if abs(lam_new - lam) <= tol * max(abs(lam_new), np.finfo(float).tiny):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def gaussian_matrix(rng: SeededRng, rows: int, cols: int, std: float) -> np.ndarray:
    """Matrix of i.i.d. N(0, std^2) entries drawn from ``rng``."""
    if std <= 0.0:
        raise ValueError(f"std must be positive, got {std}")
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return std * rng.standard_normal((rows, cols))
