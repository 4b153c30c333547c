"""Dense float64 matrix primitives and a deterministic random source.

Matrices are plain 2-D C-contiguous float64 numpy arrays throughout the
package; there is no wrapper type. All computation is double precision:
the gradient checks ask for 1e-5 relative accuracy and the softmax
normalization checks for 1e-12, neither of which survives float32.

Importing the module sets two thresholds of glibc's allocator for the whole
process (see :func:`_keep_freed_heap`); on any other C library it sets none.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteInputError",
    "SeededRng",
    "matmul",
    "row_softmax",
    "sigmoid",
    "top_singular_value",
    "gaussian_matrix",
    "fill_gaussian",
    "carve",
    "fmt_exact",
    "row_text",
    "read_rows",
    "read_lines",
    "write_lines",
    "write_csv",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteInputError(ValueError):
    """An operand holds NaN or infinite values where the result would be undefined."""


# ---------------------------------------------------------------------------
# The C heap
# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _keep_freed_heap() -> tuple[int, ...]:
    """Keep up to 64 MiB of freed heap top in the process, where glibc would
    give back all but 128 KiB of it: mallopt's 1 (success) or 0 per threshold,
    ``()`` off glibc.

    A gradient-check cell frees about 2 MB of temporaries per call, and the
    next call faulted them back in, about 1,050 minor faults a cell. Blocks
    up to 32 MiB (the largest mmap threshold glibc accepts) come from the
    heap, and up to 64 MiB of free top stays there (twice that, the ratio of
    glibc's own dynamic thresholds, which setting either one switches off).
    Only where the memory comes from changes, not any value computed."""
    version = os.confstr("CS_GNU_LIBC_VERSION") \
        if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) else None
    if not (version or "").startswith("glibc"):
        return ()
    mallopt = ctypes.CDLL(None).mallopt
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20))


_HEAP_KEPT = _keep_freed_heap()


# ---------------------------------------------------------------------------
# Deterministic random source
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 increment
_U53 = float(1 << 53)
_TRIG_KEY_BITS = 8  # the leading bits of u2 that order the angles (see normal_blocks)


def _bad_sizes(sizes) -> list:
    """The sizes that are negative or not whole numbers (2.0 is whole, 2.5 and NaN are not)."""
    return [n for n in sizes if n < 0 or not float(n).is_integer()]


def _draw_shape(shape) -> tuple:
    """``shape`` as a tuple of ints, ``()`` for one scalar draw; a negative
    dimension, or one that is not a whole number, is a :class:`ShapeError`."""
    if isinstance(shape, tuple) and not shape:
        return ()
    shape = tuple(np.atleast_1d(shape).tolist())
    bad = _bad_sizes(shape)
    if bad:
        raise ShapeError(f"draw dimensions must be integral and non-negative, got {bad[0]} "
                         f"in {shape}")
    return tuple(map(int, shape))


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function (Steele/Lea/Flood), in place on the uint64
    array ``x``, which it returns. Bijective on uint64."""
    shifted = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=shifted)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


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
        x = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self.seed)
        return _mix64(x)

    def uniform(self, shape=()) -> np.ndarray:
        """I.i.d. uniforms on [0, 1) with 53-bit resolution."""
        shape = _draw_shape(shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(count) >> np.uint64(11)).astype(np.float64) / _U53
        return u.reshape(shape) if shape else float(u[0])

    def standard_normal(self, shape=()) -> np.ndarray:
        """I.i.d. N(0, 1) draws: one block of :meth:`normal_blocks`."""
        shape = _draw_shape(shape)
        z = self.normal_blocks([math.prod(shape)])[0]
        return z.reshape(shape) if shape else float(z[0])

    def normal_blocks(self, sizes) -> list[np.ndarray]:
        """N(0, 1) vectors of these sizes in one pass, bitwise what
        ``standard_normal`` calls would give in turn: a block of n takes
        p = ceil(n / 2) Box-Muller pairs from its next 2p raw outputs (u1 the
        first p, u2 the next p) and gives p cosines then p sines, cut to n.

        The pass takes ``cos`` and ``sin`` of its angles 2 pi u2 in the order
        of u2's top :data:`_TRIG_KEY_BITS` bits (a stable argsort of that
        ``uint8`` key) and scatters each result back to its angle's position.
        Each value is still the same libm call on the same scalar, so the
        output is bitwise that of taking the angles in draw order; only the
        order of the calls changes. libm's ``sin`` and ``cos`` branch on the
        argument's range and quadrant, and in draw order those branches
        mispredict: on 4,096 random angles each call costs about 2.4 times
        what it costs on ordered ones. The key is 8 bits wide because 5 to 8
        bits already come within 1-6 us per 4,096 angles of a full sort, and
        8 bits fill one byte, whose radix argsort takes about 14 us there
        against 23 us for a ``uint16`` key.

        A negative size, or one that is not a whole number, is a
        :class:`ShapeError`, raised before anything is drawn."""
        sizes = list(sizes)
        bad = _bad_sizes(sizes)
        if bad:
            raise ShapeError(f"normal block sizes must be integral and non-negative, "
                             f"got {bad[0]}")
        sizes = list(map(int, sizes))
        pairs = [(n + 1) // 2 for n in sizes]
        total = sum(pairs)
        if len(pairs) == 1:
            first, second = slice(0, total), slice(total, 2 * total)
        else:  # the raw positions of each pair's u1 and u2
            p = np.array(pairs, dtype=np.intp)
            first = np.arange(total) + np.repeat(np.cumsum(p) - p, p)
            second = first + np.repeat(p, p)
        bits = self._raw(2 * total)
        bits >>= np.uint64(11)
        z = bits.astype(np.float64)  # each normal sits where its u1 or u2 was drawn
        r, angle = z[first], z[second]  # views of z for one block, copies for more
        r += 1.0
        r /= _U53  # u1 in (0, 1]
        np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
        angle /= _U53  # u2 in [0, 1)
        key = np.multiply(angle, 1 << _TRIG_KEY_BITS).astype(np.uint8)  # exact: u2's top bits
        angle *= 2.0 * np.pi
        order = np.argsort(key, kind="stable")
        turn = angle[order]
        cos = np.empty_like(angle)
        cos[order] = np.cos(turn)
        angle[order] = np.sin(turn, out=turn)
        np.multiply(r, angle, out=angle)
        np.multiply(r, cos, out=r)
        if len(pairs) > 1:
            z[first], z[second] = r, angle
        starts = itertools.accumulate(pairs, initial=0)
        return [z[2 * a:2 * a + n] for a, n in zip(starts, sizes)]


# ---------------------------------------------------------------------------
# Matrix operations
# ---------------------------------------------------------------------------


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check. Stacks of matrices along
    leading axes broadcast as in ``np.matmul``, each product on its own."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes do not multiply as matrices, {a.shape} x {b.shape}")
    return a @ b


# The longest rows whose maxima row_softmax takes from a transposed copy. ``z.max(axis=1)``
# runs one reduction loop per row, while the copy's ``max(axis=0)`` runs one loop over all
# rows; max is exact, so both give the same bits. On 2 cores (numpy 2.4, 288-4096 rows) the
# copy is 5.7-15x faster at 4-8 columns, 3.2-4.1x at 16-24, 1.25-1.6x at 32, 0.9-2.1x at
# 48-56 and 0.35-0.9x at 64, the width of the rank study's rows.
_SHORT_ROW = 32


def row_softmax(logits, mask=None, out=None) -> np.ndarray:
    """Row-wise softmax of a matrix or a stack ``(..., r, c)`` of them,
    stabilized by row-max subtraction.

    ``mask`` is an optional boolean array: one ``(r, c)`` matrix, or a stack
    equal to the logits' trailing axes, that broadcasts over the leading ones.
    False entries are excluded (treated as -inf logits) and come out exactly
    0. A fully masked row is rejected: it would have no distribution to
    normalize. So is a row whose largest kept logit is NaN or infinite (a NaN
    or +inf entry, or every entry -inf): its distribution is undefined. A
    -inf entry in a row with a finite maximum simply gets weight 0.

    Each matrix of a stack gives bitwise, and raises, what a lone call on it
    gives: the error is that of the first matrix whose softmax is undefined,
    and names its row by the index over all but the last axis (``row (2,
    5)``; ``row 5`` for a matrix). The result goes to ``out`` if given (as in
    numpy; it may be ``logits``), bitwise what the allocating call returns; a
    rejected row raises before ``out`` is written.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ShapeError(f"logits must be 2-D or a stack of matrices, got shape {z.shape}")
    if out is not None and np.shape(out) != z.shape:
        raise ShapeError(f"out shape {np.shape(out)} != logits shape {z.shape}")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.ndim < 2 or m.shape != z.shape[-m.ndim:]:
            raise ShapeError(f"mask shape {m.shape} != logits shape {z.shape}")
        z = np.where(m, z, -np.inf)
    rows = z.reshape(-1, z.shape[-1])
    if rows.shape[1] <= _SHORT_ROW:  # the maxima of a transposed copy: the same bits, one pass
        zmax = np.ascontiguousarray(rows.T).max(axis=0)
    else:
        zmax = rows.max(axis=1)
    zmax = zmax.reshape(z.shape[:-1])
    if not np.isfinite(zmax).all():
        *at, row = np.argwhere(~np.isfinite(zmax))[0].tolist()
        # a lone call on that matrix names its first fully masked row before any other
        empty = [] if mask is None else \
            np.flatnonzero(~np.broadcast_to(m, z.shape)[tuple(at)].any(axis=1)).tolist()
        row = empty[0] if empty else row
        name = (*at, row) if at else row
        if empty:
            raise ValueError(f"row {name} is fully masked; softmax undefined")
        raise NonFiniteInputError(
            f"row {name} has largest logit {zmax[(*at, row)]}; softmax undefined")
    e = np.subtract(z, zmax[..., None], out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def sigmoid(x, out=None) -> np.ndarray:
    """Stable logistic function with one exp, run in place: for ``e = exp(-|x|)`` it
    is ``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)`` where x < 0, so the exp never
    overflows; the result goes to ``out`` if given (as in numpy; it may be ``x``)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty(x.shape))  # an array even for 0-d x
    np.exp(np.negative(e, out=e), out=e)
    s = np.maximum(e, x >= 0.0, out=out)
    s /= np.add(e, 1.0, out=e)
    return s


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # below it a magnitude's square is subnormal


def top_singular_value(m):
    """Largest singular value: the square root of the largest eigenvalue of the
    Gram matrix M^T M (or M M^T, whichever is smaller), which LAPACK's
    symmetric eigensolver (``np.linalg.eigvalsh``) takes for every matrix of
    the stack in one call. Its ``LinAlgError`` (a ``ValueError``) on a
    failure to converge propagates. A matrix holding NaN or inf is rejected.
    A finite matrix whose squares could overflow (largest magnitude a with
    a^2 times its number of entries beyond the largest float) or underflow
    (a below the square root of the smallest normal float) is divided by a
    first and its value multiplied back.

    A stack ``(K, r, c)`` gives an array of K values, each bitwise what a
    lone call on its matrix gives: numpy runs one LAPACK call per matrix. An
    empty stack gives an empty array. A zero or non-finite matrix of a stack
    is named by its index.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ShapeError(f"m must be 2-D or a 3-D stack of matrices, got shape {m.shape}")
    named = m.ndim == 3
    stack = m if named else m[None]
    # each matrix's largest magnitude, NaN where it holds one, without a temporary of |M|
    biggest = np.maximum(stack.max(axis=(1, 2), initial=0.0),
                         -stack.min(axis=(1, 2), initial=0.0))
    if not np.isfinite(biggest).all():
        i, row, col = np.argwhere(~np.isfinite(stack))[0]
        at = f"matrix {i}: " if named else ""
        raise NonFiniteInputError(f"top_singular_value undefined: {at}entry ({row}, {col}) "
                                  f"is {stack[i, row, col]}")
    if not biggest.all():
        raise ValueError(f"top_singular_value undefined: matrix {np.argmin(biggest)} is the "
                         f"zero matrix" if named else "top_singular_value undefined for the "
                         "zero matrix")
    if not len(stack):
        return np.empty(0)
    fits = (biggest <= math.sqrt(np.finfo(float).max / stack[0].size)) & (biggest >= _SQRT_TINY)
    scale = np.where(fits, 1.0, biggest)
    if (scale != 1.0).any():  # dividing by 1 leaves every other matrix's bits as they are
        stack = stack / scale[:, None, None]
    t = stack.transpose(0, 2, 1)
    grams = t @ stack if stack.shape[2] <= stack.shape[1] else stack @ t
    tops = np.sqrt(np.linalg.eigvalsh(grams)[:, -1]) * scale
    return tops if named else float(tops[0])


def gaussian_matrix(rng: SeededRng, rows: int, cols: int, std: float) -> np.ndarray:
    """Matrix of i.i.d. N(0, std^2) entries drawn from ``rng``."""
    if std <= 0.0:
        raise ValueError(f"std must be positive, got {std}")
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return std * rng.standard_normal((rows, cols))


def fill_gaussian(rng: SeededRng, draws) -> None:
    """Fill each ``(view, std)`` of ``draws`` with N(0, std^2) values from one
    :meth:`SeededRng.normal_blocks` pass: the values that one
    :func:`gaussian_matrix` call per view, in list order, would draw."""
    bad = [std for _, std in draws if std <= 0.0]
    if bad:
        raise ValueError(f"std must be positive, got {bad[0]}")
    for (view, std), z in zip(draws, rng.normal_blocks([v.size for v, _ in draws])):
        np.multiply(std, z.reshape(view.shape), out=view)


def carve(build):
    """``(build(take), vector)``: ``take(*shape)`` hands out the next entries
    of one zero vector as a view of that shape (a dimension below 1 is a
    :class:`ShapeError`). A first run of ``build`` sizes the vector."""
    sizes = []

    def sizing(*shape):
        if min(shape) <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got "
                             f"{'x'.join(map(str, shape[-2:]))}")
        sizes.append(math.prod(shape))
        return np.empty(shape)

    build(sizing)
    vector, starts = np.zeros(sum(sizes)), itertools.accumulate(sizes, initial=0)

    def take(*shape):
        start = next(starts)
        return vector[start:start + math.prod(shape)].reshape(shape)

    return build(take), vector


def fmt_exact(x) -> str:
    """``x`` as text with 17 significant digits, which reads back as the same float64."""
    return format(float(x), ".17g")


def row_text(values) -> str:
    """One row of a text file: each of ``values`` through :func:`fmt_exact`, spaced."""
    return " ".join(map(fmt_exact, values))


def read_rows(lines, pos, count, width, where):
    """``(matrix, pos + count)``: the ``count`` x ``width`` float64 matrix held by
    ``lines[pos:]``, one row a line, read only as far as the lines go. A row
    that is missing, does not parse, has another number of values or holds
    a NaN or an infinity raises ValueError naming it ``{where} row {r}``."""
    rows = []
    for r, line in enumerate(lines[pos:pos + count]):
        try:
            row = [float(t) for t in line.split()]
        except ValueError as exc:
            raise ValueError(f"{where} row {r}: {exc}") from None
        if len(row) != width:
            raise ValueError(f"{where} row {r} has {len(row)} values, expected {width}")
        if not np.isfinite(row).all():
            raise ValueError(f"{where} row {r} has a non-finite value: {line.strip()!r}")
        rows.append(row)
    if len(rows) < count:
        raise ValueError(f"{where} row {len(rows)}: the file ends after {len(rows)} of "
                         f"{count} rows")
    return np.array(rows, dtype=np.float64).reshape(count, width), pos + count


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file ``path``, without their newlines. A
    file that cannot be read or is not UTF-8 raises ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.removesuffix("\n") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def write_lines(path, lines) -> None:
    """Write each of ``lines`` and a newline to ``path``, as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_csv(path, header: str, rows) -> None:
    """:func:`write_lines` of ``header`` and one comma-separated line per row of
    ``rows``: text cells as they are, integers in decimal and every other
    number through :func:`fmt_exact`, so each value reads back as the same float64."""
    write_lines(path, [header, *(",".join(map(_csv_cell, row)) for row in rows)])


def _csv_cell(c) -> str:
    if isinstance(c, str):
        return c
    return str(c) if isinstance(c, (int, np.integer)) else fmt_exact(c)
