"""Reference formulas the library's faster kernels must match bit for bit.

Each is the plain numpy formulation of a kernel, kept here as an
independent oracle: ``numeric.sigmoid``, the row scatter-add behind
``autodiff.scatter_rows`` and the ``take_rows`` VJP, and the
``0 log 0 = 0`` sum of ``diagnostics.attention_entropy``.
"""

import numpy as np


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


def assert_bitwise(got, want):
    """Same shape and the same bytes (so +0.0 and -0.0 differ)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.tobytes() == want.tobytes()
