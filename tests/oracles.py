"""Reference formulas the library's faster kernels must match bit for bit.

Each is the plain numpy formulation of a kernel, kept here as an
independent oracle: ``numeric.sigmoid``, the row scatter-add behind
``autodiff.scatter_rows`` and the ``take_rows`` VJP, the ``0 log 0 = 0``
sum of ``diagnostics.attention_entropy``, the power iteration of
``numeric.top_singular_value`` with two Gram products per step, and the
rank study run one (c, rho) cell at a time, each cell drawing its seeds
from scratch.
"""

import numpy as np

from siggate.numeric import SeededRng, gaussian_matrix, row_softmax, sigmoid
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


def two_product_top_singular_value(m, tol=1e-12, max_iter=10_000):
    """Largest singular value of a finite nonzero matrix by power iteration on
    its Gram matrix, computing ``gram @ v`` twice per step."""
    m = np.asarray(m, dtype=np.float64)
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
        if abs(lam_new - lam) <= tol * max(abs(lam_new), np.finfo(float).tiny):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def _stable_rank(m):
    top = two_product_top_singular_value(m)
    return float(np.sum(m * m)) / (top * top)


def per_cell_rank_seed(cfg, seed, cal, gate_override=None):
    """One seed of one rank-study cell: every draw made for this cell alone.

    Returns the head-mean stable ranks, the gate sums and the per-head
    intermediates, in the layout of ``RankExpResult.intermediates``."""
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
        if gate_override is not None:
            gate = np.full((cfg.n, cfg.d_k), float(gate_override))
        else:
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


def per_cell_rank_experiment(cfg, gate_override=None):
    """The rank study for one config, seed by seed, every draw made afresh.

    Returns ``(calibration, [(seed, srank_ungated, srank_gated)], gate mean,
    gate std, intermediates)``."""
    cal = calibrate_gate(cfg.target_gate_mean, cfg.target_gate_std)
    per_seed, intermediates = [], []
    gate_sum = gate_sq_sum = 0.0
    gate_count = 0
    for seed in cfg.seeds:
        su, sg, gsum, gsq, gcount, captured = per_cell_rank_seed(cfg, seed, cal, gate_override)
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
