from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    add_at_rows,
    assert_bitwise,
    chained_activation,
    erf_vjp,
    scatter_rows_vjp,
    sqrt_vjp,
    take_rows_vjp,
    taped,
    transpose_vjp,
)
from siggate import autodiff as ad
from siggate.attention import GATE_ACTIVATIONS
from siggate.gps import LN_EPS
from siggate.numeric import NonFiniteInputError, SeededRng, ShapeError, gaussian_matrix


mul = partial(taped, ad.mul_vjp)


def activation(name):
    """The form of the gate activation ``name``."""
    return partial(ad.activation_vjp, name)


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def check_grads(build, arrays, tol=5e-6):
    """``build`` maps Vars (one per array) to a scalar node; compare
    backward() against central differences on the same scalar."""
    def scalar():
        return float(ad.value(build(*arrays)))

    variables = [ad.Var(a) for a in arrays]
    out = build(*variables)
    ad.backward(out)
    for var, arr in zip(variables, arrays):
        expected = numeric_grad(lambda: scalar(), arr)
        got = var.grad if var.grad is not None else np.zeros_like(arr)
        assert np.allclose(got, expected, atol=tol), (
            f"grad mismatch: max err {np.max(np.abs(got - expected))}"
        )


@pytest.fixture
def rng():
    return SeededRng(1234)


class TestArithmetic:
    def test_plain_arrays_pass_through(self):
        a = np.ones((2, 2))
        assert isinstance(ad.add(a, a), np.ndarray)
        assert isinstance(ad.matmul(a, a), np.ndarray)
        assert isinstance(ad.square(a), np.ndarray)

    def test_square_at_three_has_gradient_six(self):
        w = ad.Var(np.array(3.0))
        out = ad.square(w)
        ad.backward(out)
        assert w.grad == pytest.approx(6.0)

    def test_add_mul_broadcasting(self, rng):
        a = gaussian_matrix(rng, 4, 3, 1.0)
        b = gaussian_matrix(rng, 1, 3, 1.0).reshape(3)  # (3,) row broadcast
        c = gaussian_matrix(rng, 4, 1, 1.0)
        check_grads(lambda x, y, z: ad.vsum(mul(ad.add(x, y), z)), [a, b, c])

    def test_sub_div(self, rng):
        a = gaussian_matrix(rng, 3, 3, 1.0)
        b = gaussian_matrix(rng, 3, 3, 1.0) + 3.0
        check_grads(lambda x, y: ad.vsum(ad.div(ad.sub(x, y), y)), [a, b])

    def test_matmul_transpose(self, rng):
        a = gaussian_matrix(rng, 4, 3, 1.0)
        b = gaussian_matrix(rng, 3, 5, 1.0)
        check_grads(lambda x, y: ad.vsum(ad.square(ad.matmul(x, y))), [a, b])
        check_grads(lambda x: ad.vsum(ad.matmul(taped(transpose_vjp, x), x)), [a])

    def test_stacked_matmul_and_transpose(self, rng):
        a = gaussian_matrix(rng, 6, 3, 1.0).reshape(2, 3, 3)
        b = gaussian_matrix(rng, 6, 4, 1.0).reshape(2, 3, 4)
        check_grads(lambda x, y: ad.vsum(ad.square(ad.matmul(x, y))), [a, b])
        check_grads(lambda x, y: ad.vsum(ad.square(ad.matmul(x, y))), [a[0], b])  # broadcast
        check_grads(lambda x: ad.vsum(ad.square(ad.matmul(taped(transpose_vjp, x), x))), [b])
        for i in range(2):
            assert np.array_equal(ad.matmul(a, b)[i], a[i] @ b[i])
            assert np.array_equal(ad.matmul(a[0], b)[i], a[0] @ b[i])
            assert np.array_equal(transpose_vjp(b)[0][i], b[i].T)

    def test_mixed_var_and_plain(self, rng):
        a = gaussian_matrix(rng, 3, 3, 1.0)
        fixed = gaussian_matrix(rng, 3, 3, 1.0)
        check_grads(lambda x: ad.vsum(mul(ad.matmul(x, fixed), 2.0)), [a])

    def test_diamond_accumulation(self):
        x = ad.Var(np.array([2.0]))
        out = ad.vsum(ad.add(mul(x, x), x))  # x^2 + x
        ad.backward(out)
        assert x.grad[0] == pytest.approx(5.0)

    def test_deep_chain_no_recursion_error(self):
        x = ad.Var(np.array([1.0]))
        node = x
        for _ in range(3000):
            node = ad.add(node, 1.0)
        ad.backward(ad.vsum(node))
        assert x.grad[0] == pytest.approx(1.0)


class TestReductionsAndShapes:
    def test_sum_axes(self, rng):
        a = gaussian_matrix(rng, 4, 5, 1.0)
        for axis, keep in [(None, False), (0, False), (1, True)]:
            check_grads(
                lambda x: ad.vsum(ad.square(ad.vsum(x, axis=axis, keepdims=keep))), [a.copy()]
            )

    def test_mean(self, rng):
        a = gaussian_matrix(rng, 4, 5, 1.0)
        check_grads(lambda x: ad.vsum(ad.square(ad.vmean(x, axis=1, keepdims=True))), [a])

    def test_reshape(self, rng):
        a = gaussian_matrix(rng, 2, 6, 1.0)
        check_grads(lambda x: ad.vsum(ad.square(ad.reshape(x, (3, 4)))), [a])

    def test_concat(self, rng):
        a = gaussian_matrix(rng, 3, 2, 1.0)
        b = gaussian_matrix(rng, 3, 4, 1.0)
        check_grads(lambda x, y: ad.vsum(ad.square(taped(ad.concat_vjp, x, y))), [a, b])

    def test_take_rows_with_duplicates(self, rng):
        a = gaussian_matrix(rng, 5, 3, 1.0)
        idx = np.array([0, 2, 2, 4])
        w = gaussian_matrix(rng, 4, 3, 1.0)
        check_grads(lambda x: ad.vsum(mul(taped(take_rows_vjp, x, idx=idx), w)), [a])

    def test_scatter_rows(self, rng):
        a = gaussian_matrix(rng, 4, 3, 1.0)
        idx = np.array([1, 1, 0, 3])
        w = gaussian_matrix(rng, 5, 3, 1.0)
        scatter = partial(taped, scatter_rows_vjp, idx=idx, n_rows=5)
        check_grads(lambda x: ad.vsum(mul(scatter(x), w)), [a])


class TestNonlinearities:
    @pytest.mark.parametrize("op", [activation("sigmoid"), activation("tanh"), erf_vjp,
                                    ad.gelu_vjp, ad.square_vjp, ad.absolute_vjp])
    def test_unary_grads(self, op, rng):
        a = gaussian_matrix(rng, 3, 4, 1.0) + 0.1  # keep abs away from its kink
        check_grads(lambda x: ad.vsum(taped(op, x)), [a])

    def test_relu_grad_off_kink(self, rng):
        a = gaussian_matrix(rng, 3, 4, 1.0)
        a[np.abs(a) < 1e-3] = 0.5
        check_grads(lambda x: ad.vsum(taped(activation("relu"), x)), [a])

    def test_sqrt(self, rng):
        a = np.abs(gaussian_matrix(rng, 3, 3, 1.0)) + 0.5
        check_grads(lambda x: ad.vsum(taped(sqrt_vjp, x)), [a])

    def test_activation_table_matches_named_ops(self, rng):
        a = gaussian_matrix(rng, 2, 3, 1.0)
        sig = 1.0 / (1.0 + np.exp(-a))
        assert np.allclose(ad.activation_vjp("sigmoid", a)[0], sig)
        assert np.allclose(ad.activation_vjp("sigmoid_squared", a)[0], sig**2)
        assert np.array_equal(ad.activation_vjp("tanh", a)[0], np.tanh(a))
        assert np.array_equal(ad.activation_vjp("relu", a)[0], np.maximum(a, 0.0))
        for name in ("softmax", "identity"):
            with pytest.raises(ValueError, match="unknown activation"):
                ad.activation_vjp(name, a)


class TestActivationTable:
    """Each gate activation is one form with a closed-form VJP, the MPNN's
    edge gate (``sigmoid``) among them. Its value and VJP are bitwise those
    of the op chain the tape ran before, one node per elementwise op
    (``oracles.chained_activation``)."""

    @pytest.mark.parametrize("name", GATE_ACTIVATIONS)
    def test_value_and_vjp_equal_the_op_chain_bitwise(self, name, rng):
        x = rng.standard_normal((4, 6)) * 3.0
        x[0] = [0.0, 40.0, -40.0, 1e-300, -750.0, 750.0]  # the kink and saturation
        weights = rng.standard_normal((4, 6))
        chain_leaf = ad.Var(x)
        chain = chained_activation(name, chain_leaf)
        ad.backward(ad.vsum(mul(chain, weights)))
        value, back = ad.activation_vjp(name, x)
        assert_bitwise(value, chain.value)
        assert_bitwise(back(weights)[0], chain_leaf.grad)


class TestRowSoftmaxGrad:
    def test_unmasked(self, rng):
        a = gaussian_matrix(rng, 4, 5, 1.0)
        w = gaussian_matrix(rng, 4, 5, 1.0)
        check_grads(lambda x: ad.vsum(mul(taped(ad.row_softmax_vjp, x), w)), [a])

    def test_masked(self, rng):
        a = gaussian_matrix(rng, 4, 5, 1.0)
        mask = rng.uniform((4, 5)) > 0.4
        mask[:, 0] = True
        w = gaussian_matrix(rng, 4, 5, 1.0)
        check_grads(lambda x: ad.vsum(mul(taped(ad.row_softmax_vjp, x, mask=mask), w)), [a])
        # masked logits must receive exactly zero gradient
        v = ad.Var(a)
        out = ad.vsum(mul(taped(ad.row_softmax_vjp, v, mask=mask), w))
        ad.backward(out)
        assert np.all(v.grad[~mask] == 0.0)

    def test_stack_runs_as_its_rows(self, rng):
        a = gaussian_matrix(rng, 6, 3, 1.0)
        mask = rng.uniform((6, 3)) > 0.4
        mask[:, 1] = True
        w = gaussian_matrix(rng, 6, 3, 1.0).reshape(2, 3, 3)
        stacked, _ = ad.row_softmax_vjp(a.reshape(2, 3, 3), mask)
        assert np.array_equal(stacked.reshape(6, 3), ad.row_softmax_vjp(a, mask)[0])
        check_grads(lambda x: ad.vsum(mul(taped(ad.row_softmax_vjp, x, mask=mask), w)),
                    [a.reshape(2, 3, 3)])


# ---------------------------------------------------------------------------
# Row scatter-add against np.add.at (independent oracle)
# ---------------------------------------------------------------------------


def _scatter_case(seed, n_rows, n_idx, cols):
    """Indices into ``n_rows`` rows and values whose magnitudes span 1e-8..1e8,
    so a changed summation order shows in the last bits."""
    rng = SeededRng(seed)
    idx = np.minimum((rng.uniform((n_idx,)) * n_rows).astype(np.intp), n_rows - 1)
    scale = 10.0 ** np.round(16.0 * rng.uniform((n_idx, cols)) - 8.0)
    return idx, rng.standard_normal((n_idx, cols)) * scale


def _take_rows_vjp(n_rows, cols, idx):
    _, back = take_rows_vjp(np.zeros((n_rows, cols)), idx)
    return lambda g: back(g)[0]


SCATTER = dict(n_rows=st.integers(1, 7), n_idx=st.integers(0, 15), cols=st.integers(1, 5),
               seed=st.integers(0, 2**31))


class TestScatterAdd:
    """``scatter_rows_vjp`` and the ``take_rows_vjp`` back equal ``np.add.at``, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(**SCATTER)
    @example(n_rows=4, n_idx=0, cols=3, seed=0)
    @example(n_rows=5, n_idx=9, cols=1, seed=1)
    def test_scatter_rows(self, n_rows, n_idx, cols, seed):
        idx, x = _scatter_case(seed, n_rows, n_idx, cols)
        want = add_at_rows(x, idx, n_rows)
        assert_bitwise(scatter_rows_vjp(x, idx, n_rows)[0], want)

    @settings(max_examples=60, deadline=None)
    @given(**SCATTER)
    @example(n_rows=4, n_idx=0, cols=3, seed=0)
    @example(n_rows=5, n_idx=9, cols=1, seed=1)
    def test_take_rows_vjp(self, n_rows, n_idx, cols, seed):
        idx, g = _scatter_case(seed, n_rows, n_idx, cols)
        assert_bitwise(_take_rows_vjp(n_rows, cols, idx)(g), add_at_rows(g, idx, n_rows))

    def test_repeats_and_rows_that_receive_nothing(self):
        # Added in index order 1e16 + 1 - 1e16 is 0 in row 1; any other order is not.
        idx = np.array([1, 3, 1, 1, 3])
        x = np.array([[1e16, 2.0], [0.5, -0.0], [1.0, 3.0], [-1e16, -2.0], [-0.5, 0.0]])
        want = add_at_rows(x, idx, 5)
        assert want[1, 0] == 0.0 and not want[[0, 2, 4]].any()
        assert_bitwise(scatter_rows_vjp(x, idx, 5)[0], want)
        assert_bitwise(_take_rows_vjp(5, 2, idx)(x), want)

    def test_one_column_and_empty(self):
        idx = np.array([2, 0, 2])
        x = np.array([[0.1], [0.2], [0.3]])
        assert_bitwise(scatter_rows_vjp(x, idx, 4)[0], add_at_rows(x, idx, 4))
        empty = np.zeros((0, 3))
        none = np.zeros(0, dtype=np.intp)
        assert_bitwise(scatter_rows_vjp(empty, none, 3)[0], np.zeros((3, 3)))
        assert_bitwise(_take_rows_vjp(3, 3, none)(empty), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Fused ops against their compositions of elementary ops (independent oracles)
# ---------------------------------------------------------------------------


def composed_layer_norm(h, scale, shift, eps):
    mu = ad.vmean(h, axis=1, keepdims=True)
    centered = ad.sub(h, mu)
    var = ad.vmean(ad.square(centered), axis=1, keepdims=True)
    normed = ad.div(centered, taped(sqrt_vjp, ad.add(var, eps)))
    return ad.add(mul(normed, scale), shift)


def composed_gelu(x):
    return mul(mul(x, 0.5), ad.add(taped(erf_vjp, mul(x, 1.0 / np.sqrt(2.0))), 1.0))


def composed_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _ln_inputs(rng, rows, cols):
    return [gaussian_matrix(rng, rows, cols, 2.0) + 0.5,
            rng.standard_normal((cols,)), rng.standard_normal((cols,))]


def _linear_inputs(rng, rows, cols):
    return [gaussian_matrix(rng, rows, cols, 1.0), gaussian_matrix(rng, cols, rows, 1.0),
            rng.standard_normal((rows,))]


def _ln_terms_scale(arrays, weights):
    """Size of the terms layer norm's h-gradient sums, ‖g·scale/σ‖. With
    two columns they cancel to O(eps) (one column: to 0), so there the
    gradient's own norm is no scale for roundoff."""
    h, scale, _ = arrays
    return np.linalg.norm(weights * scale / np.sqrt(np.var(h, axis=1, keepdims=True) + LN_EPS))


# name -> (fused op, composed oracle, inputs for a (rows, cols) shape,
#          scale of the terms its VJP sums)
FUSED = {
    "layer_norm": (lambda h, s, b: ad.layer_norm(h, s, b, LN_EPS),
                   lambda h, s, b: composed_layer_norm(h, s, b, LN_EPS), _ln_inputs,
                   _ln_terms_scale),
    "gelu": (partial(taped, ad.gelu_vjp), composed_gelu,
             lambda rng, rows, cols: [gaussian_matrix(rng, rows, cols, 2.0)],
             lambda arrays, weights: 0.0),
    "linear": (ad.linear, composed_linear, _linear_inputs, lambda arrays, weights: 0.0),
}

SHAPES = dict(rows=st.integers(1, 5), cols=st.integers(1, 6), seed=st.integers(0, 2**31))


def _weighted_sum(op, weights):
    return lambda *xs: ad.vsum(mul(op(*xs), weights))


class TestFusedOps:
    @pytest.mark.parametrize("name", FUSED)
    @settings(max_examples=30, deadline=None)
    @given(**SHAPES)
    @example(rows=1, cols=4, seed=0)
    @example(rows=4, cols=1, seed=0)
    def test_forward_bitwise_equals_composition(self, name, rows, cols, seed):
        fused, composed, inputs, _ = FUSED[name]
        arrays = inputs(SeededRng(seed), rows, cols)
        assert np.array_equal(fused(*arrays), composed(*arrays))
        taped = fused(*[ad.Var(a) for a in arrays])
        assert np.array_equal(taped.value, composed(*arrays))

    @pytest.mark.parametrize("name", FUSED)
    @settings(max_examples=30, deadline=None)
    @given(tracked=st.lists(st.booleans(), min_size=3, max_size=3).filter(any), **SHAPES)
    @example(tracked=[True] * 3, rows=1, cols=4, seed=1)
    @example(tracked=[True] * 3, rows=4, cols=1, seed=1)
    def test_vjp_matches_composition(self, name, tracked, rows, cols, seed):
        fused, composed, inputs, terms_scale = FUSED[name]
        rng = SeededRng(seed)
        arrays = inputs(rng, rows, cols)
        tracked = tracked[:len(arrays)]
        if not any(tracked):
            tracked[0] = True
        weights = rng.standard_normal(np.shape(fused(*arrays)))
        grads = []
        for op in (fused, composed):
            xs = [ad.Var(a) if t else a for a, t in zip(arrays, tracked)]
            ad.backward(_weighted_sum(op, weights)(*xs))
            grads.append([x.grad for x in xs if isinstance(x, ad.Var)])
        scale = terms_scale(arrays, weights)
        for got, want in zip(*grads):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), scale)

    @pytest.mark.parametrize("name", FUSED)
    @pytest.mark.parametrize("rows, cols", [(3, 4), (1, 5), (4, 1)])
    def test_vjp_matches_central_differences(self, name, rows, cols, rng):
        fused, _, inputs, _ = FUSED[name]
        arrays = inputs(rng, rows, cols)
        weights = rng.standard_normal(np.shape(fused(*arrays)))
        check_grads(_weighted_sum(fused, weights), arrays)

    @pytest.mark.parametrize("name", FUSED)
    def test_tape_free_returns_a_plain_array_and_taped_one_node(self, name, rng):
        fused, _, inputs, _ = FUSED[name]
        arrays = inputs(rng, 3, 4)
        assert type(fused(*arrays)) is np.ndarray
        xs = [ad.Var(a) for a in arrays]
        node = fused(*xs)
        assert [p for p, _ in node.parents] == xs

    def test_linear_keeps_the_matmul_shape_check(self):
        with pytest.raises(ShapeError):
            ad.linear(np.ones((2, 3)), ad.Var(np.ones((4, 2))), np.zeros(2))

    @pytest.mark.parametrize("taped", [False, True])
    def test_layer_norm_rejects_a_row_whose_variance_overflows(self, taped):
        # The variance of [1e308, -1e308] overflows to inf; dividing by an
        # infinite std would turn the row into exact zeros.
        h = np.array([[1.0, 2.0, 3.0], [1e308, -1e308, 0.0]])
        args = [h, np.ones(3), np.zeros(3)]
        if taped:
            args = [ad.Var(a) for a in args]
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteInputError, match=r"^layer_norm: row 1 has an infinite standard"):
            ad.layer_norm(*args, LN_EPS)

    def test_layer_norm_keeps_a_nan_row_nan(self):
        out = ad.layer_norm(np.array([[1.0, np.nan], [1.0, 2.0]]), np.ones(2), np.zeros(2),
                            LN_EPS)
        assert np.isnan(out[0]).all() and np.isfinite(out[1]).all()


class TestCopyAxis:
    """Tape-free ops over a leading stack of copies: each copy's slice is bit
    for bit the op on that copy alone. Taped, ``matmul`` takes stacks as
    well; ``linear`` keeps to matrices."""

    def test_each_copy_equals_the_op_on_it_alone(self, rng):
        x = rng.standard_normal((5, 6, 4))
        w = rng.standard_normal((4, 3))
        ws = rng.standard_normal((5, 4, 3))
        vec = rng.standard_normal((5, 4))
        edge = rng.standard_normal((6, 2))
        heads = rng.standard_normal((5, 3, 6, 2))
        idx = np.array([0, 2, 2, 5, 1, 0])
        for c in range(5):
            assert_bitwise(ad.matmul(x, w)[c], ad.matmul(x[c], w))
            assert_bitwise(ad.matmul(x[0], ws)[c], ad.matmul(x[0], ws[c]))
            assert_bitwise(ad.linear(x, ws, vec[:, :3])[c], ad.linear(x[c], ws[c], vec[c, :3]))
            assert_bitwise(take_rows_vjp(x, idx)[0][c], take_rows_vjp(x[c], idx)[0])
            assert_bitwise(scatter_rows_vjp(x, idx, 7)[0][c],
                           scatter_rows_vjp(x[c], idx, 7)[0])
            assert_bitwise(ad.concat_vjp(x, edge)[0][c], ad.concat_vjp(x[c], edge)[0])
            assert_bitwise(ad.merge_stack_vjp(heads)[0][c], ad.merge_stack_vjp(heads[c])[0])
            assert_bitwise(ad.layer_norm(x, vec, vec[::-1], LN_EPS)[c],
                           ad.layer_norm(x[c], vec[c], vec[4 - c], LN_EPS))

    def test_a_bias_or_shift_with_copies_broadcasts_a_plain_product(self, rng):
        # linear adds a 1-D bias into its product in place; copies of the bias alone
        # (a probe's stack of ffn.b1) or of a shift make the result larger than the product
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal((4, 3))
        vec = rng.standard_normal((5, 4))
        assert_bitwise(ad.linear(x, w, vec[0, :3]), x @ w + vec[0, :3])
        biased = ad.linear(x, w, vec[:, :3])
        shifted = ad.layer_norm(x, vec[0], vec, LN_EPS)
        assert biased.shape == (5, 6, 3) and shifted.shape == (5, 6, 4)
        for c in range(5):
            assert_bitwise(biased[c], ad.linear(x, w, vec[c, :3]))
            assert_bitwise(shifted[c], ad.layer_norm(x, vec[0], vec[c], LN_EPS))

    @pytest.mark.parametrize("dead, b, in_place", [
        ((6, 3), (), True), ((6, 3), (3,), True), ((6, 3), (6, 3), True),
        ((5, 6, 3), (3,), True), ((5, 6, 3), (6, 3), True), ((5, 6, 3), (5, 1, 3), True),
        ((5, 6, 3), (5, 6, 3), True), ((6, 3), (5, 1, 3), False), ((6, 3), (5, 6, 3), False),
    ])
    def test_add_into_writes_into_dead_when_b_adds_no_axis(self, rng, dead, b, in_place):
        x, y = rng.standard_normal(dead), np.asarray(rng.standard_normal(b))
        want, x_before, y_before = x + y, x.copy(), y.copy()
        got = ad.add_into(x, y)
        assert (got is x) == in_place
        assert_bitwise(got, want)
        assert_bitwise(y, y_before)
        if not in_place:
            assert_bitwise(x, x_before)

    @pytest.mark.parametrize("stacked", ["left", "right", "both"])
    def test_taped_matmul_gives_each_copy_its_lone_product_and_vjps(self, rng, stacked):
        a = rng.standard_normal((5, 6, 4) if stacked != "right" else (6, 4))
        b = rng.standard_normal((5, 4, 3) if stacked != "left" else (4, 3))
        weights = rng.standard_normal((5, 6, 3))
        xs = [ad.Var(a), ad.Var(b)]
        out = ad.matmul(*xs)
        ad.backward(ad.vsum(mul(out, weights)))
        lone_grads = []
        for c in range(5):
            lone = [ad.Var(v[c] if v.ndim == 3 else v) for v in (a, b)]
            prod = ad.matmul(*lone)
            ad.backward(ad.vsum(mul(prod, weights[c])))
            assert_bitwise(out.value[c], prod.value)
            for x, leaf in zip(xs, lone):
                if x.value.ndim == 3:
                    assert_bitwise(x.grad[c], leaf.grad)
            lone_grads.append([leaf.grad for leaf in lone])
        for x, per_copy in zip(xs, zip(*lone_grads)):
            if x.value.ndim == 2:  # broadcast over the copies: the sum of their VJPs
                assert np.allclose(x.grad, sum(per_copy), rtol=1e-14, atol=0)

    def test_taped_linear_rejects_stacks(self):
        with pytest.raises(ShapeError, match="taped linear multiplies matrices; stacks go "
                                             "through matmul"):
            ad.linear(np.ones((2, 3, 4)), ad.Var(np.ones((4, 2))), np.zeros(2))
