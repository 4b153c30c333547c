import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    GATE_ACTIVATIONS,
    assert_bitwise,
    concatenated_box_muller,
    per_row_max_softmax,
    splitmix64,
    two_branch_sigmoid,
)
from siggate import autodiff as ad
from siggate import numeric
from siggate.attention import GateConfig, MhsaParams, siggate_mhsa
from siggate.diagnostics import stable_rank
from siggate.numeric import (
    carve,
    NonFiniteInputError,
    SeededRng,
    ShapeError,
    fill_gaussian,
    gaussian_matrix,
    matmul,
    read_lines,
    row_softmax,
    sigmoid,
    top_singular_value,
    write_csv,
    write_lines,
)


class TestMatmul:
    def test_identity(self):
        rng = SeededRng(1)
        m = gaussian_matrix(rng, 3, 3, 1.0)
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_zero(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(np.zeros((4, 2)), m), np.zeros((4, 3)))

    def test_hand_product(self):
        # [[1,2],[3,4]] @ [[5,6],[7,8]] worked out by hand
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(out, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestRowSoftmax:
    def test_uniform_on_constant_row(self):
        out = row_softmax(np.zeros((1, 4)))
        assert np.allclose(out, 0.25, atol=0)

    def test_single_unmasked_entry_is_one(self):
        mask = np.array([[False, True, False]])
        out = row_softmax(np.array([[5.0, -2.0, 1.0]]), mask)
        assert np.array_equal(out, [[0.0, 1.0, 0.0]])

    def test_log2_row(self):
        out = row_softmax(np.array([[0.0, np.log(2.0)]]))
        assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_fully_masked_row_rejected(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError, match="row 1 is fully masked"):
            row_softmax(np.zeros((2, 2)), mask)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            row_softmax(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))

    def test_random_matrices_rows_normalized(self):
        rng = SeededRng(7)
        for _ in range(1000):
            logits = 10.0 * gaussian_matrix(rng, 5, 6, 1.0)
            mask = rng.uniform((5, 6)) > 0.3
            mask[:, 0] = True  # keep every row alive
            out = row_softmax(logits, mask)
            assert np.all(out >= 0.0)
            assert np.all(out[~mask] == 0.0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_shift_invariance(self):
        rng = SeededRng(8)
        logits = gaussian_matrix(rng, 4, 5, 1.0)
        shifted = logits + gaussian_matrix(rng, 4, 1, 3.0)
        assert np.max(np.abs(row_softmax(logits) - row_softmax(shifted))) <= 1e-12

    def test_extreme_logits_stay_finite(self):
        out = row_softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("bad_row, max_txt", [
        ([np.inf, 0.0, 1.0], "inf"),
        ([0.0, np.nan, 1.0], "nan"),
        ([-np.inf, -np.inf, -np.inf], "-inf"),
    ])
    def test_non_finite_row_maximum_rejected(self, bad_row, max_txt):
        logits = np.array([[0.0, 1.0, 2.0], bad_row, [np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match=f"row 1 has largest logit {max_txt}; "):
            row_softmax(logits)

    def test_masked_non_finite_logit_is_ignored(self):
        mask = np.array([[True, False, True]])
        out = row_softmax(np.array([[0.0, np.nan, np.log(3.0)]]), mask)
        assert np.allclose(out, [[0.25, 0.0, 0.75]], atol=1e-15)

    def test_minus_inf_entry_with_finite_max_gets_zero_weight(self):
        out = row_softmax(np.array([[-np.inf, 0.0, np.log(3.0)]]))
        assert out[0, 0] == 0.0
        assert np.allclose(out, [[0.0, 0.25, 0.75]], atol=1e-15)


def softmax_or_error(form, logits, mask):
    """``form(logits, mask)``, or the type and message of what it raised."""
    try:
        return form(logits, mask)
    except ValueError as exc:
        return type(exc), str(exc)


class TestShortRowMaxima:
    """Rows of up to ``numeric._SHORT_ROW`` entries take their maxima from a
    transposed copy, longer ones row by row: both give the values, and raise
    the errors, of the row-by-row oracle."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           special=st.sampled_from(["none", "-inf", "zeros", "nan", "+inf", "all -inf"]),
           masked=st.booleans(), fortran=st.booleans())
    @example(rows=3, cols=numeric._SHORT_ROW, seed=1, special="-inf", masked=True, fortran=False)
    @example(rows=3, cols=numeric._SHORT_ROW + 1, seed=1, special="-inf", masked=True,
             fortran=False)
    def test_either_path_is_the_row_by_row_softmax(self, rows, cols, seed, special, masked,
                                                   fortran):
        rng = np.random.default_rng(seed)
        logits = 5.0 * rng.standard_normal((rows, cols))
        pick = rng.random((rows, cols)) < 0.3
        if special == "zeros":  # ties of +0.0 and -0.0 at the maximum
            logits = np.where(pick, 0.0, -0.0)
        elif special == "-inf":
            logits[pick] = -np.inf
        elif special in ("nan", "+inf"):
            logits[rng.integers(rows), rng.integers(cols)] = np.nan if special == "nan" else np.inf
        elif special == "all -inf":
            logits[rng.integers(rows)] = -np.inf
        mask = None
        if masked:
            mask = rng.random((rows, cols)) < 0.6
            mask[rng.integers(rows)] = rng.random() < 0.5  # sometimes a fully masked row
        if fortran:
            logits = np.asfortranarray(logits)
        got = softmax_or_error(row_softmax, logits, mask)
        want = softmax_or_error(per_row_max_softmax, logits, mask)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_bitwise(got, want)

    @pytest.mark.parametrize("cols", [1, 8, numeric._SHORT_ROW, numeric._SHORT_ROW + 1, 64])
    def test_a_zero_maximum_of_either_sign_gives_the_same_bits(self, cols):
        logits = np.full((4, cols), -0.0)
        logits[1::2, ::2] = 0.0
        logits[2, 1:] = -np.inf  # row 2 keeps its first entry
        assert_bitwise(row_softmax(logits), per_row_max_softmax(logits))

    @pytest.mark.parametrize("cols", [3, numeric._SHORT_ROW + 5])
    def test_either_path_names_the_first_bad_row(self, cols):
        logits = np.zeros((4, cols))
        logits[2, 1], logits[3, 0] = np.inf, np.nan
        with pytest.raises(NonFiniteInputError, match="row 2 has largest logit inf; "):
            row_softmax(logits)
        mask = np.ones((4, cols), dtype=bool)
        mask[1] = False
        with pytest.raises(ValueError, match="row 1 is fully masked"):
            row_softmax(logits, mask)


class TestStackedRowSoftmax:
    """A stack ``(..., r, c)`` runs each of its matrices as a lone call does:
    the same bits, with and without ``out=``, and else the error of the first
    lone call that raises, its row named by the index over all but the last
    axis. The mask is one matrix or a stack of the logits' trailing axes."""

    @settings(max_examples=150, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=3), rows=st.integers(1, 40),
           cols=st.integers(1, 40), mask_axes=st.none() | st.integers(0, 3),
           faults=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @example(lead=[2, 3], rows=5, cols=numeric._SHORT_ROW, mask_axes=1, faults=3, seed=1)
    @example(lead=[3], rows=5, cols=numeric._SHORT_ROW + 1, mask_axes=0, faults=3, seed=1)
    def test_each_matrix_is_its_lone_call(self, lead, rows, cols, mask_axes, faults, seed):
        rng = np.random.default_rng(seed)
        shape = (*lead, rows, cols)
        logits = 5.0 * rng.standard_normal(shape)
        mask = None
        if mask_axes is not None:
            mask = rng.random(shape[len(lead) - min(mask_axes, len(lead)):]) < 0.7
            mask[..., 0] = True
        for _ in range(faults):  # a row with NaN, +inf or -inf, all -inf, or fully masked
            row = logits.reshape(-1, cols)[rng.integers(logits.size // cols)]
            fault = rng.integers(5)
            if fault < 3:
                row[rng.integers(cols)] = (np.nan, np.inf, -np.inf)[fault]
            elif fault == 3:
                row[:] = -np.inf
            elif mask is not None:
                mask.reshape(-1, cols)[rng.integers(mask.size // cols)] = False
        lone = {at: softmax_or_error(row_softmax, logits[at], None if mask is None
                                     else np.broadcast_to(mask, shape)[at])
                for at in np.ndindex(*lead)}
        raised = [(at, got) for at, got in lone.items() if isinstance(got, tuple)]
        before = logits.copy()
        for out in (None, logits):
            got = softmax_or_error(lambda z, m: row_softmax(z, m, out=out), logits, mask)
            if raised:
                at, (kind, text) = raised[0]
                named = re.sub(r"^row (\d+)", lambda r: f"row {(*at, int(r[1]))}", text) \
                    if at else text
                assert got == (kind, named)
                assert_bitwise(logits, before)
            else:
                assert out is None or got is out
                for at, want in lone.items():
                    assert_bitwise(got[at], want)

    @pytest.mark.parametrize("nan_at, text", [
        ((0, 0, 3), "row (0, 0, 3) has largest logit nan; softmax undefined"),
        ((0, 1, 0), "row (0, 1, 2) is fully masked; softmax undefined"),
    ])
    def test_the_first_matrix_that_raises_names_its_row(self, nan_at, text):
        # matrices (i, 1) read mask[1], whose row 2 is fully masked
        logits = np.zeros((2, 3, 4, 4))
        logits[(*nan_at, 0)] = np.nan
        mask = np.ones((3, 4, 4), dtype=bool)
        mask[1, 2] = False
        with pytest.raises(ValueError) as err:
            row_softmax(logits, mask)
        assert str(err.value) == text

    @pytest.mark.parametrize("mask_shape", [(4, 5), (2, 4, 5), (3, 2, 4, 5), (3, 4, 5), (5,)])
    def test_a_mask_of_other_trailing_axes_is_rejected(self, mask_shape):
        with pytest.raises(ShapeError, match=r"^mask shape .* != logits shape \(3, 2, 4, 4\)$"):
            row_softmax(np.zeros((3, 2, 4, 4)), np.ones(mask_shape, dtype=bool))


class TestRowSoftmaxOut:
    """``row_softmax(..., out=)`` writes bitwise what the allocating call
    returns, into the logits themselves or another buffer, and writes
    nothing when it rejects a row."""

    @settings(max_examples=120, deadline=None)
    @given(rows=st.sampled_from([1, 2, 9, 40]),
           cols=st.sampled_from([1, 3, 8, numeric._SHORT_ROW, numeric._SHORT_ROW + 1, 70]),
           seed=st.integers(0, 2**32 - 1), masked=st.booleans(), minus_inf=st.booleans(),
           into=st.sampled_from(["logits", "buffer"]))
    def test_out_is_bitwise_the_allocating_call(self, rows, cols, seed, masked, minus_inf,
                                                into):
        rng = np.random.default_rng(seed)
        logits = 6.0 * rng.standard_normal((rows, cols))
        if minus_inf:
            logits[rng.random((rows, cols)) < 0.3] = -np.inf
            logits[:, 0] = 1.0  # a finite maximum in every row
        mask = None
        if masked:
            mask = rng.random((rows, cols)) < 0.6
            mask[:, 0] = True
        want = row_softmax(logits, mask)
        out = logits if into == "logits" else np.full((rows, cols), np.nan)
        got = row_softmax(logits, mask, out=out)
        assert got is out
        assert_bitwise(got, want)

    @pytest.mark.parametrize("cols", [3, numeric._SHORT_ROW + 5])
    @pytest.mark.parametrize("fault", ["nan", "+inf", "all -inf", "fully masked"])
    def test_a_rejected_row_raises_before_out_is_written(self, cols, fault):
        logits = np.random.default_rng(1).standard_normal((4, cols))
        mask = np.ones((4, cols), dtype=bool)
        if fault == "fully masked":
            mask[2] = False
        elif fault == "all -inf":
            logits[2] = -np.inf
        else:
            logits[2, 1] = np.nan if fault == "nan" else np.inf
        before = logits.copy()
        with pytest.raises(ValueError, match="^row 2 "):
            row_softmax(logits, mask, out=logits)
        assert_bitwise(logits, before)

    def test_out_of_another_shape_is_rejected(self):
        logits = np.zeros((2, 3))
        with pytest.raises(ShapeError, match=r"out shape \(1, 2, 3\) != logits shape"):
            row_softmax(logits, out=np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("masked", [False, True])
    def test_a_stack_softmax_overwrites_its_logits(self, masked):
        # the attention pass's call: a K x n x n stack of logits that die after it
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 5, 5))
        mask = None
        if masked:
            mask = (rng.random((5, 5)) < 0.5) | np.eye(5, dtype=bool)  # one for every matrix
        want, _ = ad.row_softmax_vjp(logits, mask)
        got, back = ad.row_softmax_vjp(logits, mask, out=logits)
        assert np.shares_memory(got, logits)
        assert_bitwise(got, want)
        assert_bitwise(logits, want)


def act(name, x):
    """The value of the gate activation ``name``'s form."""
    return ad.activation_vjp(name, x)[0]


def mul(a, b):
    """The value of the entrywise product's form."""
    return ad.mul_vjp(a, b)[0]


class TestElementwise:
    """The gate activations as ``autodiff.activation_vjp`` applies them
    entrywise, against hand values and the plain-numpy table in
    ``tests/oracles.py``."""

    def test_sigmoid_at_zero(self):
        assert act("sigmoid", np.zeros((1, 1)))[0, 0] == 0.5

    def test_sigmoid_at_half(self):
        # 1 / (1 + e^{-1/2})
        val = act("sigmoid", np.array([[0.5]]))[0, 0]
        assert val == pytest.approx(0.6224593312018546, abs=1e-12)

    def test_sigmoid_odd_symmetry(self):
        rng = SeededRng(3)
        x = gaussian_matrix(rng, 4, 4, 3.0)
        total = act("sigmoid", x) + act("sigmoid", -x)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_sigmoid_open_interval(self):
        x = np.array([[-30.0, 30.0]])
        out = act("sigmoid", x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_other_activations(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.allclose(act("tanh", x), np.tanh(x))
        assert np.array_equal(act("relu", x), [[0.0, 0.0, 2.0]])
        sig = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(act("sigmoid_squared", x), sig**2, atol=1e-15)
        m = gaussian_matrix(SeededRng(6), 4, 5, 3.0)
        for name, oracle in GATE_ACTIVATIONS.items():
            assert_bitwise(act(name, m), oracle(m))

    def test_unknown_op(self):
        # "identity" is no gate activation: no GateConfig can name it
        for name in ("softplus", "identity"):
            with pytest.raises(ValueError, match=f"unknown activation '{name}'"):
                act(name, np.zeros((1, 1)))


# Beyond |x| = 709.78 exp(|x|) overflows; beyond 745.13 exp(-|x|) is 0.
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, 709.5, -709.5, 710.0, -710.0, 745.2, -745.2,
               800.0, -800.0, 1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7, 1e-17]


class TestSigmoidKernel:
    """``sigmoid`` (one exp) against the two-branch formula, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=30))
    @example(EDGE_VALUES)
    def test_bitwise_equals_two_branch_formula(self, xs):
        x = np.array(xs, dtype=np.float64)
        assert_bitwise(sigmoid(x), two_branch_sigmoid(x))

    @pytest.mark.parametrize("scale", [1.0, 30.0, 400.0, 1000.0])
    def test_matrix_draws(self, scale):
        x = gaussian_matrix(SeededRng(17), 64, 50, scale)
        assert_bitwise(sigmoid(x), two_branch_sigmoid(x))

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_zero_dimensional_input(self, value):
        for x in (value, np.float64(value), np.array(value)):
            got = sigmoid(x)
            assert np.shape(got) == ()
            assert_bitwise(np.asarray(got), two_branch_sigmoid(x))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
    def test_empty_input(self, shape):
        assert_bitwise(sigmoid(np.zeros(shape)), two_branch_sigmoid(np.zeros(shape)))

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()


class TestHadamard:
    """Entrywise products as the gates apply them: ``autodiff.mul_vjp``'s value."""

    def test_ones_identity(self):
        rng = SeededRng(4)
        a = gaussian_matrix(rng, 3, 4, 1.0)
        assert np.array_equal(mul(a, np.ones_like(a)), a)

    def test_zeros(self):
        a = np.full((2, 2), 7.0)
        assert np.array_equal(mul(a, np.zeros_like(a)), np.zeros((2, 2)))

    def test_hand_product(self):
        out = mul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.full((2, 2), 2.0))
        assert np.array_equal(out, [[2.0, 4.0], [6.0, 8.0]])

    def test_commutative_and_associative(self):
        rng = SeededRng(5)
        a = gaussian_matrix(rng, 3, 3, 1.0)
        b = gaussian_matrix(rng, 3, 3, 1.0)
        c = gaussian_matrix(rng, 3, 3, 1.0)
        assert np.array_equal(mul(a, b), mul(b, a))
        assert np.allclose(mul(mul(a, b), c), mul(a, mul(b, c)), atol=1e-15)

    def test_shape_mismatch(self):
        # A gate whose shape differs from its head's output is rejected by name.
        rng = SeededRng(6)
        h = gaussian_matrix(rng, 5, 4, 1.0)
        qkv = [gaussian_matrix(rng, 4, 2, 0.5)[None] for _ in range(3)]
        for w_g, b_g, message in (
            (gaussian_matrix(rng, 4, 3, 0.5)[None], np.zeros((1, 2)),
             r"^w_g has shape \(1, 4, 3\), expected \(1, 4, 2\)$"),
            (gaussian_matrix(rng, 4, 2, 0.5)[None], np.zeros((1, 3)),
             r"^b_g has shape \(1, 3\), expected \(1, 2\)$"),
        ):
            layer = MhsaParams(*qkv, np.eye(2, 4), GateConfig(placement="g1"), w_g=w_g, b_g=b_g)
            with pytest.raises(ShapeError, match=message):
                siggate_mhsa(h, layer)


def _svd_top(m):
    # dense symmetric eigensolver oracle on the Gram matrix
    return float(np.sqrt(np.linalg.eigvalsh(m.T @ m).max()))


class TestTopSingularValue:
    def test_identity(self):
        assert top_singular_value(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert top_singular_value(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_against_eigensolver_oracle(self):
        rng = SeededRng(11)
        for rows, cols in [(8, 5), (5, 8), (13, 13), (64, 64), (64, 17)]:
            m = gaussian_matrix(rng, rows, cols, 1.0)
            expected = _svd_top(m)
            assert top_singular_value(m) == pytest.approx(expected, rel=1e-9)

    def test_transpose_invariance(self):
        rng = SeededRng(12)
        m = gaussian_matrix(rng, 9, 4, 2.0)
        a = top_singular_value(m)
        b = top_singular_value(m.T)
        assert a == pytest.approx(b, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            top_singular_value(np.zeros((3, 3)))

    def test_start_vector_in_null_space(self):
        # Gram matrix of [1, -1] annihilates the all-ones start; the
        # deterministic basis restart must still find sqrt(2).
        assert top_singular_value(np.array([[1.0, -1.0]])) == pytest.approx(
            np.sqrt(2.0), rel=1e-9
        )


    @pytest.mark.parametrize("m, sigma", [
        ([[1.0, -1.0], [1.0, -1.0]], 2.0),
        ([[0.0, 1.0, -1.0]] * 4, np.sqrt(8.0)),
    ])
    def test_rank_one_matrices_whose_gram_annihilates_the_ones_vector(self, m, sigma):
        assert top_singular_value(np.array(m)) == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("shape", [(64, 32), (32, 64), (8, 4), (13, 13)])
    def test_gaussian_draws(self, shape):
        rng = SeededRng(31)
        for _ in range(10):
            m = rng.standard_normal(shape)
            sigma = np.linalg.svd(m, compute_uv=False)[0]
            assert top_singular_value(m) == pytest.approx(sigma, rel=1e-12)

    def test_close_top_singular_values(self):
        # top two singular values 1 : 0.99 and 1 : 1 - 1e-9, known by construction
        rng = SeededRng(34)
        u, _ = np.linalg.qr(rng.standard_normal((8, 6)))
        w, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        for second in (0.99, 1.0 - 1e-9):
            m = u * [1.0, second, 0.5, 0.3, 0.2, 0.1] @ w.T
            assert top_singular_value(m) == pytest.approx(1.0, rel=1e-12)
            assert top_singular_value(m.T) == pytest.approx(1.0, rel=1e-12)

    def test_matrix_whose_squares_overflow(self):
        # its Gram matrix and ||M||_F^2 overflow; it is divided by its largest magnitude first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert top_singular_value(np.full((3, 3), 1e200)) == pytest.approx(3e200, rel=1e-15)
            assert top_singular_value(np.full((2, 5), -1e307)) == \
                pytest.approx(np.sqrt(10.0) * 1e307, rel=1e-15)

    @pytest.mark.parametrize("tiny", [1e-160, 1e-200, 1e-310, 5e-324])
    def test_matrix_whose_squares_underflow(self, tiny):
        # its Gram matrix is subnormal or zero; it is divided by its largest magnitude first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert top_singular_value(np.full((3, 3), tiny)) == pytest.approx(
                3 * tiny, rel=1e-15, abs=0.0)
            assert top_singular_value(np.diag([tiny, -2 * tiny])) == 2 * tiny


class TestAgainstDenseSvd:
    """``top_singular_value`` and ``stable_rank``, lone and stacked, against
    ``np.linalg.svd`` to 1e-12 relative; a stack's values bitwise the lone ones."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 4), rows=st.integers(1, 40), cols=st.integers(1, 40),
           rank=st.integers(1, 40),
           exponents=st.lists(st.integers(-150, 150), min_size=4, max_size=4),
           seed=st.integers(0, 2**64 - 1))
    @example(k=1, rows=1, cols=1, rank=1, exponents=[0] * 4, seed=0)
    @example(k=4, rows=40, cols=40, rank=40, exponents=[150, -150, 0, 150], seed=1)
    @example(k=2, rows=40, cols=3, rank=1, exponents=[-150, 150, 0, 0], seed=2)
    def test_lone_and_stacked_values(self, k, rows, cols, rank, exponents, seed):
        rank = min(rank, rows, cols)  # below min(rows, cols): a rank-deficient matrix
        rng = SeededRng(seed)
        stack = rng.standard_normal((k, rows, rank)) @ rng.standard_normal((k, rank, cols))
        stack *= 10.0 ** np.array(exponents[:k], dtype=float)[:, None, None]
        tops, ranks = top_singular_value(stack), stable_rank(stack)
        for i, m in enumerate(stack):
            sigma = np.linalg.svd(m, compute_uv=False)[0]
            assert_bitwise(tops[i], np.float64(top_singular_value(m)))
            assert_bitwise(ranks[i], np.float64(stable_rank(m)))
            assert abs(tops[i] - sigma) <= 1e-12 * sigma
            want = np.sum(np.square(m / sigma))
            assert abs(ranks[i] - want) <= 1e-12 * want


# matrices whose Gram matrix annihilates the all-ones vector, and their sigma
RANK_ONE_MATRICES = [
    (np.array([[1.0, -1.0], [1.0, -1.0]]), 2.0),
    # the first basis vector is a null vector too
    (np.array([[0.0, 1.0, -1.0]] * 4), np.sqrt(8.0)),
]


class TestStackedTopSingularValue:
    """A stack of matrices in one call: the values and the checks of lone calls."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 9), st.integers(1, 9), st.data())
    def test_bitwise_equals_lone_calls(self, k, rows, cols, data):
        size = k * rows * cols
        values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size))
        stack = np.array(values).reshape(k, rows, cols)
        stack[~stack.any(axis=(1, 2)), 0, 0] = 1.0
        for s in (stack, stack.transpose(0, 2, 1)):
            got = top_singular_value(s)
            assert got.shape == (k,) and got.dtype == np.float64
            for i, m in enumerate(s):
                assert_bitwise(got[i], np.float64(top_singular_value(m)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(len(RANK_ONE_MATRICES))), st.integers(1, 20),
           st.integers(0, 2 ** 32), st.data())
    def test_rank_one_matrices_among_ordinary_ones(self, which, k, seed, data):
        rank_one, sigma = RANK_ONE_MATRICES[which]
        chosen = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        stack = SeededRng(seed).standard_normal((k,) + rank_one.shape)
        stack[chosen] = rank_one
        got = top_singular_value(stack)
        for i, m in enumerate(stack):
            assert_bitwise(got[i], np.float64(top_singular_value(m)))
        assert np.all(got[chosen] == pytest.approx(sigma, rel=1e-12))

    def test_matrix_whose_squares_overflow_among_ordinary_ones(self):
        ordinary = SeededRng(33).standard_normal((2, 3, 3))
        stack = np.stack([ordinary[0], np.full((3, 3), 1e200), ordinary[1]])
        got = top_singular_value(stack)
        assert got[1] == top_singular_value(stack[1])
        assert got[1] == pytest.approx(3e200, rel=1e-15)
        for i in (0, 2):
            assert_bitwise(got[i], np.float64(top_singular_value(stack[i])))

    def test_matrix_whose_squares_underflow_among_ordinary_ones(self):
        ordinary = SeededRng(33).standard_normal((2, 3, 3))
        stack = np.stack([ordinary[0], np.full((3, 3), 1e-200), ordinary[1]])
        got = top_singular_value(stack)
        assert got[1] == top_singular_value(stack[1])
        assert got[1] == pytest.approx(3e-200, rel=1e-15, abs=0.0)
        for i in (0, 2):
            assert_bitwise(got[i], np.float64(top_singular_value(stack[i])))

    @pytest.mark.parametrize("shape", [(0, 3, 2), (0, 0, 3)])
    def test_empty_stack_gives_no_values(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = top_singular_value(np.zeros(shape))
        assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("bad, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_finite_matrix_named(self, bad, text):
        stack = np.ones((5, 2, 3))
        stack[1, 1, 2] = 0.0
        stack[3, 0, 1] = bad
        stack[4, 0, 0] = np.nan
        with pytest.raises(NonFiniteInputError, match=rf"^top_singular_value undefined: "
                                                      rf"matrix 3: entry \(0, 1\) is {text}$"):
            top_singular_value(stack)

    def test_zero_matrix_named(self):
        stack = np.ones((4, 3, 3))
        stack[2] = 0.0
        with pytest.raises(ValueError, match="^top_singular_value undefined: matrix 2 is the "
                                             "zero matrix$"):
            top_singular_value(stack)
        with pytest.raises(ValueError, match="matrix 0 is the zero matrix$"):
            top_singular_value(np.ones((2, 0, 3)))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2, 2)])
    def test_neither_a_matrix_nor_a_stack_rejected(self, shape):
        with pytest.raises(ShapeError, match=rf"^m must be 2-D or a 3-D stack of matrices, "
                                             rf"got shape {re.escape(str(shape))}$"):
            top_singular_value(np.ones(shape))


class TestGaussianMatrix:
    def test_std_must_be_positive(self):
        rng = SeededRng(0)
        with pytest.raises(ValueError, match="std must be positive"):
            gaussian_matrix(rng, 2, 2, 0.0)
        with pytest.raises(ValueError):
            gaussian_matrix(rng, 2, 2, -1.0)

    def test_unit_variance_in_bounds(self):
        m = gaussian_matrix(SeededRng(0), 64, 256, 1.0)
        assert 0.95 <= m.var() <= 1.05

    def test_same_seed_identical(self):
        a = gaussian_matrix(SeededRng(42), 16, 16, 1.0)
        b = gaussian_matrix(SeededRng(42), 16, 16, 1.0)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gaussian_matrix(SeededRng(0), 32, 32, 1.0)
        b = gaussian_matrix(SeededRng(1), 32, 32, 1.0)
        assert np.mean(a != b) >= 0.99


class TestSeededRng:
    def test_bitwise_reproducible_streams(self):
        a = SeededRng(123)
        b = SeededRng(123)
        assert np.array_equal(a.standard_normal((100,)), b.standard_normal((100,)))
        assert np.array_equal(a.uniform((50,)), b.uniform((50,)))

    def test_normal_moments_over_a_million_draws(self):
        z = SeededRng(0).standard_normal((1_000_000,))
        assert abs(z.mean()) <= 0.01
        assert abs(z.var() - 1.0) <= 0.02

    def test_uniform_range(self):
        u = SeededRng(9).uniform((10_000,))
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_multi_call_sequences_are_reproducible(self):
        # the counter advances deterministically, so any call pattern
        # replays bitwise on a fresh generator with the same seed
        r1 = SeededRng(7)
        seq1 = [r1.standard_normal((4,)), r1.uniform((3,)), r1.standard_normal((6,))]
        r2 = SeededRng(7)
        seq2 = [r2.standard_normal((4,)), r2.uniform((3,)), r2.standard_normal((6,))]
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("draw, arg, bad", [
        ("uniform", (-1,), -1), ("uniform", (2, -3), -3),
        ("standard_normal", (-3,), -3), ("standard_normal", (-1, -3), -1),
        ("normal_blocks", [4, -2], -2), ("normal_blocks", [-1], -1),
    ])
    def test_a_negative_size_raises_before_drawing(self, draw, arg, bad):
        rng, fresh = SeededRng(1), SeededRng(1)
        rng.uniform((2,))
        fresh.uniform((2,))
        with pytest.raises(ShapeError, match=rf"non-negative, got {bad}\b"):
            getattr(rng, draw)(arg)
        assert rng._counter == 2
        assert_bitwise(rng.standard_normal((5,)), fresh.standard_normal((5,)))

    @pytest.mark.parametrize("draw, arg, bad", [
        ("uniform", (2.7,), 2.7), ("standard_normal", 2.9, 2.9), ("normal_blocks", [2.5], 2.5),
    ])
    def test_a_size_that_is_not_whole_raises_before_drawing(self, draw, arg, bad):
        rng, fresh = SeededRng(1), SeededRng(1)
        with pytest.raises(ShapeError, match=rf"must be integral and non-negative, got {bad}\b"):
            getattr(rng, draw)(arg)
        assert rng._counter == 0
        assert_bitwise(rng.uniform((3,)), fresh.uniform((3,)))

    def test_numpy_shapes_draw_like_tuples(self):
        rng, fresh = SeededRng(4), SeededRng(4)
        assert_bitwise(rng.uniform(np.array([2, 3])), fresh.uniform((2, 3)))
        assert_bitwise(rng.standard_normal(np.int64(5)), fresh.standard_normal((5,)))
        assert_bitwise(rng.standard_normal(np.array(3)), fresh.standard_normal(3))

    def test_size_zero_draws_nothing(self):
        rng = SeededRng(1)
        assert rng.uniform((0,)).shape == (0,) and rng.standard_normal((2, 0)).shape == (2, 0)
        assert [b.shape for b in rng.normal_blocks([0, 0])] == [(0,), (0,)]
        assert rng._counter == 0


class TestNormalBlocks:
    """``normal_blocks`` draws consecutive ``standard_normal`` calls in one pass."""

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 41), min_size=1, max_size=12),
           skip=st.integers(0, 9), seed=st.integers(0, 2**64 - 1))
    @example(sizes=[1], skip=0, seed=0)
    @example(sizes=[3, 1, 1, 5, 2], skip=3, seed=5)
    def test_one_pass_equals_sequential_calls_bitwise(self, sizes, skip, seed):
        one_pass, calls, oracle = SeededRng(seed), SeededRng(seed), SeededRng(seed)
        for rng in (one_pass, calls, oracle):
            if skip:  # start the blocks at a non-zero counter
                rng.uniform((skip,))
        got = one_pass.normal_blocks(sizes)
        assert [g.shape for g in got] == [(n,) for n in sizes]
        for block, n in zip(got, sizes):
            assert_bitwise(block, calls.standard_normal((n,)))
            assert_bitwise(block, concatenated_box_muller(oracle, n))
        assert one_pass._counter == calls._counter == oracle._counter

    @pytest.mark.parametrize("sizes", [[1], [2], [7], [8192], [3, 1, 1, 5, 2], [64, 7, 1, 256],
                                       [1] * 9, [0], [3, 0, 2], [16384], [16384, 8192, 8192],
                                       [8191, 4097, 3]])
    def test_single_and_multi_block_lists_equal_the_oracle(self, sizes):
        rng, oracle = SeededRng(2**64 - 11), SeededRng(2**64 - 11)
        rng.uniform((3,))
        oracle._counter += 3
        for block, n in zip(rng.normal_blocks(sizes), sizes):
            assert_bitwise(block, concatenated_box_muller(oracle, n))
        assert rng._counter == oracle._counter

    def test_cos_takes_the_angles_in_order_of_their_leading_bits(self, monkeypatch):
        # libm's cos and sin branch on the angle's range; ordered angles keep
        # those branches predictable (the key is u2's top 8 of 53 bits)
        expected = concatenated_box_muller(SeededRng(9101), 8192)
        seen, cos = [], np.cos
        monkeypatch.setattr(numeric.np, "cos", lambda x: seen.append(x.copy()) or cos(x))
        assert_bitwise(SeededRng(9101).normal_blocks([8192])[0], expected)
        u2 = splitmix64(9101, 4096, 4096) >> np.uint64(11)
        angle, key = u2.astype(np.float64) / 2.0**53 * (2.0 * np.pi), u2 >> np.uint64(45)
        (got,) = seen
        by_angle = np.argsort(angle)
        assert_bitwise(np.sort(got), angle[by_angle])
        got_key = key[by_angle][np.searchsorted(angle[by_angle], got)]
        assert np.all(np.diff(got_key.astype(np.int64)) >= 0)
        assert np.unique(key).size > 200  # the draw covers most of the 256 keys

    @given(seed=st.integers(0, 2**64 - 1), skip=st.integers(0, 2**40), count=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_raw_outputs_are_splitmix64_in_exact_integers(self, seed, skip, count):
        rng = SeededRng(seed)
        rng._counter = skip
        assert_bitwise(rng._raw(count), splitmix64(seed, skip, count))
        assert rng._counter == skip + count

    def test_fill_gaussian_writes_each_strided_view_in_place(self):
        rng, oracle = SeededRng(31), SeededRng(31)
        vector = np.zeros(2 * 3 * 4 + 5)
        stack = vector[:24].reshape(3, 2, 4)[:, 1]  # strided: every other row
        tail = vector[24:].reshape(5, 1)
        fill_gaussian(rng, [(stack, 0.5), (tail, 3.0)])
        assert_bitwise(stack, 0.5 * concatenated_box_muller(oracle, 12).reshape(3, 4))
        assert_bitwise(tail, 3.0 * concatenated_box_muller(oracle, 5).reshape(5, 1))
        assert not vector[:24].reshape(3, 2, 4)[:, 0].any()  # the rows between stay 0

    def test_standard_normal_keeps_its_per_call_formula(self):
        rng, oracle = SeededRng(77), SeededRng(77)
        assert_bitwise(rng.standard_normal((3, 5)),
                       concatenated_box_muller(oracle, 15).reshape(3, 5))
        assert rng.standard_normal() == concatenated_box_muller(oracle, 1)[0]


class TestWriteCsv:
    def test_cells_and_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "name,count,value", [
            ("a", 3, 0.1), ("b", np.int64(-7), np.float64(1.0) / 3.0),
            ("c", 10**20, float("nan")), ("d", 0, float("-inf")),
        ])
        assert path.read_bytes() == (
            b"name,count,value\n"
            b"a,3,0.10000000000000001\n"
            b"b,-7,0.33333333333333331\n"
            b"c,100000000000000000000,nan\n"
            b"d,0,-inf\n"
        )

    def test_every_float_reads_back(self, tmp_path):
        values = gaussian_matrix(SeededRng(8), 5, 4, 1e3).ravel().tolist() + [5e-324, 1e308]
        path = tmp_path / "t.csv"
        write_csv(path, "x", [(v,) for v in values])
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "x" and lines[-1] == ""
        assert [float(x) for x in lines[1:-1]] == values

    def test_no_rows_writes_the_header_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", iter(()))
        assert path.read_bytes() == b"a,b\n"


class TestReadLines:
    def test_reads_back_what_write_lines_wrote(self, tmp_path):
        lines = ["2 1 0", "", "  0.5 \u00b2", "# d = 4"]
        path = tmp_path / "t.txt"
        write_lines(path, lines)
        assert read_lines(path) == lines

    @pytest.mark.parametrize("data, lines", [(b"", []), (b"a\nb", ["a", "b"]),
                                             (b"a\r\n\nb\n", ["a", "", "b"])])
    def test_each_line_without_its_newline(self, tmp_path, data, lines):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        assert read_lines(path) == lines


# Rejections that no other test reaches: each raise statement's type and text.
@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: row_softmax(np.zeros(3)), ShapeError,
                 "logits must be 2-D or a stack of matrices, got shape (3,)", id="softmax-1d"),
    pytest.param(lambda: gaussian_matrix(SeededRng(0), 0, 3, 1.0), ShapeError,
                 "matrix dimensions must be positive, got 0x3", id="gaussian-dims"),
    pytest.param(lambda: fill_gaussian(SeededRng(0), [(np.zeros(2), 1.0), (np.zeros(2), -0.5)]),
                 ValueError, "std must be positive, got -0.5", id="fill-std"),
    pytest.param(lambda: carve(lambda take: take(3, 0)), ShapeError,
                 "matrix dimensions must be positive, got 3x0", id="carve-dims"),
])
def test_each_rejection_gives_its_type_and_text(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message
