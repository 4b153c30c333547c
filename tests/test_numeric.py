import numpy as np
import pytest

from siggate.numeric import (
    SeededRng,
    ShapeError,
    elementwise,
    gaussian_matrix,
    hadamard,
    matmul,
    row_softmax,
    top_singular_value,
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


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert elementwise("sigmoid", np.zeros((1, 1)))[0, 0] == 0.5

    def test_sigmoid_at_half(self):
        # 1 / (1 + e^{-1/2})
        val = elementwise("sigmoid", np.array([[0.5]]))[0, 0]
        assert val == pytest.approx(0.6224593312018546, abs=1e-12)

    def test_sigmoid_odd_symmetry(self):
        rng = SeededRng(3)
        x = gaussian_matrix(rng, 4, 4, 3.0)
        total = elementwise("sigmoid", x) + elementwise("sigmoid", -x)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_sigmoid_open_interval(self):
        x = np.array([[-30.0, 30.0]])
        out = elementwise("sigmoid", x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_other_activations(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.allclose(elementwise("tanh", x), np.tanh(x))
        assert np.array_equal(elementwise("relu", x), [[0.0, 0.0, 2.0]])
        sig = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(elementwise("sigmoid_squared", x), sig**2, atol=1e-15)
        assert np.array_equal(elementwise("identity", x), x)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown elementwise op"):
            elementwise("softplus", np.zeros((1, 1)))


class TestHadamard:
    def test_ones_identity(self):
        rng = SeededRng(4)
        a = gaussian_matrix(rng, 3, 4, 1.0)
        assert np.array_equal(hadamard(a, np.ones_like(a)), a)

    def test_zeros(self):
        a = np.full((2, 2), 7.0)
        assert np.array_equal(hadamard(a, np.zeros_like(a)), np.zeros((2, 2)))

    def test_hand_product(self):
        out = hadamard([[1.0, 2.0], [3.0, 4.0]], [[2.0, 2.0], [2.0, 2.0]])
        assert np.array_equal(out, [[2.0, 4.0], [6.0, 8.0]])

    def test_commutative_and_associative(self):
        rng = SeededRng(5)
        a = gaussian_matrix(rng, 3, 3, 1.0)
        b = gaussian_matrix(rng, 3, 3, 1.0)
        c = gaussian_matrix(rng, 3, 3, 1.0)
        assert np.array_equal(hadamard(a, b), hadamard(b, a))
        assert np.allclose(hadamard(hadamard(a, b), c), hadamard(a, hadamard(b, c)),
                           atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="shapes differ"):
            hadamard(np.zeros((2, 2)), np.zeros((2, 3)))


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

    def test_children_are_independent_streams(self):
        parent = SeededRng(5)
        c0 = parent.child(0)
        c1 = parent.child(1)
        z0 = c0.standard_normal((64,))
        z1 = c1.standard_normal((64,))
        assert not np.array_equal(z0, z1)
        # deterministic derivation
        again = SeededRng(5).child(0).standard_normal((64,))
        assert np.array_equal(z0, again)

    def test_multi_call_sequences_are_reproducible(self):
        # the counter advances deterministically, so any call pattern
        # replays bitwise on a fresh generator with the same seed
        r1 = SeededRng(7)
        seq1 = [r1.standard_normal((4,)), r1.uniform((3,)), r1.standard_normal((6,))]
        r2 = SeededRng(7)
        seq2 = [r2.standard_normal((4,)), r2.uniform((3,)), r2.standard_normal((6,))]
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a, b)
