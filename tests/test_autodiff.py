import numpy as np
import pytest

from siggate import autodiff as ad
from siggate.numeric import SeededRng, gaussian_matrix


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
        assert isinstance(ad.sigmoid(a), np.ndarray)

    def test_square_at_three_has_gradient_six(self):
        w = ad.Var(np.array(3.0))
        out = ad.square(w)
        ad.backward(out)
        assert w.grad == pytest.approx(6.0)

    def test_add_mul_broadcasting(self, rng):
        a = gaussian_matrix(rng, 4, 3, 1.0)
        b = gaussian_matrix(rng, 1, 3, 1.0).reshape(3)  # (3,) row broadcast
        c = gaussian_matrix(rng, 4, 1, 1.0)
        check_grads(lambda x, y, z: ad.vsum(ad.mul(ad.add(x, y), z)), [a, b, c])

    def test_sub_div(self, rng):
        a = gaussian_matrix(rng, 3, 3, 1.0)
        b = gaussian_matrix(rng, 3, 3, 1.0) + 3.0
        check_grads(lambda x, y: ad.vsum(ad.div(ad.sub(x, y), y)), [a, b])

    def test_matmul_transpose(self, rng):
        a = gaussian_matrix(rng, 4, 3, 1.0)
        b = gaussian_matrix(rng, 3, 5, 1.0)
        check_grads(lambda x, y: ad.vsum(ad.square(ad.matmul(x, y))), [a, b])
        check_grads(lambda x: ad.vsum(ad.matmul(ad.transpose(x), x)), [a])

    def test_stacked_matmul_and_transpose(self, rng):
        a = gaussian_matrix(rng, 6, 3, 1.0).reshape(2, 3, 3)
        b = gaussian_matrix(rng, 6, 4, 1.0).reshape(2, 3, 4)
        check_grads(lambda x, y: ad.vsum(ad.square(ad.bmm(x, y))), [a, b])
        check_grads(lambda x: ad.vsum(ad.square(ad.bmm(ad.transpose(x), x))), [b])
        for i in range(2):
            assert np.array_equal(ad.bmm(a, b)[i], a[i] @ b[i])
            assert np.array_equal(ad.transpose(b)[i], b[i].T)
        assert np.array_equal(ad.bmm(a[0], b[0]), ad.matmul(a[0], b[0]))

    def test_mixed_var_and_plain(self, rng):
        a = gaussian_matrix(rng, 3, 3, 1.0)
        fixed = gaussian_matrix(rng, 3, 3, 1.0)
        check_grads(lambda x: ad.vsum(ad.mul(ad.matmul(x, fixed), 2.0)), [a])

    def test_diamond_accumulation(self):
        x = ad.Var(np.array([2.0]))
        out = ad.vsum(ad.add(ad.mul(x, x), x))  # x^2 + x
        ad.backward(out)
        assert x.grad[0] == pytest.approx(5.0)

    def test_operator_overloads(self, rng):
        a = gaussian_matrix(rng, 2, 2, 1.0)
        v = ad.Var(a)
        out = ad.vsum((v + 1.0) * v - v / 2.0 + (-v))
        ad.backward(out)
        expected = 2.0 * a + 1.0 - 0.5 - 1.0
        assert np.allclose(v.grad, expected, atol=1e-12)

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
        check_grads(lambda x, y: ad.vsum(ad.square(ad.concat([x, y], axis=1))), [a, b])

    def test_take_rows_with_duplicates(self, rng):
        a = gaussian_matrix(rng, 5, 3, 1.0)
        idx = np.array([0, 2, 2, 4])
        w = gaussian_matrix(rng, 4, 3, 1.0)
        check_grads(lambda x: ad.vsum(ad.mul(ad.take_rows(x, idx), w)), [a])

    def test_scatter_rows(self, rng):
        a = gaussian_matrix(rng, 4, 3, 1.0)
        idx = np.array([1, 1, 0, 3])
        w = gaussian_matrix(rng, 5, 3, 1.0)
        check_grads(lambda x: ad.vsum(ad.mul(ad.scatter_rows(x, idx, 5), w)), [a])


class TestNonlinearities:
    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.exp, ad.erf, ad.gelu,
                                    ad.square, ad.absolute])
    def test_unary_grads(self, op, rng):
        a = gaussian_matrix(rng, 3, 4, 1.0) + 0.1  # keep abs away from its kink
        check_grads(lambda x: ad.vsum(op(x)), [a])

    def test_relu_grad_off_kink(self, rng):
        a = gaussian_matrix(rng, 3, 4, 1.0)
        a[np.abs(a) < 1e-3] = 0.5
        check_grads(lambda x: ad.vsum(ad.relu(x)), [a])

    def test_log_sqrt(self, rng):
        a = np.abs(gaussian_matrix(rng, 3, 3, 1.0)) + 0.5
        check_grads(lambda x: ad.vsum(ad.log(x)), [a])
        check_grads(lambda x: ad.vsum(ad.sqrt(x)), [a])

    def test_apply_activation_matches_named_ops(self, rng):
        a = gaussian_matrix(rng, 2, 3, 1.0)
        sig = 1.0 / (1.0 + np.exp(-a))
        assert np.allclose(ad.apply_activation("sigmoid", a), sig)
        assert np.allclose(ad.apply_activation("sigmoid_squared", a), sig**2)
        assert np.array_equal(ad.apply_activation("identity", a), a)
        with pytest.raises(ValueError):
            ad.apply_activation("softmax", a)


class TestRowSoftmaxGrad:
    def test_unmasked(self, rng):
        a = gaussian_matrix(rng, 4, 5, 1.0)
        w = gaussian_matrix(rng, 4, 5, 1.0)
        check_grads(lambda x: ad.vsum(ad.mul(ad.row_softmax(x), w)), [a])

    def test_masked(self, rng):
        a = gaussian_matrix(rng, 4, 5, 1.0)
        mask = rng.uniform((4, 5)) > 0.4
        mask[:, 0] = True
        w = gaussian_matrix(rng, 4, 5, 1.0)
        check_grads(lambda x: ad.vsum(ad.mul(ad.row_softmax(x, mask), w)), [a])
        # masked logits must receive exactly zero gradient
        v = ad.Var(a)
        out = ad.vsum(ad.mul(ad.row_softmax(v, mask), w))
        ad.backward(out)
        assert np.all(v.grad[~mask] == 0.0)

    def test_stack_runs_as_its_rows(self, rng):
        a = gaussian_matrix(rng, 6, 3, 1.0)
        mask = rng.uniform((6, 3)) > 0.4
        mask[:, 1] = True
        w = gaussian_matrix(rng, 6, 3, 1.0).reshape(2, 3, 3)
        stacked = ad.row_softmax(a.reshape(2, 3, 3), mask)
        assert np.array_equal(stacked.reshape(6, 3), ad.row_softmax(a, mask))
        check_grads(lambda x: ad.vsum(ad.mul(ad.row_softmax(x, mask), w)),
                    [a.reshape(2, 3, 3)])
