import numpy as np
import numpy.testing as npt
import pytest

from pctl.autodiff import (
    Tensor,
    absolute,
    clamp,
    concat,
    conv3d,
    cumprod,
    exp,
    fresh_tape,
    log,
    matmul,
    no_grad,
    power,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
    softplus,
    transpose,
)
from pctl.errors import ContractError, DimensionError, DomainError

from helpers import check_grads, rel_err


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(matmul(a, b).data, b.data)

    def test_selector_row(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
        npt.assert_array_equal(out.data, [[5.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        check_grads(lambda: reduce_sum(matmul(a, b) * Tensor(rng_fixed(7, (3, 2)))),
                    [a, b], tol=1e-6)


def rng_fixed(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


class TestElementwise:
    def test_add(self):
        npt.assert_array_equal((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_pow_scalar(self):
        npt.assert_allclose(power(Tensor([4.0]), 0.5).data, [2.0])

    def test_mul_gradient(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        check_grads(lambda: reduce_sum(a * b), [a, b], tol=1e-6)

    def test_div_by_zero_rejected(self):
        with pytest.raises(DomainError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_of_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            log(Tensor([1.0, 0.0]))

    def test_broadcast_row_gradient(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((4, 3)))
        row = Tensor(rng.standard_normal((1, 3)))
        check_grads(lambda: reduce_sum(a * row + row), [a, row], tol=1e-6)

    def test_tensor_exponent_gradient(self):
        rng = np.random.default_rng(5)
        base = Tensor(rng.uniform(0.2, 0.9, (3, 4)))
        expo = Tensor(rng.uniform(0.5, 2.0, (1, 4)))
        check_grads(lambda: reduce_sum(power(base, expo)), [base, expo], tol=1e-6)

    def test_abs_and_clamp_gradients(self):
        a = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]))
        check_grads(lambda: reduce_sum(absolute(a) * a), [a], tol=1e-6)
        b = Tensor(np.array([-2.0, 0.3, 0.9, 4.0]))
        check_grads(lambda: reduce_sum(clamp(b, 0.0, 1.0) * b), [b], tol=1e-6)


class TestSigmoidSoftplus:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).item() == 0.5

    def test_sigmoid_saturation(self):
        assert abs(sigmoid(Tensor([50.0])).item() - 1.0) < 1e-15

    @pytest.mark.parametrize("x", [-2.0, 0.0, 3.0])
    def test_sigmoid_gradient(self, x):
        t = Tensor([x])
        check_grads(lambda: reduce_sum(sigmoid(t)), [t], tol=1e-6)

    def test_softplus_at_zero(self):
        npt.assert_allclose(softplus(Tensor([0.0])).item(), np.log(2.0), rtol=1e-12)

    def test_softplus_large_input_is_stable(self):
        assert abs(softplus(Tensor([100.0])).item() - 100.0) < 1e-12

    def test_softplus_gradient_is_sigmoid(self):
        t = Tensor([1.5], requires_grad=True)
        with fresh_tape():
            reduce_sum(softplus(t)).backward()
        expected = 1.0 / (1.0 + np.exp(-1.5))
        assert abs(t.grad[0] - expected) < 1e-8


class TestConv3d:
    def test_counting_case(self):
        x = Tensor(np.ones((1, 3, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3, 3)))
        out = conv3d(x, k)
        assert out.shape == (1, 1, 1, 1)
        npt.assert_allclose(out.data.reshape(1, 1), [[27.0]])

    def test_zero_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 5, 5)))
        k = Tensor(np.zeros((3, 2, 3, 3, 3)))
        npt.assert_array_equal(conv3d(x, k).data, 0.0)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            conv3d(Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones((1, 1, 3, 3, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 4, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
        w = rng.standard_normal((3, 4, 3, 3))

        def loss():
            return reduce_sum(conv3d(x, k, padding=(1, 0, 0)) * Tensor(w))

        check_grads(loss, [x, k], tol=1e-5)

    def test_stride_and_batch(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 2, 5, 6, 6)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
        out = conv3d(x, k, stride=(1, 2, 2), padding=1)
        assert out.shape == (2, 3, 5, 3, 3)
        w = rng.standard_normal(out.shape)
        check_grads(lambda: reduce_sum(conv3d(x, k, stride=(1, 2, 2), padding=1)
                                       * Tensor(w)), [x, k], tol=1e-5)


class TestReductions:
    def test_cumprod_exclusive_prefix(self):
        out = cumprod(Tensor([0.5, 0.5, 0.5]), exclusive=True)
        npt.assert_array_equal(out.data, [1.0, 0.5, 0.25])

    def test_cumprod_exclusive_head_is_exactly_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal((4, 6))
            out = cumprod(Tensor(v), axis=1, exclusive=True)
            assert np.all(out.data[:, 0] == 1.0)

    def test_sum_axis(self):
        npt.assert_array_equal(
            reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=1).data, [3.0, 7.0])

    def test_mean_keepdims(self):
        out = reduce_mean(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0, keepdims=True)
        npt.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_cumprod_gradient_with_zero_entry(self):
        x = np.array([[0.3, 0.0, 0.8, 0.5], [0.2, 0.9, 0.0, 0.1]])
        w = np.random.default_rng(13).standard_normal(x.shape)
        for exclusive in (False, True):
            t = Tensor(x.copy())
            check_grads(lambda: reduce_sum(cumprod(t, axis=1, exclusive=exclusive)
                                           * Tensor(w)), [t], tol=1e-5)

    def test_cumprod_matches_numpy(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 1.0, (3, 5))
        npt.assert_allclose(cumprod(Tensor(x), axis=1).data, np.cumprod(x, axis=1))


class TestShapeOps:
    def test_reshape_transpose_concat_gradients(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal((2, 3, 4)))
        w = rng.standard_normal((2, 8, 3))

        def loss():
            joined = concat([a, b], axis=2)
            moved = transpose(joined, (0, 2, 1))
            return reduce_sum(moved * Tensor(w))

        check_grads(loss, [a, b], tol=1e-6)
        c = Tensor(rng.standard_normal((6, 4)))
        check_grads(lambda: reduce_sum(reshape(c, (2, 12)) * Tensor(w[0, :, :].reshape(2, 12))),
                    [c], tol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with fresh_tape():
            reduce_sum(w).backward()
        npt.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_gradient(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        with fresh_tape():
            reduce_sum(w * w).backward()
        npt.assert_array_equal(w.grad, [2.0, -4.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with fresh_tape():
            out = w * w
            with pytest.raises(ContractError):
                out.backward()

    def test_loss_not_on_tape_rejected(self):
        w = Tensor([2.0], requires_grad=True)
        with fresh_tape():
            with no_grad():
                out = reduce_sum(w * w)
            with pytest.raises(ContractError):
                out.backward()

    def test_unreachable_leaf_keeps_no_grad(self):
        w = Tensor([1.0], requires_grad=True)
        u = Tensor([5.0], requires_grad=True)
        with fresh_tape():
            _side = u * u
            reduce_sum(w * w).backward()
        assert u.grad is None
        npt.assert_array_equal(w.grad, [2.0])

    def test_accumulation_matches_joint_backward(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal(5)
        w = Tensor(data.copy(), requires_grad=True)
        with fresh_tape():
            l1 = reduce_sum(w * w)
            l2 = reduce_sum(exp(w))
            (l1 + l2).backward()
        joint = w.grad.copy()

        w.zero_grad()
        with fresh_tape():
            reduce_sum(w * w).backward()
        with fresh_tape():
            reduce_sum(exp(w)).backward()
        npt.assert_allclose(w.grad, joint, atol=1e-12)

    def test_repeated_backward_is_bit_identical(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((4, 3))

        def run():
            t = Tensor(data.copy(), requires_grad=True)
            with fresh_tape():
                loss = reduce_sum(sigmoid(matmul(t, transpose(t, (1, 0)))))
                loss.backward()
            return t.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_topological_tape_order(self):
        a = Tensor([1.0], requires_grad=True)
        with fresh_tape() as tape:
            b = a * a
            c = b + a
            _d = reduce_sum(c * b)
            for nid, node in enumerate(tape.nodes):
                for parent in node.parents:
                    assert parent.node_id is None or parent.node_id < nid


class TestNoGrad:
    def test_no_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with fresh_tape() as tape:
            with no_grad():
                out = w * w
            assert out.node_id is None and not out.requires_grad
            assert len(tape.nodes) == 0


class TestRandomizedGradients:
    """Finite-difference agreement across a basket of ops on 10 seeds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_expression(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = Tensor(rng.uniform(0.2, 2.0, (3, 4)))
        b = Tensor(rng.standard_normal((4, 3)))

        def loss():
            z = matmul(a, b)
            z = sigmoid(z) + softplus(z) * 0.5
            z = z * relu(z) + exp(clamp(z, -2.0, 2.0))
            return reduce_mean(z) + reduce_sum(log(a)) * 0.1

        worst = check_grads(loss, [a, b], tol=1e-4)
        assert worst < 1e-4
