import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff as ad
from pctl.autodiff import Tensor, fresh_tape
from pctl.errors import ConfigError, ContractError, DimensionError
from pctl.gradcheck import fd_check
from pctl.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    BatchNorm3d,
    DenseLayer,
    Dropout,
    glorot_uniform,
    one_hot,
    softmax,
    softmax_cross_entropy,
)


class TestDenseLayer:
    def test_identity_weights_pass_input_through(self):
        layer = DenseLayer(3, 3, np.random.default_rng(0), activation="none")
        layer.weight.data = np.eye(3)
        layer.bias.data = np.zeros(3)
        x = np.random.default_rng(0).standard_normal((5, 3))
        npt.assert_array_equal(layer(Tensor(x)).data, x)

    def test_relu_activation(self):
        layer = DenseLayer(2, 2, np.random.default_rng(0), activation="relu")
        layer.weight.data = np.eye(2)
        layer.bias.data = np.zeros(2)
        npt.assert_array_equal(layer(Tensor([[-1.0, 2.0]])).data, [[0.0, 2.0]])

    def test_bias_starts_zero_and_weight_bounded(self):
        rng = np.random.default_rng(1)
        layer = DenseLayer(20, 30, rng=rng)
        assert np.all(layer.bias.data == 0.0)
        bound = np.sqrt(6.0 / 50.0)
        assert np.all(np.abs(layer.weight.data) <= bound)

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionError):
            DenseLayer(3, 2, np.random.default_rng(0))(Tensor(np.zeros((4, 5))))

    def test_two_layer_stack_gradient(self):
        rng = np.random.default_rng(2)
        l1 = DenseLayer(4, 6, activation="relu", rng=rng)
        l2 = DenseLayer(6, 2, activation="sigmoid", rng=rng)
        x = Tensor(rng.standard_normal((3, 4)))
        params = [l1.weight, l1.bias, l2.weight, l2.bias, x]
        assert fd_check(lambda: ad.reduce_sum(l2(l1(x))), params) < 1e-5


class TestSoftmaxCrossEntropy:
    def test_uniform_case(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0]]))
        npt.assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)

    def test_confident_correct(self):
        loss = softmax_cross_entropy(Tensor([[100.0, 0.0]]), Tensor([[1.0, 0.0]]))
        assert 0.0 <= loss.item() < 1e-12

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = Tensor(rng.standard_normal((4, 5)) * 10)
            labels = Tensor(one_hot(rng.integers(0, 5, 4), 5))
            assert softmax_cross_entropy(logits, labels).item() >= 0.0

    def test_gradient_is_softmax_minus_labels(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = Tensor(one_hot(rng.integers(0, 4, 3), 4))
        with fresh_tape():
            softmax_cross_entropy(logits, labels).backward()
        expected = (softmax(logits.data) - labels.data) / 3.0
        npt.assert_allclose(logits.grad, expected, atol=1e-8)

    def test_bad_label_row_rejected(self):
        with pytest.raises(ContractError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), Tensor([[0.6, 0.6]]))


class TestDropout:
    def test_rate_zero_is_identity(self):
        d = Dropout(0.0, np.random.default_rng(0))
        x = Tensor(np.ones((3, 3)))
        assert d(x, train=True) is x
        assert d(x, train=False) is x

    def test_inference_is_identity(self):
        d = Dropout(0.5, np.random.default_rng(0))
        x = Tensor(np.ones((3, 3)))
        assert d(x, train=False) is x

    def test_survivor_fraction(self):
        d = Dropout(0.5, rng=np.random.default_rng(5))
        x = Tensor(np.ones(10 ** 5))
        out = d(x, train=True)
        frac = np.count_nonzero(out.data) / x.size
        assert 0.49 <= frac <= 0.51

    def test_expectation_preserved(self):
        d = Dropout(0.3, rng=np.random.default_rng(6))
        x = Tensor(np.full(64, 2.0))
        acc = np.zeros(64)
        for _ in range(10 ** 4):
            acc += d(x, train=True).data
        npt.assert_allclose(acc / 10 ** 4, 2.0, rtol=0.02)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            Dropout(1.0, np.random.default_rng(0))


class TestBatchNorm3d:
    def test_train_mode_normalizes_per_channel(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm3d(4)
        x = Tensor(rng.standard_normal((6, 4, 2, 3, 3)) * 5 + 2)
        out = bn(x, train=True)  # gamma=1, beta=0 leaves the normalized values
        per_channel = out.data.transpose(1, 0, 2, 3, 4).reshape(4, -1)
        assert np.all(np.abs(per_channel.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(per_channel.var(axis=1) - 1.0) < 1e-5)

    def test_inference_is_pure_function_of_running_stats(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm3d(2)
        for _ in range(5):
            bn(Tensor(rng.standard_normal((4, 2, 2, 2, 2))), train=True)
        x = Tensor(rng.standard_normal((3, 2, 2, 2, 2)))
        o1 = bn(x, train=False).data
        o2 = bn(x, train=False).data
        npt.assert_array_equal(o1, o2)
        expected = (x.data - bn.running_mean.reshape(1, 2, 1, 1, 1)) / \
            np.sqrt(bn.running_var.reshape(1, 2, 1, 1, 1) + BN_EPSILON)
        npt.assert_allclose(o1, expected, atol=1e-12)

    def test_inference_gradients_reach_gamma_and_beta(self):
        rng = np.random.default_rng(11)
        bn = BatchNorm3d(2)
        bn.gamma.data[:] = [0.5, -2.0]
        bn.beta.data[:] = [0.3, 1.0]
        bn.running_mean, bn.running_var = np.array([0.2, -1.0]), np.array([0.5, 3.0])
        x = Tensor(rng.standard_normal((3, 2, 2, 2, 2)))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        assert fd_check(lambda: ad.reduce_sum(bn(x, train=False) * Tensor(w)),
                        [x, bn.gamma, bn.beta]) < 1e-5

    def test_gradients_flow_through_batch_statistics(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm3d(2)
        x = Tensor(rng.standard_normal((3, 2, 2, 2, 2)))
        w = rng.standard_normal((3, 2, 2, 2, 2))

        def loss():
            bn.running_mean = np.zeros(2)  # keep running stats out of the check
            bn.running_var = np.ones(2)
            return ad.reduce_sum(bn(x, train=True) * Tensor(w))

        assert fd_check(loss, [x, bn.gamma, bn.beta]) < 1e-5


def chain_batchnorm(bn, x, train):
    """The reference for ``autodiff.batch_norm``: BatchNorm3d written as a
    chain of elementwise, reduction and reshape ops, 13 tape nodes in
    training mode."""
    cshape = (1, bn.channels, 1, 1, 1)
    if not train:
        scale = bn.gamma / Tensor(np.sqrt(bn.running_var + BN_EPSILON))
        shift = bn.beta - Tensor(bn.running_mean) * scale
        return x * ad.reshape(scale, cshape) + ad.reshape(shift, cshape)
    axes = (0, 2, 3, 4)
    mu = x.mean(axis=axes, keepdims=True)
    var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
    xhat = (x - mu) / ad.power(var + BN_EPSILON, 0.5)
    m = BN_MOMENTUM
    bn.running_mean = m * bn.running_mean + (1 - m) * mu.data.reshape(-1)
    bn.running_var = m * bn.running_var + (1 - m) * var.data.reshape(-1)
    return xhat * ad.reshape(bn.gamma, cshape) + ad.reshape(bn.beta, cshape)


class TestBatchNormNode:
    """BatchNorm3d as one ``autodiff.batch_norm`` node, against the chain."""

    @staticmethod
    def twin(channels, seed):
        """Two batchnorms with the same non-trivial parameters and moments."""
        rng = np.random.default_rng(seed)
        gamma, beta = rng.uniform(0.5, 2.0, channels), rng.standard_normal(channels)
        mean, var = rng.standard_normal(channels), rng.uniform(0.2, 3.0, channels)
        pair = []
        for _ in range(2):
            bn = BatchNorm3d(channels)
            bn.gamma.data[:], bn.beta.data[:] = gamma, beta
            bn.running_mean, bn.running_var = mean.copy(), var.copy()
            pair.append(bn)
        return pair

    @pytest.mark.parametrize("train", [True, False])
    def test_forward_is_the_chain_bytewise(self, train):
        bn, oracle = self.twin(4, 0)
        x = Tensor(np.random.default_rng(1).standard_normal((6, 4, 2, 3, 3)) * 3 + 1)
        npt.assert_array_equal(bn(x, train).data, chain_batchnorm(oracle, x, train).data)

    def test_running_moments_are_the_chain_bytewise(self):
        bn, oracle = self.twin(4, 2)
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = Tensor(rng.standard_normal((5, 4, 2, 3, 3)) * 2 - 1)
            bn(x, train=True)
            chain_batchnorm(oracle, x, train=True)
        npt.assert_array_equal(bn.running_mean, oracle.running_mean)
        npt.assert_array_equal(bn.running_var, oracle.running_var)

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("shape", [(6, 4, 2, 3, 3), (1, 3, 1, 1, 1)])
    def test_gradients_match_the_chain(self, shape, train):
        """Within 1e-12 of the largest gradient entry; on [1, 3, 1, 1, 1] each
        channel holds one value, so its variance is 0 and σ = √ε."""
        rng = np.random.default_rng(4)
        x_data, w = rng.standard_normal(shape) * 2 + 0.5, rng.standard_normal(shape)
        grads = []
        for bn, layer in zip(self.twin(shape[1], 5), (BatchNorm3d.__call__, chain_batchnorm)):
            x = Tensor(x_data.copy(), requires_grad=True)
            with fresh_tape():
                ad.reduce_sum(layer(bn, x, train) * Tensor(w)).backward()
            grads.append([x.grad, bn.gamma.grad, bn.beta.grad])
        for got, want in zip(*grads):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (got, want)

    @pytest.mark.parametrize("train", [True, False])
    def test_one_tape_node_per_call(self, train):
        x = Tensor(np.random.default_rng(6).standard_normal((3, 2, 2, 2, 2)), requires_grad=True)
        with fresh_tape() as tape:
            BatchNorm3d(2)(x, train)
        assert [node.op for node in tape.nodes] == ["batch_norm"]

    def test_training_memory_stays_near_the_activation(self):
        """One training forward and backward of the classifier's widest block
        output at patch 3 peaks below 8 times the input; the chain of 13
        nodes peaked at 17 times."""
        import tracemalloc

        bn = BatchNorm3d(30)
        x = Tensor(np.random.default_rng(7).standard_normal((64, 30, 6, 3, 3)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            with fresh_tape():
                ad.reduce_sum(bn(x, train=True)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape
        assert peak < 8 * x.data.nbytes, (peak, x.data.nbytes)


class TestInitHelpers:
    def test_glorot_bound(self):
        rng = np.random.default_rng(10)
        w = glorot_uniform(rng, (50, 50), 50, 50)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 100.0))

    def test_one_hot_round_trip(self):
        labels = np.array([0, 2, 1])
        oh = one_hot(labels, 3)
        npt.assert_array_equal(oh.argmax(axis=1), labels)
        npt.assert_array_equal(oh.sum(axis=1), 1.0)

    def test_one_hot_range_check(self):
        with pytest.raises(ContractError):
            one_hot(np.array([0, 3]), 3)
