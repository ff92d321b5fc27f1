import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff as ad
from pctl.autodiff import Tensor, fresh_tape
from pctl.config import ModelConfig
from pctl.encoder import (
    Encoder,
    SimplexBatch,
    default_hidden_widths,
    kumaraswamy_transform,
    normalized_entropy,
    sparse_loss,
    stick_breaking,
)
from pctl.errors import ContractError, DomainError
from pctl.gradcheck import fd_check


def small_model(bands, abundance_dim, **kw):
    return ModelConfig(bands=bands, num_classes=2, abundance_dim=abundance_dim, **kw)


class TestStickBreaking:
    def test_halving_sticks(self):
        out = stick_breaking(Tensor([[0.5, 0.5]]))
        npt.assert_allclose(out.values.data, [[0.5, 0.25, 0.25]], atol=1e-15)

    def test_first_stick_takes_all(self):
        eps = 1e-9
        out = stick_breaking(Tensor([[1.0 - eps, 0.3]]))
        npt.assert_allclose(out.values.data, [[1.0, 0.0, 0.0]], atol=1e-8)

    def test_row_sums_and_gradient(self):
        rng = np.random.default_rng(0)
        v = Tensor(rng.uniform(0.05, 0.95, (16, 4)))
        out = stick_breaking(v)
        npt.assert_allclose(out.values.data.sum(axis=1), 1.0, atol=1e-12)
        w = rng.standard_normal((16, 5))
        assert fd_check(lambda: ad.reduce_sum(stick_breaking(v).values * Tensor(w)),
                        [v]) < 1e-5

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            stick_breaking(Tensor([[0.5, 1.5]]))
        with pytest.raises(DomainError):
            stick_breaking(Tensor([[-0.2, 0.5]]))

    def test_saturated_fractions_still_valid(self):
        out = stick_breaking(Tensor([[0.0, 1.0, 0.0]]))
        npt.assert_array_equal(out.values.data, [[0.0, 1.0, 0.0, 0.0]])


class TestKumaraswamy:
    def test_beta_one_is_identity(self):
        u = Tensor([[0.3, 0.7]])
        out = kumaraswamy_transform(u, Tensor([1.0]))
        npt.assert_allclose(out.data, u.data, atol=1e-15)

    def test_square_root_case(self):
        out = kumaraswamy_transform(Tensor([[0.25]]), Tensor([2.0]))
        npt.assert_allclose(out.data, [[0.5]], atol=1e-15)

    def test_gradients_wrt_u_and_beta(self):
        rng = np.random.default_rng(1)
        u = Tensor(rng.uniform(0.1, 0.9, (4, 3)))
        beta = Tensor(rng.uniform(0.5, 3.0, (3,)))
        w = rng.standard_normal((4, 3))
        assert fd_check(lambda: ad.reduce_sum(kumaraswamy_transform(u, beta) * Tensor(w)),
                        [u, beta]) < 1e-5

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(DomainError):
            kumaraswamy_transform(Tensor([[0.5]]), Tensor([0.0]))

    def test_u_outside_open_interval_rejected(self):
        with pytest.raises(DomainError):
            kumaraswamy_transform(Tensor([[1.0]]), Tensor([1.0]))


class TestEncoder:
    def test_zero_weight_network_gives_halving_sticks(self):
        cfg = small_model(10, 3)
        enc = Encoder(cfg, rng=np.random.default_rng(2))
        for layer in enc.hidden + [enc.head]:
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        out = enc.encode(Tensor(np.random.default_rng(3).standard_normal((4, 10))))
        npt.assert_allclose(out.values.data,
                            np.tile([0.5, 0.25, 0.25], (4, 1)), atol=1e-9)

    def test_both_domains_share_parameters(self):
        cfg = small_model(6, 4)
        enc = Encoder(cfg, rng=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        xs = Tensor(rng.standard_normal((5, 6)))
        xt = Tensor(rng.standard_normal((5, 6)))
        params = [t for _, t in enc.parameters()]
        for t in params:
            t.requires_grad = True
            t.zero_grad()
        with fresh_tape():
            loss_s = ad.reduce_sum(enc.encode(xs).values * Tensor(rng.standard_normal((5, 4))))
            loss_s.backward()
        grads_source_only = [None if t.grad is None else t.grad.copy() for t in params]
        with fresh_tape():
            loss_t = ad.reduce_sum(enc.encode(xt).values * Tensor(rng.standard_normal((5, 4))))
            loss_t.backward()
        # both domains accumulate into the *same* tensors
        touched = [g is not None for g in grads_source_only]
        assert any(touched)
        for t, g0 in zip(params, grads_source_only):
            if g0 is not None:
                assert t.grad is not None and not np.array_equal(t.grad, g0)

    def test_simplex_closure_over_random_models(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            cfg = small_model(int(rng.integers(4, 20)), int(rng.integers(2, 8)))
            enc = Encoder(cfg, rng=np.random.default_rng(600 + trial))
            x = Tensor(rng.standard_normal((64, cfg.bands)) * 10)
            out = enc.encode(x).values.data
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_default_widths_interpolate_down_to_3c(self):
        widths = default_hidden_widths(40, 6)
        assert len(widths) == 6
        assert widths[-1] == 18
        assert all(w >= 2 for w in widths)

    def test_standard_transform_flag(self):
        cfg = small_model(5, 3, stick_transform="standard")
        enc = Encoder(cfg, rng=np.random.default_rng(7))
        out = enc.encode(Tensor(np.random.default_rng(8).standard_normal((3, 5))))
        npt.assert_allclose(out.values.data.sum(axis=1), 1.0, atol=1e-9)

    def test_encode_gradient_through_full_stack(self):
        # seed chosen so no relu pre-activation sits within the FD step of 0
        cfg = small_model(5, 3, encoder_hidden=[6, 4])
        enc = Encoder(cfg, rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(0.1, 1.0, (4, 5)))
        w = rng.standard_normal((4, 3))
        params = [t for _, t in enc.parameters()] + [x]
        assert fd_check(lambda: ad.reduce_sum(enc.encode(x).values * Tensor(w)),
                        params) < 1e-5


class TestNormalizedEntropy:
    def test_one_hot_is_zero(self):
        h = normalized_entropy(Tensor([[0.0, 1.0, 0.0]]))
        assert abs(h.item()) <= 1e-12

    def test_uniform_is_log_c(self):
        h = normalized_entropy(Tensor([[0.25] * 4]))
        npt.assert_allclose(h.item(), np.log(4.0), atol=1e-12)

    def test_skewed_pair_value(self):
        h = normalized_entropy(Tensor([[0.9, 0.1]]))
        npt.assert_allclose(h.item(), 0.3250829733914482, atol=1e-9)

    def test_distinguishes_sparsity_at_equal_l1(self):
        flat = normalized_entropy(Tensor([[0.5, 0.5]])).item()
        skew = normalized_entropy(Tensor([[0.9, 0.1]])).item()
        assert flat > skew

    def test_strictly_monotone_along_uniform_to_onehot(self):
        c = 5
        uniform = np.full(c, 1.0 / c)
        onehot = np.eye(c)[0]
        values = []
        for t in np.linspace(0.0, 1.0, 21):
            row = (1 - t) * uniform + t * onehot
            values.append(normalized_entropy(Tensor(row[None, :])).item())
        diffs = np.diff(values)
        assert np.all(diffs < 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.05, 1.0, (6, 4))
        a = Tensor(raw / raw.sum(axis=1, keepdims=True))
        assert fd_check(lambda: normalized_entropy(a), [a]) < 1e-5


class TestSparseLoss:
    def test_one_hot_batches_score_zero(self):
        a = SimplexBatch(Tensor(np.eye(4)[:3]))
        b = SimplexBatch(Tensor(np.eye(4)[1:]))
        assert abs(sparse_loss(a, b).item()) <= 1e-12

    def test_uniform_batches_score_two_log_c(self):
        c = 6
        a = SimplexBatch(Tensor(np.full((5, c), 1.0 / c)))
        npt.assert_allclose(sparse_loss(a, a).item(), 2 * np.log(c), atol=1e-10)


class TestSimplexBatch:
    def test_rejects_negative_entries(self):
        with pytest.raises(ContractError):
            SimplexBatch(Tensor([[-0.1, 1.1]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ContractError):
            SimplexBatch(Tensor([[0.5, 0.6]]))
