import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff as ad
from pctl.autodiff import Tensor, fresh_tape
from pctl.config import ModelConfig
from pctl.encoder import Encoder, SimplexBatch
from pctl.errors import ContractError, DimensionError
from pctl.gradcheck import fd_check
from pctl.mi import (
    MiDiscriminator,
    domain_shuffle_rngs,
    js_mi_objective,
    mi_loss,
    shuffle_negatives,
)


def make_batch(rng, n, c):
    raw = rng.uniform(0.05, 1.0, (n, c))
    return SimplexBatch(Tensor(raw / raw.sum(axis=1, keepdims=True)))


@pytest.fixture
def disc():
    return MiDiscriminator(ModelConfig(bands=6, num_classes=2, abundance_dim=3),
                           rng=np.random.default_rng(0))


class TestScore:
    def test_zero_weight_network_scores_zero(self, disc):
        for layer in (disc.dense0, disc.dense1):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        rng = np.random.default_rng(1)
        out = disc.score(Tensor(rng.standard_normal((5, 6))), make_batch(rng, 5, 3))
        npt.assert_array_equal(out.data, np.zeros((5, 1)))

    def test_permutation_equivariant_over_batch(self, disc):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 6))
        a = make_batch(rng, 8, 3)
        scores = disc.score(Tensor(x), a).data
        perm = rng.permutation(8)
        permuted = disc.score(Tensor(x[perm]),
                              SimplexBatch(Tensor(a.values.data[perm]))).data
        npt.assert_allclose(permuted, scores[perm], atol=1e-12)

    def test_batch_mismatch_rejected(self, disc):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionError):
            disc.score(Tensor(rng.standard_normal((4, 6))), make_batch(rng, 5, 3))

    def test_gradient(self, disc):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 6)))
        a = make_batch(rng, 4, 3)
        params = [t for _, t in disc.parameters()]
        assert fd_check(lambda: ad.reduce_sum(disc.score(x, a)), params + [x]) < 1e-5


class TestShuffleNegatives:
    def test_batch_of_two_swaps(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = shuffle_negatives(x, 0)
        npt.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])

    def test_multiset_of_rows_preserved(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((16, 4)))
        out = shuffle_negatives(x, 7)
        npt.assert_array_equal(np.sort(out.data, axis=0), np.sort(x.data, axis=0))

    def test_no_fixed_points_across_many_shuffles(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((64, 3)))
        gen = np.random.default_rng(8)
        fixed = 0
        for _ in range(1000):
            out = shuffle_negatives(x, gen)
            fixed += int(np.any(np.all(out.data == x.data, axis=1)))
        assert fixed == 0

    def test_small_batch_rejected(self):
        with pytest.raises(ContractError):
            shuffle_negatives(Tensor([[1.0, 2.0]]), 0)

    def test_negatives_are_not_differentiable_inputs(self):
        x = Tensor(np.random.default_rng(9).standard_normal((4, 3)),
                   requires_grad=True)
        out = shuffle_negatives(x, 1)
        assert not out.requires_grad and out.node_id is None


class TestJsObjective:
    def test_constant_score_closed_form(self, disc):
        rng = np.random.default_rng(10)
        for layer in (disc.dense0, disc.dense1):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        for s in (-1.5, 0.0, 2.0):
            disc.dense1.bias.data[:] = s
            x = Tensor(rng.standard_normal((6, 6)))
            a = make_batch(rng, 6, 3)
            obj = js_mi_objective(disc, x, a, shuffle_negatives(x, 0)).item()
            sp = lambda t: np.log1p(np.exp(-abs(t))) + max(t, 0.0)
            npt.assert_allclose(obj, -(sp(s) + sp(-s)), atol=1e-12)

    def test_never_positive(self, disc):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = Tensor(rng.standard_normal((5, 6)) * 3)
            a = make_batch(rng, 5, 3)
            assert js_mi_objective(disc, x, a, shuffle_negatives(x, 1)).item() <= 0.0

    def test_antisymmetric_gradient_flow(self):
        # positive-pair scores are pushed up, negative-pair scores down
        pos = Tensor(np.array([[0.3], [-0.7]]), requires_grad=True)
        neg = Tensor(np.array([[0.1], [1.2]]), requires_grad=True)
        with fresh_tape():
            obj = ad.reduce_mean(ad.softplus(pos * -1.0) * -1.0) - \
                ad.reduce_mean(ad.softplus(neg))
            obj.backward()
        assert np.all(pos.grad > 0.0)
        assert np.all(neg.grad < 0.0)

    def test_gradients_reach_discriminator_and_encoder(self, disc):
        enc = Encoder(ModelConfig(bands=6, num_classes=2, abundance_dim=3),
                      rng=np.random.default_rng(12))
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(0.1, 1.0, (6, 6)))
        with fresh_tape():
            a = enc.encode(x)
            obj = js_mi_objective(disc, x, a, shuffle_negatives(x, 2))
            obj.backward()
        assert disc.dense0.weight.grad is not None
        assert enc.head.weight.grad is not None


class TestMiLoss:
    def test_zero_discriminator_value(self, disc):
        for layer in (disc.dense0, disc.dense1):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        rng = np.random.default_rng(14)
        xs, xt = Tensor(rng.standard_normal((6, 6))), Tensor(rng.standard_normal((6, 6)))
        loss = mi_loss(disc, xs, make_batch(rng, 6, 3), xt, make_batch(rng, 6, 3), 3)
        npt.assert_allclose(loss.item(), -4.0 * np.log(2.0), atol=1e-12)

    def test_matches_independent_recomputation(self, disc):
        rng = np.random.default_rng(15)
        xs, xt = Tensor(rng.standard_normal((8, 6))), Tensor(rng.standard_normal((8, 6)))
        a_s, a_t = make_batch(rng, 8, 3), make_batch(rng, 8, 3)
        loss = mi_loss(disc, xs, a_s, xt, a_t, seed=42).item()

        child_s, child_t = domain_shuffle_rngs(42)
        sp = lambda t: np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
        expected = 0.0
        for x, a, child in ((xs, a_s, child_s), (xt, a_t, child_t)):
            pos = disc.score(x, a).data
            neg = disc.score(shuffle_negatives(x, child), a).data
            expected += float(np.mean(-sp(-pos)) - np.mean(sp(neg)))
        npt.assert_allclose(loss, expected, atol=1e-10)

    def test_symmetric_form_up_to_seed_handling(self, disc):
        rng = np.random.default_rng(16)
        xs, xt = Tensor(rng.standard_normal((8, 6))), Tensor(rng.standard_normal((8, 6)))
        a_s, a_t = make_batch(rng, 8, 3), make_batch(rng, 8, 3)
        child_s, child_t = domain_shuffle_rngs(5)
        fwd = js_mi_objective(disc, xs, a_s, shuffle_negatives(xs, child_s)).item() + \
            js_mi_objective(disc, xt, a_t, shuffle_negatives(xt, child_t)).item()
        child_s, child_t = domain_shuffle_rngs(5)
        rev = js_mi_objective(disc, xt, a_t, shuffle_negatives(xt, child_s)).item() + \
            js_mi_objective(disc, xs, a_s, shuffle_negatives(xs, child_t)).item()
        # same pairs, same per-slot shuffles: identical total either way round
        child_s, child_t = domain_shuffle_rngs(5)
        rev_matched = js_mi_objective(disc, xt, a_t, shuffle_negatives(xt, child_t)).item() + \
            js_mi_objective(disc, xs, a_s, shuffle_negatives(xs, child_s)).item()
        total = mi_loss(disc, xs, a_s, xt, a_t, seed=5).item()
        npt.assert_allclose(total, rev_matched, atol=1e-12)
        assert isinstance(rev, float)
