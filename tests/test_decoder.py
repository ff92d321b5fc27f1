import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff as ad
from pctl.autodiff import Tensor
from pctl.decoder import (
    AffineDecoder,
    reconstruction_loss,
    successive_projections,
)
from pctl.config import ModelConfig
from pctl.encoder import SimplexBatch
from pctl.errors import DimensionError
from pctl.gradcheck import fd_check


def make_batch(rng, n, c):
    raw = rng.uniform(0.05, 1.0, (n, c))
    return SimplexBatch(Tensor(raw / raw.sum(axis=1, keepdims=True)))


@pytest.fixture
def decoder():
    return AffineDecoder(ModelConfig(bands=8, num_classes=2, abundance_dim=4),
                         rng=np.random.default_rng(0))


class TestAffineBranches:
    def test_identity_transfer_equals_shared_basis(self, decoder):
        a = make_batch(np.random.default_rng(1), 5, 4)
        npt.assert_allclose(decoder.decode_source(a).data,
                            decoder.basis(a).data, atol=1e-15)

    def test_zero_scale_gives_constant_offset(self, decoder):
        decoder.src_scale.data[:] = 0.0
        decoder.src_offset.data[:] = np.arange(8, dtype=float)
        a = make_batch(np.random.default_rng(2), 6, 4)
        out = decoder.decode_source(a).data
        npt.assert_array_equal(out, np.tile(np.arange(8.0), (6, 1)))

    def test_branches_related_by_exact_affine_map(self, decoder):
        rng = np.random.default_rng(3)
        decoder.src_scale.data[:] = rng.uniform(0.5, 1.5, 8)
        decoder.src_offset.data[:] = rng.uniform(-0.2, 0.2, 8)
        a = make_batch(rng, 10, 4)
        xs = decoder.decode_source(a).data
        xt = decoder.basis(a).data
        npt.assert_allclose(xs, decoder.src_scale.data * xt + decoder.src_offset.data,
                            atol=1e-12)

    def test_structural_sharing(self, decoder):
        a = make_batch(np.random.default_rng(4), 5, 4)
        xs0 = decoder.decode_source(a).data.copy()
        xt0 = decoder.basis(a).data.copy()
        # perturbing the shared basis moves both branches
        decoder.basis_out.weight.data[0, 0] += 0.5
        assert not np.allclose(decoder.decode_source(a).data, xs0)
        assert not np.allclose(decoder.basis(a).data, xt0)
        # perturbing the source pair moves only the source branch
        xs1 = decoder.decode_source(a).data.copy()
        xt1 = decoder.basis(a).data.copy()
        decoder.src_scale.data[0] += 0.5
        assert not np.allclose(decoder.decode_source(a).data, xs1)
        npt.assert_array_equal(decoder.basis(a).data, xt1)

    def test_gradient_through_full_branch(self, decoder):
        rng = np.random.default_rng(5)
        a = make_batch(rng, 4, 4)
        w = rng.standard_normal((4, 8))
        params = [t for _, t in decoder.parameters()]
        assert fd_check(lambda: ad.reduce_sum(decoder.decode_source(a) * Tensor(w))
                        + ad.reduce_sum(decoder.basis(a) * Tensor(w)),
                        params) < 1e-5


class TestInitialization:
    def test_successive_projections_find_the_pure_pixels(self):
        rng = np.random.default_rng(13)
        endmembers = rng.uniform(0.1, 0.9, (4, 8))
        mixed = rng.dirichlet(np.full(4, 2.0), 200) @ endmembers
        pixels = np.vstack([mixed[:100], endmembers, mixed[100:]])
        assert sorted(successive_projections(pixels, 4)) == [100, 101, 102, 103]

    def test_moments_recover_an_exact_affine_shift(self, decoder):
        rng = np.random.default_rng(14)
        target = rng.dirichlet(np.ones(4), 300) @ rng.uniform(0.1, 0.9, (4, 8))
        scale, offset = rng.uniform(0.5, 1.5, 8), rng.uniform(-0.2, 0.2, 8)
        decoder.initialize(scale * target + offset, target)
        npt.assert_allclose(decoder.src_scale.data, scale, atol=1e-12)
        npt.assert_allclose(decoder.src_offset.data, offset, atol=1e-12)
        # the target has no pair: M is read in target units
        assert [name for name, _ in decoder.parameters()] == [
            "basis_out.weight", "src_scale", "src_offset"]
        picks = successive_projections(target, 4)
        npt.assert_array_equal(decoder.basis_out.weight.data, target[picks])


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((5, 8)))
        y = Tensor(rng.standard_normal((5, 8)))
        assert reconstruction_loss(x, x, y, y).item() < 1e-10

    def test_uniform_offset_gives_eps_sqrt_bands(self):
        rng = np.random.default_rng(9)
        L, eps = 16, 0.01
        x = Tensor(rng.standard_normal((6, L)))
        y = Tensor(rng.standard_normal((6, L)))
        shifted = Tensor(x.data + eps)
        loss = reconstruction_loss(shifted, x, y, y).item()
        npt.assert_allclose(loss, eps * np.sqrt(L), atol=1e-10)

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(10)
        xs, xt = rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
        hs, ht = rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
        loss = reconstruction_loss(Tensor(hs), Tensor(xs),
                                   Tensor(ht), Tensor(xt)).item()
        expected = np.mean([np.linalg.norm(hs[i] - xs[i]) for i in range(7)]) + \
            np.mean([np.linalg.norm(ht[i] - xt[i]) for i in range(7)])
        npt.assert_allclose(loss, expected, atol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            args = [Tensor(rng.standard_normal((4, 6))) for _ in range(4)]
            assert reconstruction_loss(*args).item() >= 0.0

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            reconstruction_loss(Tensor(np.zeros((3, 5))), x, x, x)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        hs = Tensor(rng.standard_normal((3, 4)))
        ht = Tensor(rng.standard_normal((3, 4)))
        xs = Tensor(rng.standard_normal((3, 4)))
        xt = Tensor(rng.standard_normal((3, 4)))
        assert fd_check(lambda: reconstruction_loss(hs, xs, ht, xt), [hs, ht]) < 1e-5
