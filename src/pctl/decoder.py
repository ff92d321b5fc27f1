"""Affine-transfer decoder over a linear mixing model.

Both domains reconstruct through one shared endmember matrix M [c, L]: an
abundance row a mixes to a·M, the linear mixing model. M holds the material
spectra in target units, and the source applies one per-band scale and offset
on top, which absorb cross-domain illumination and sensor shifts, so the
latent abundances can stay domain-invariant. A target pair would only
reparametrize M: abundance rows sum to one, so
(a·M)·s + o = a·(M·diag(s) + 1·oᵀ).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .encoder import SimplexBatch
from .layers import DenseLayer

if TYPE_CHECKING:
    from .config import ModelConfig

# keeps the l2-norm gradient finite at exactly-zero residuals
NORM_EPS = 1e-24


def successive_projections(pixels: np.ndarray, count: int) -> np.ndarray:
    """Row indices of ``count`` pure pixels by successive projections (SPA).

    Each round picks the pixel with the largest residual norm, then projects
    every residual onto the orthogonal complement of that pick (Gillis and
    Vavasis, 2014). Under the linear mixing model the picks are the scene's
    purest pixels, one per endmember.
    """
    residual = np.array(pixels, dtype=np.float64)
    picks = []
    for _ in range(count):
        k = int(np.argmax(np.einsum("ij,ij->i", residual, residual)))
        picks.append(k)
        u = residual[k] / (np.linalg.norm(residual[k]) or 1.0)
        residual -= np.outer(residual @ u, u)
    return np.asarray(picks)


class PlainDecoder:
    """Ablation decoder: the shared endmember matrix, no per-domain transfer.

    ``basis_out.weight`` is M; its rows are endmember spectra.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.basis_out = DenseLayer(cfg.abundance_dim, cfg.bands, bias=False, rng=rng)

    def basis(self, a: SimplexBatch) -> Tensor:
        """Shared reconstruction a·M before any domain-specific transfer."""
        return self.basis_out(a.values)

    def decode_source(self, a: SimplexBatch) -> Tensor:
        return self.basis(a)

    def decode_both(self, a_source: SimplexBatch, a_target: SimplexBatch):
        return self.decode_source(a_source), self.basis(a_target)

    def initialize(self, source_pixels: np.ndarray, target_pixels: np.ndarray) -> None:
        """Set M to the purest target pixels, found by successive projections."""
        picks = successive_projections(target_pixels, self.cfg.abundance_dim)
        self.basis_out.weight.data[...] = target_pixels[picks]

    def parameters(self):
        return [(f"basis_out.{n}", t) for n, t in self.basis_out.parameters()]


class AffineDecoder(PlainDecoder):
    """Shared endmember matrix plus a per-band (scale, offset) pair for the source.

    The target reconstructs as a·M. The source scale starts at 1 and its
    offset at 0, so an untrained decoder treats both domains identically.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.src_scale = Tensor(np.ones(cfg.bands), requires_grad=True)
        self.src_offset = Tensor(np.zeros(cfg.bands), requires_grad=True)

    def decode_source(self, a: SimplexBatch) -> Tensor:
        return self.basis(a) * self.src_scale + self.src_offset

    def initialize(self, source_pixels: np.ndarray, target_pixels: np.ndarray) -> None:
        """M from pure target pixels; the source pair from per-band moments.

        M is read in target units. If both domains draw abundances from the
        same distribution and x_s = scale * x_t + offset per band, then
        std_s = scale * std_t and mean_s = scale * mean_t + offset, which
        fixes the source pair.
        """
        super().initialize(source_pixels, target_pixels)
        std_t = target_pixels.std(axis=0)
        scale = np.divide(source_pixels.std(axis=0), std_t,
                          out=np.ones_like(std_t), where=std_t > 0)
        offset = source_pixels.mean(axis=0) - scale * target_pixels.mean(axis=0)
        self.src_scale.data[...] = scale
        self.src_offset.data[...] = offset

    def parameters(self):
        return super().parameters() + [
            ("src_scale", self.src_scale), ("src_offset", self.src_offset)]


def _pixel_l2(residual: Tensor) -> Tensor:
    """Mean over the batch of the per-pixel Euclidean norm."""
    return ad.reduce_mean(
        ad.power(ad.reduce_sum(residual * residual, axis=1) + NORM_EPS, 0.5))


def reconstruction_loss(xhat_source: Tensor, x_source: Tensor,
                        xhat_target: Tensor, x_target: Tensor) -> Tensor:
    """Sum of per-domain batch-mean l2 reconstruction errors."""
    for name, (a, b) in (("source", (xhat_source, x_source)),
                         ("target", (xhat_target, x_target))):
        if a.shape != b.shape:
            raise DimensionError(
                f"{name} reconstruction {a.shape} does not match input {b.shape}")
    return _pixel_l2(xhat_source - x_source) + _pixel_l2(xhat_target - x_target)
