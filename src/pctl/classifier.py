"""Densely-connected 3D-CNN classifier over abundance patches.

Each labeled pixel is classified from the P x P neighborhood of abundance
vectors around it, stacked as a single-channel volume [1, c, P, P]. Five
conv blocks (conv + batchnorm + relu) are densely connected: block i sees
the channel-concatenation of the input volume and every earlier block's
output. The classifier never touches raw spectra; everything it consumes
has passed through the shared encoder.

One call keeps that concatenation in a single dense buffer, channels-last
in memory: the input and each block's output but the last are copied into
their channel slice once, by ``autodiff.concat`` with a channel prefix of
the buffer as ``out``, and block i reads that prefix. A block's conv output
is itself a view of channels-last memory, which batchnorm and relu overwrite
when no gradient is recorded, so an inference call holds about the buffer,
one block output and conv3d's tiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import Encoder
from .errors import ContractError, DimensionError
from .layers import BatchNorm3d, DenseLayer, Dropout, glorot_uniform, softmax_cross_entropy

if TYPE_CHECKING:
    from .config import ModelConfig


def conv_kernel(abundance_dim: int, patch_size: int) -> tuple[int, int, int]:
    """Every conv block's kernel: 3 x 7 x 7, capped by c along the abundance
    axis and by P across space."""
    k_sp = min(7, patch_size)
    return (min(3, abundance_dim), k_sp, k_sp)


def _same_padding(kernel: Sequence[int]):
    return tuple(((k - 1) // 2, k - 1 - (k - 1) // 2) for k in kernel)


class ConvBlock:
    """conv3d (same padding, no bias) -> batchnorm -> relu."""

    def __init__(self, in_channels: int, out_channels: int, kernel,
                 rng: np.random.Generator):
        kd, kh, kw = kernel
        fan_in = in_channels * kd * kh * kw
        fan_out = out_channels * kd * kh * kw
        self.kernels = Tensor(
            glorot_uniform(rng, (out_channels, in_channels, kd, kh, kw),
                           fan_in, fan_out),
            requires_grad=True)
        self.bn = BatchNorm3d(out_channels)
        self.padding = _same_padding(kernel)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        # the conv output is the block's own, so batchnorm and relu may reuse it
        y = self.bn(ad.conv3d(x, self.kernels, padding=self.padding), train, overwrite=True)
        return ad.relu(y, overwrite=True)

    def parameters(self):
        return [("kernels", self.kernels)] + \
            [(f"bn.{n}", t) for n, t in self.bn.parameters()]


class Classifier3d:
    """Five densely-connected conv blocks, then dropout and a k-way head."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator,
                 dropout_rng: np.random.Generator):
        self.cfg = cfg
        kernel = conv_kernel(cfg.abundance_dim, cfg.patch_size)
        self.blocks = []
        in_ch = 1
        for out_ch in cfg.block_channels:
            self.blocks.append(ConvBlock(in_ch, out_ch, kernel, rng))
            in_ch += out_ch  # dense connectivity: next block also sees this output
        flat = cfg.block_channels[-1] * cfg.abundance_dim * cfg.patch_size ** 2
        self.dropout = Dropout(cfg.dropout_rate, dropout_rng)
        self.head = DenseLayer(flat, cfg.num_classes, activation="none", rng=rng)

    def logits(self, x: Tensor, train: bool) -> Tensor:
        """Class scores for abundance patches ``x`` of shape [batch, 1, c, P, P]."""
        c, p = self.cfg.abundance_dim, self.cfg.patch_size
        if x.shape[1:] != (1, c, p, p):
            raise DimensionError(
                f"abundance patches must be [batch, 1, c={c}, P={p}, P={p}], "
                f"got {x.shape}")
        # the input and every block output but the last, channels-last in
        # memory; block i reads the channels of the input and blocks 0..i-1
        widths = np.cumsum([1] + self.cfg.block_channels[:-1]).tolist()
        dense = np.empty((x.shape[0], c, p, p, widths[-1])).transpose(0, 4, 1, 2, 3)
        h = x
        for block, width in zip(self.blocks, widths[1:]):
            h = ad.concat([h, block(h, train)], dense[:, :width])
        flat = ad.reshape(self.blocks[-1](h, train), (x.shape[0], -1))
        return self.head(self.dropout(flat, train))

    def parameters(self):
        out = []
        for i, block in enumerate(self.blocks):
            out += [(f"block{i}.{n}", t) for n, t in block.parameters()]
        out += [(f"head.{n}", t) for n, t in self.head.parameters()]
        return out

    def buffers(self):
        out = []
        for i, block in enumerate(self.blocks):
            out += [(f"block{i}.bn.{n}", b) for n, b in block.bn.buffers()]
        return out


def classification_loss(logits: Tensor, labels: Tensor) -> Tensor:
    """Softmax cross entropy against one-hot labels."""
    return softmax_cross_entropy(logits, labels)


# patches per classifier call when predicting, and windows per batch when
# marking the pixels they read
PREDICT_BATCH = 256


def _fold(index: np.ndarray, size: int) -> np.ndarray:
    """Fold offsets outside [0, size) back in, each border pixel repeated:
    the index that numpy's symmetric padding copies, at any margin."""
    index = index % (2 * size)
    return np.where(index < size, index, 2 * size - 1 - index)


def window_index(height: int, width: int, centers, patch_size: int) -> np.ndarray:
    """[n, P, P] raster indices of the P x P windows around (row, col) centers
    of an H x W map.

    Borders mirror, so any in-image center is valid, even for windows wider
    than the map.
    """
    centers = np.asarray(centers, dtype=int)
    if centers.size == 0:
        raise ContractError("no patch centers given")
    if centers.ndim != 2 or centers.shape[1] != 2:
        raise ContractError("centers must be (row, col) pairs")
    if np.any(centers < 0) or np.any(centers >= (height, width)):
        raise ContractError("patch centers must lie inside the image")
    offsets = np.arange(patch_size) - patch_size // 2
    rows = _fold(centers[:, :1] + offsets, height)
    cols = _fold(centers[:, 1:] + offsets, width)
    return rows[:, :, None] * width + cols[:, None, :]


def extract_patches(values: np.ndarray, centers, patch_size: int) -> np.ndarray:
    """Gather [n, P, P, C] windows around (row, col) centers of an [H, W, C] map."""
    h, w, c = values.shape
    return values.reshape(h * w, c)[window_index(h, w, centers, patch_size)]


def window_pixels(height: int, width: int, centers, patch_size: int) -> np.ndarray:
    """[H, W] mask of the pixels that ``extract_patches`` reads for these centers.

    The windows are marked PREDICT_BATCH at a time, so only one batch of
    their indices is held at once.
    """
    centers = np.asarray(centers, dtype=int)
    mask = np.zeros(height * width, dtype=bool)
    for start in range(0, len(centers), PREDICT_BATCH):
        mask[window_index(height, width, centers[start:start + PREDICT_BATCH],
                          patch_size)] = True
    return mask.reshape(height, width)


def _volumes(windows: Tensor) -> Tensor:
    """[n, P, P, c] abundance windows as [n, 1, c, P, P] volumes, so the conv
    depth axis runs along the abundance index."""
    n, p, _, c = windows.shape
    return ad.reshape(ad.transpose(windows, (0, 3, 1, 2)), (n, 1, c, p, p))


def encode_patches(encoder: Encoder, pixel_patches: np.ndarray) -> Tensor:
    """Push raw pixel patches through the shared encoder, pixel by pixel.

    ``pixel_patches`` is [n, P, P, L]; the result stacks the abundances as
    [n, 1, c, P, P]. Gradients flow back into the encoder through every
    pixel of every patch. The trainer uses that path only for the
    classifier-only ablation. With the reconstruction branch on, it calls
    this under ``no_grad``, so the unmixing terms alone train the encoder.
    """
    n, p, _, bands = pixel_patches.shape
    abund = encoder.encode(Tensor(pixel_patches.reshape(n * p * p, bands))).values
    return _volumes(ad.reshape(abund, (n, p, p, abund.shape[1])))


def abundance_patches_from_map(abundance_map: np.ndarray, centers,
                               patch_size: int) -> Tensor:
    """Assemble patches from a precomputed [H, W, c] abundance map.

    Inference-only shortcut: encoding is pixel-wise, so encoding the cube once
    and slicing windows matches encoding each patch's pixels individually.
    """
    return _volumes(Tensor(extract_patches(abundance_map, centers, patch_size)))
