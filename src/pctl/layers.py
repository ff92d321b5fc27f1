"""Neural building blocks: dense layers, 3-D batchnorm, dropout, losses.

All parameters are float64 tensors registered by name so they can be
serialized into checkpoints and driven by the optimizer.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError

ACTIVATIONS = ("relu", "sigmoid", "none")
# BatchNorm3d: weight of the old running moments in each update, and the
# variance floor under the square root
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


class DenseLayer:
    """Fully-connected layer: activation(x @ W + b), or activation(x @ W) without bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: str = "none", bias: bool = True):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.activation = activation
        self.weight = Tensor(glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"dense layer expects [batch, {self.in_dim}], got {x.shape}")
        z = ad.matmul(x, self.weight)
        if self.bias is not None:
            z = z + self.bias
        if self.activation == "relu":
            return ad.relu(z)
        if self.activation == "sigmoid":
            return ad.sigmoid(z)
        return z

    def parameters(self):
        if self.bias is None:
            return [("weight", self.weight)]
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm3d:
    """Per-channel normalization over [batch, channels, D, H, W].

    Training mode normalizes with batch statistics and updates running
    moments; inference mode is a pure function of the running moments. Each
    call is one ``autodiff.batch_norm`` node, whose training backward keeps
    only the normalized input and per-channel vectors.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Tensor, train: bool, overwrite: bool = False) -> Tensor:
        """``overwrite`` lets the output reuse x's memory, as in
        ``autodiff.batch_norm``."""
        if x.data.ndim != 5 or x.shape[1] != self.channels:
            raise DimensionError(
                f"batchnorm expects [N, {self.channels}, D, H, W], got {x.shape}")
        running = None if train else (self.running_mean, self.running_var)
        out, mu, var = ad.batch_norm(x, self.gamma, self.beta, BN_EPSILON, running,
                                     overwrite)
        if train:
            m = BN_MOMENTUM
            self.running_mean = m * self.running_mean + (1 - m) * mu
            self.running_var = m * self.running_var + (1 - m) * var
        return out

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class Dropout:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if not train or self.rate == 0.0:
            return x
        keep = self.rng.random(x.shape) >= self.rate
        mask = keep / (1.0 - self.rate)
        return x * Tensor(mask)


def softmax_cross_entropy(logits: Tensor, labels: Tensor) -> Tensor:
    """Mean over the batch of -sum(y * log softmax(logits)), stable form.

    ``labels`` must be one-hot (rows summing to 1 within 1e-6).
    """
    if logits.shape != labels.shape:
        raise DimensionError(
            f"logits {logits.shape} and labels {labels.shape} differ")
    row_sums = labels.data.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ContractError("label rows must each sum to 1")
    # The row max enters as a constant shift; log-sum-exp is invariant to it,
    # so gradients stay exact.
    m = Tensor(logits.data.max(axis=1, keepdims=True))
    lse = m + ad.log(ad.reduce_sum(ad.exp(logits - m), axis=1, keepdims=True))
    logp = logits - lse
    return ad.reduce_mean(ad.reduce_sum(labels * logp * -1.0, axis=1))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax for inference-side probabilities."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out
