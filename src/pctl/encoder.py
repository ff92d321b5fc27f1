"""Shared simplex encoder.

Pixels from both domains pass through one dense stack whose sigmoid head
produces stick fractions; a truncated stick-breaking construction turns the
fractions into abundance vectors that are non-negative and sum to one by
construction. A normalized-entropy penalty drives the abundances sparse,
which a plain l1 penalty cannot do on sum-to-one vectors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DomainError
from .layers import DenseLayer

if TYPE_CHECKING:
    from .config import ModelConfig

ENTROPY_EPS = 1e-12
# Sigmoid saturates to exactly 0/1 in float64; the head output is pinched
# into the open interval so downstream powers stay differentiable.
U_CLIP = 1e-12
# Checkpoints store a choice as its index in these tuples: append, never reorder.
# Stick transform "printed": v = u^(1/beta); "standard": v = 1-(1-u)^(1/beta).
STICK_TRANSFORMS = ("printed", "standard")


def default_hidden_widths(bands: int, abundance_dim: int) -> list[int]:
    """Six widths, geometric from the band count down to 3x the abundance dim."""
    lo = max(3 * abundance_dim, 2)
    return [max(2, round(bands * (lo / bands) ** (i / 6))) for i in range(1, 7)]


class SimplexBatch:
    """Batch of abundance rows constrained to the probability simplex."""

    __slots__ = ("values",)

    def __init__(self, values: Tensor):
        data = values.data
        if data.ndim != 2:
            raise ContractError(f"simplex batch must be 2-D, got {values.shape}")
        if np.any(data < 0.0) or np.any(data > 1.0):
            raise ContractError("abundance entries must lie in [0, 1]")
        if np.any(np.abs(data.sum(axis=1) - 1.0) > 1e-9):
            raise ContractError("abundance rows must sum to 1")
        self.values = values

    @property
    def shape(self):
        return self.values.shape


def stick_breaking(v: Tensor) -> SimplexBatch:
    """Break a unit stick into pieces: a_j = v_j * prod_{o<j}(1 - v_o).

    The final piece takes the whole remainder, so rows close to exactly 1.
    Fractions may saturate at 0 or 1; the cumprod backward is zero-safe.
    """
    if v.data.ndim != 2:
        raise DomainError(f"stick fractions must be [batch, c-1], got {v.shape}")
    if np.any(v.data < 0.0) or np.any(v.data > 1.0) or not np.all(np.isfinite(v.data)):
        raise DomainError("stick fractions must lie within (0, 1)")
    batch = v.shape[0]
    ones = Tensor(np.ones((batch, 1)))
    v_ext = ad.concat([v, ones])
    remainder = ad.cumprod(1.0 - v_ext)
    return SimplexBatch(v_ext * remainder)


def kumaraswamy_transform(u: Tensor, beta: Tensor, standard: bool = False) -> Tensor:
    """Map uniform-like draws u in (0,1) through the stick-fraction transform.

    The default form is v = u^(1/beta); ``standard=True`` selects the usual
    inverse-CDF v = 1 - (1 - u)^(1/beta).
    """
    if np.any(u.data <= 0.0) or np.any(u.data >= 1.0):
        raise DomainError("kumaraswamy transform requires u strictly inside (0, 1)")
    if np.any(beta.data <= 0.0):
        raise DomainError("kumaraswamy transform requires beta > 0")
    inv_beta = ad.power(beta, -1.0)
    if standard:
        return 1.0 - ad.power(1.0 - u, inv_beta)
    return ad.power(u, inv_beta)


class Encoder:
    """Dense stack -> sigmoid head -> stick transform -> stick breaking.

    One instance serves both domains; weight sharing is what makes the
    abundance space common to source and target.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        dims = [cfg.bands] + list(cfg.encoder_hidden)
        self.hidden = [DenseLayer(dims[i], dims[i + 1], activation="relu", rng=rng)
                       for i in range(len(dims) - 1)]
        self.head = DenseLayer(dims[-1], cfg.abundance_dim - 1,
                               activation="sigmoid", rng=rng)
        # one learnable beta = softplus(raw) per stick; softplus(raw) == 1 at the
        # start, where both stick transforms are the identity
        self.beta_raw = Tensor(np.full(cfg.abundance_dim - 1, np.log(np.expm1(1.0))),
                               requires_grad=True)

    def encode(self, x: Tensor) -> SimplexBatch:
        h = x
        for layer in self.hidden:
            h = layer(h)
        u = ad.clamp(self.head(h), U_CLIP, 1.0 - U_CLIP)
        v = kumaraswamy_transform(u, ad.softplus(self.beta_raw),
                                  standard=self.cfg.stick_transform == "standard")
        return stick_breaking(v)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.hidden):
            out += [(f"hidden{i}.{n}", t) for n, t in layer.parameters()]
        out += [(f"head.{n}", t) for n, t in self.head.parameters()]
        return out + [("beta_raw", self.beta_raw)]


def normalized_entropy(a: Tensor) -> Tensor:
    """Scale-free entropy of nonnegative rows, averaged over the batch.

    Each row is normalized by its l1 norm, then scored with Shannon entropy;
    0*log(0) is defined as 0 via an epsilon-clamped log. Sparser rows score
    strictly lower even when their l1 norms are equal.
    """
    mag = ad.absolute(a)
    q = mag / ad.reduce_sum(mag, axis=1, keepdims=True)
    log_q = ad.log(ad.clamp(q, ENTROPY_EPS, np.inf))
    return ad.reduce_mean(ad.reduce_sum(q * log_q * -1.0, axis=1))


def sparse_loss(a_source: SimplexBatch, a_target: SimplexBatch) -> Tensor:
    """Summed normalized entropy of the two domains' abundance batches."""
    return normalized_entropy(a_source.values) + normalized_entropy(a_target.values)
