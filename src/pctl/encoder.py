"""Shared simplex encoder.

Pixels from both domains pass through one dense stack whose sigmoid head
produces stick fractions; a truncated stick-breaking construction turns the
fractions into abundance vectors that are non-negative and sum to one by
construction. A normalized-entropy penalty drives the abundances sparse,
which a plain l1 penalty cannot do on sum-to-one vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DomainError
from .layers import DenseLayer

ENTROPY_EPS = 1e-12
# Sigmoid saturates to exactly 0/1 in float64; the head output is pinched
# into the open interval so downstream powers stay differentiable.
U_CLIP = 1e-12
# Checkpoints store a choice as its index in these tuples: append, never reorder.
# Stick transform "printed": v = u^(1/beta); "standard": v = 1-(1-u)^(1/beta).
STICK_TRANSFORMS = ("printed", "standard")
BETA_MODES = ("learnable", "fixed")


@dataclass
class EncoderConfig:
    bands: int
    abundance_dim: int
    hidden_widths: Optional[list[int]] = None
    stick_transform: str = "printed"
    beta_mode: str = "learnable"
    beta_init: float = 1.0
    beta_shared: bool = False

    def __post_init__(self):
        if self.abundance_dim < 2:
            raise ConfigError("abundance_dim must be at least 2")
        if self.bands < 1:
            raise ConfigError("bands must be at least 1")
        if self.stick_transform not in STICK_TRANSFORMS:
            raise ConfigError(f"unknown stick_transform {self.stick_transform!r}")
        if self.beta_mode not in BETA_MODES:
            raise ConfigError(f"unknown beta_mode {self.beta_mode!r}")
        if self.beta_init <= 0:
            raise ConfigError("beta_init must be positive")
        if self.hidden_widths is None:
            self.hidden_widths = default_hidden_widths(self.bands, self.abundance_dim)
        if not self.hidden_widths:
            raise ConfigError("hidden_widths must be non-empty")


def default_hidden_widths(bands: int, abundance_dim: int, depth: int = 6) -> list[int]:
    """Geometric interpolation from the band count down to 3x the abundance dim."""
    lo = max(3 * abundance_dim, 2)
    widths = [max(2, round(bands * (lo / bands) ** (i / depth)))
              for i in range(1, depth + 1)]
    return widths


class SimplexBatch:
    """Batch of abundance rows constrained to the probability simplex."""

    __slots__ = ("values",)

    def __init__(self, values: Tensor, validate: bool = True):
        if validate:
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
    v_ext = ad.concat([v, ones], axis=1)
    remainder = ad.cumprod(1.0 - v_ext, axis=1, exclusive=True)
    return SimplexBatch(v_ext * remainder)


def kumaraswamy_transform(u: Tensor, beta: Tensor) -> Tensor:
    """Map uniform-like draws u in (0,1) through the stick-fraction transform.

    The default form is v = u^(1/beta); ``standard=True`` selects the usual
    inverse-CDF v = 1 - (1 - u)^(1/beta).
    """
    return _kumaraswamy(u, beta, standard=False)


def _kumaraswamy(u: Tensor, beta: Tensor, standard: bool) -> Tensor:
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

    def __init__(self, cfg: EncoderConfig, rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        widths = list(cfg.hidden_widths)
        dims = [cfg.bands] + widths
        self.hidden = [DenseLayer(dims[i], dims[i + 1], activation="relu", rng=rng)
                       for i in range(len(widths))]
        self.head = DenseLayer(dims[-1], cfg.abundance_dim - 1,
                               activation="sigmoid", rng=rng)
        n_beta = 1 if cfg.beta_shared else cfg.abundance_dim - 1
        raw_init = np.log(np.expm1(cfg.beta_init))  # softplus(raw) == beta_init
        self.beta_raw = Tensor(np.full(n_beta, raw_init),
                               requires_grad=cfg.beta_mode == "learnable")

    def stick_beta(self) -> Tensor:
        if self.cfg.beta_mode == "learnable":
            return ad.softplus(self.beta_raw)
        return Tensor(np.log1p(np.exp(self.beta_raw.data)))

    def encode(self, x: Tensor) -> SimplexBatch:
        h = x
        for layer in self.hidden:
            h = layer(h)
        u = ad.clamp(self.head(h), U_CLIP, 1.0 - U_CLIP)
        v = _kumaraswamy(u, self.stick_beta(),
                         standard=self.cfg.stick_transform == "standard")
        return stick_breaking(v)

    def __call__(self, x: Tensor) -> SimplexBatch:
        return self.encode(x)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.hidden):
            out += [(f"hidden{i}.{n}", t) for n, t in layer.parameters()]
        out += [(f"head.{n}", t) for n, t in self.head.parameters()]
        if self.cfg.beta_mode == "learnable":
            out.append(("beta_raw", self.beta_raw))
        return out


def normalized_entropy(a, p: float = 1.0) -> Tensor:
    """Scale-free entropy of nonnegative rows, averaged over the batch.

    Each row is normalized by its p-norm to the p-th power, then scored with
    Shannon entropy; 0*log(0) is defined as 0 via an epsilon-clamped log.
    Sparser rows score strictly lower even when their l1 norms are equal.
    """
    values = a.values if isinstance(a, SimplexBatch) else a
    mag = ad.power(ad.absolute(values), p) if p != 1.0 else ad.absolute(values)
    q = mag / ad.reduce_sum(mag, axis=1, keepdims=True)
    log_q = ad.log(ad.clamp(q, ENTROPY_EPS, np.inf))
    return ad.reduce_mean(ad.reduce_sum(q * log_q * -1.0, axis=1))


def sparse_loss(a_source: SimplexBatch, a_target: SimplexBatch) -> Tensor:
    """Summed normalized entropy of the two domains' abundance batches."""
    return normalized_entropy(a_source) + normalized_entropy(a_target)
