"""Mutual-information discriminator.

A small dense network scores (pixel, abundance) pairs. Positive pairs keep
each pixel with its own abundance row; negative pairs re-use the abundances
against row-shuffled pixels. The Jensen-Shannon bound built from softplus
scores is maximized, pulling each representation toward whatever reduces
uncertainty about its own input in both domains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import SimplexBatch
from .errors import ContractError, DimensionError
from .layers import DenseLayer

if TYPE_CHECKING:
    from .config import ModelConfig

DERANGEMENT_TRIES = 16
MI_HIDDEN = 13  # width of the one hidden layer


class MiDiscriminator:
    """Dense stack scoring concatenated (pixel, abundance) rows."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        in_dim = cfg.bands + cfg.abundance_dim
        self.dense0 = DenseLayer(in_dim, MI_HIDDEN, activation="relu", rng=rng)
        self.dense1 = DenseLayer(MI_HIDDEN, 1, activation="none", rng=rng)

    def score(self, x: Tensor, a: SimplexBatch) -> Tensor:
        if x.shape[0] != a.shape[0]:
            raise DimensionError(
                f"batch sizes differ: pixels {x.shape[0]}, abundances {a.shape[0]}")
        return self.dense1(self.dense0(ad.concat([x, a.values])))

    def parameters(self):
        out = [(f"dense0.{n}", t) for n, t in self.dense0.parameters()]
        out += [(f"dense1.{n}", t) for n, t in self.dense1.parameters()]
        return out


def shuffle_negatives(x: Tensor, seed: Union[int, np.random.Generator]) -> Tensor:
    """Row-permuted copy of x for negative pairs.

    Prefers a derangement (no row kept in place); falls back to a plain
    permutation after a bounded number of tries. The result is a fresh leaf:
    negatives are data, not a differentiable function of x.
    """
    n = x.shape[0]
    if n < 2:
        raise ContractError("negative sampling needs a batch of at least 2 rows")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(n)
    for _ in range(DERANGEMENT_TRIES - 1):
        if not np.any(perm == np.arange(n)):
            break
        perm = rng.permutation(n)
    return Tensor(x.data[perm].copy())


def js_mi_objective(disc: MiDiscriminator, x: Tensor, a: SimplexBatch,
                    x_shuffled: Tensor) -> Tensor:
    """Jensen-Shannon bound: E[-sp(-pos)] - E[sp(neg)]; larger is better.

    The bound is never positive and peaks at -2*log(2) for an uninformative
    discriminator that scores every pair 0.
    """
    pos = disc.score(x, a)
    neg = disc.score(x_shuffled, a)
    return ad.reduce_mean(ad.softplus(pos * -1.0) * -1.0) - ad.reduce_mean(ad.softplus(neg))


def mi_loss(disc: MiDiscriminator, x_source: Tensor, a_source: SimplexBatch,
            x_target: Tensor, a_target: SimplexBatch, seed: int) -> Tensor:
    """Sum of per-domain bounds, each with its own shuffled negatives.

    Returned as a quantity to maximize; the trainer negates it inside the
    minimized total objective.
    """
    child_s, child_t = domain_shuffle_rngs(seed)
    obj_s = js_mi_objective(disc, x_source, a_source,
                            shuffle_negatives(x_source, child_s))
    obj_t = js_mi_objective(disc, x_target, a_target,
                            shuffle_negatives(x_target, child_t))
    return obj_s + obj_t


def domain_shuffle_rngs(seed: int):
    """Independent child generators for the two domains' shuffles."""
    children = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])
