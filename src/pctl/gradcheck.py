"""Finite-difference verification of every backward rule.

Each differentiable operation is checked against central differences on
small random instances over several seeds; the composed training objective
is checked on a tiny end-to-end model with every parameter tensor probed at
a deterministic subsample of coordinates. All checks are deterministic, so a
passing configuration passes forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, fresh_tape
from .classifier import extract_patches
from .data import SynthSpec, generate_synthetic_pair
from .decoder import AffineDecoder, reconstruction_loss
from .encoder import Encoder, kumaraswamy_transform, normalized_entropy, stick_breaking
from .layers import BatchNorm3d, DenseLayer, Dropout, one_hot, softmax, softmax_cross_entropy
from .mi import MiDiscriminator, js_mi_objective, shuffle_negatives
from .trainer import ModelConfig, ModelState, TrainConfig, compute_losses

FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def fd_check(build_loss, tensors, max_coords: int = 0, objectives=None) -> float:
    """Worst relative error between backward and central differences.

    The analytic gradient is always the backward of ``build_loss``. By
    default each tensor's central differences are taken of that same loss;
    ``objectives`` instead gives, per tensor, a zero-argument function
    returning the scalar whose differences that tensor's gradient must match.
    """
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    with fresh_tape():
        build_loss().backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    def loss_value() -> float:
        with fresh_tape():
            return build_loss().item()

    objectives = objectives or [loss_value] * len(tensors)
    worst = 0.0
    probe_rng = np.random.default_rng(0)
    for t, ana, value in zip(tensors, analytic, objectives):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords and flat.size > max_coords:
            coords = np.sort(probe_rng.choice(flat.size, max_coords, replace=False))
        for i in coords:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = value()
            flat[i] = orig - FD_STEP
            fm = value()
            flat[i] = orig
            worst = max(worst, rel_err(np.float64((fp - fm) / (2 * FD_STEP)),
                                       np.float64(ana_flat[i])))
    return worst


def _op_checks(seed: int):
    rng = np.random.default_rng(seed)
    a23 = Tensor(rng.uniform(0.3, 2.0, (2, 3)))
    b23 = Tensor(rng.uniform(0.3, 2.0, (2, 3)))
    m34 = Tensor(rng.standard_normal((3, 4)))
    m42 = Tensor(rng.standard_normal((4, 2)))
    w32 = rng.standard_normal((3, 2))

    yield ("matmul", 1e-6, lambda: ad.reduce_sum(ad.matmul(m34, m42) * Tensor(w32)),
           [m34, m42])
    yield ("add", 1e-6, lambda: ad.reduce_sum((a23 + b23) * b23), [a23, b23])
    yield ("sub", 1e-6, lambda: ad.reduce_sum((a23 - b23) * a23), [a23, b23])
    yield ("mul", 1e-6, lambda: ad.reduce_sum(a23 * b23), [a23, b23])
    yield ("div", 1e-6, lambda: ad.reduce_sum(a23 / b23), [a23, b23])
    yield ("neg", 1e-6, lambda: ad.reduce_sum(-a23 * b23), [a23])
    yield ("pow-scalar", 1e-6, lambda: ad.reduce_sum(ad.power(a23, 1.7)), [a23])
    yield ("pow-tensor", 1e-6, lambda: ad.reduce_sum(ad.power(a23, b23)), [a23, b23])
    yield ("exp", 1e-6, lambda: ad.reduce_sum(ad.exp(a23 * 0.5)), [a23])
    yield ("log", 1e-6, lambda: ad.reduce_sum(ad.log(a23)), [a23])

    x3 = Tensor(rng.uniform(-2.0, 2.0, 5) + np.where(rng.random(5) < 0.5, -0.2, 0.2))
    yield ("sigmoid", 1e-6, lambda: ad.reduce_sum(ad.sigmoid(x3 * 3.0)), [x3])
    yield ("softplus", 1e-6, lambda: ad.reduce_sum(ad.softplus(x3 * 3.0)), [x3])
    yield ("relu", 1e-6, lambda: ad.reduce_sum(ad.relu(x3) * x3), [x3])
    yield ("abs", 1e-6, lambda: ad.reduce_sum(ad.absolute(x3) * x3), [x3])
    yield ("clamp", 1e-6, lambda: ad.reduce_sum(ad.clamp(x3, -1.5, 1.5) * x3), [x3])

    red = Tensor(rng.uniform(0.2, 1.0, (3, 5)))
    wred = rng.standard_normal((3, 1))
    yield ("sum", 1e-6, lambda: ad.reduce_sum(ad.reduce_sum(red, axis=1, keepdims=True)
                                              * Tensor(wred)), [red])
    yield ("mean", 1e-6, lambda: ad.reduce_sum(ad.reduce_mean(red, axis=0)), [red])

    z = rng.uniform(0.2, 1.0, (2, 4))
    z[0, 1] = 0.0
    zt = Tensor(z)
    wz = rng.standard_normal((2, 4))
    yield ("cumprod", 1e-5, lambda: ad.reduce_sum(ad.cumprod(zt) * Tensor(wz)), [zt])

    shp = Tensor(rng.standard_normal((2, 3, 4)))
    wshp = rng.standard_normal((4, 12))
    yield ("reshape-transpose-concat", 1e-6,
           lambda: ad.reduce_sum(ad.reshape(ad.transpose(
               ad.concat([shp, shp]), (2, 0, 1)), (4, 12)) * Tensor(wshp)),
           [shp])

    cx = Tensor(rng.standard_normal((2, 2, 4, 5, 5)))
    ck = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
    wconv = rng.standard_normal((2, 3, 4, 5, 5))
    yield ("conv3d", 1e-5,
           lambda: ad.reduce_sum(ad.conv3d(cx, ck, padding=1) * Tensor(wconv)), [cx, ck])

    bx = Tensor(rng.standard_normal((4, 3, 2, 3, 3)))
    bgamma = Tensor(rng.uniform(0.5, 2.0, 3))
    bbeta = Tensor(rng.standard_normal(3))
    moments = (rng.standard_normal(3), rng.uniform(0.2, 3.0, 3))
    wbn = rng.standard_normal(bx.shape)
    yield ("batch_norm-train", 1e-5,
           lambda: ad.reduce_sum(ad.batch_norm(bx, bgamma, bbeta, 1e-5)[0] * Tensor(wbn)),
           [bx, bgamma, bbeta])
    yield ("batch_norm-eval", 1e-6,
           lambda: ad.reduce_sum(ad.batch_norm(bx, bgamma, bbeta, 1e-5, moments)[0]
                                 * Tensor(wbn)),
           [bx, bgamma, bbeta])

    # drawn last, so that the cases above keep their random instances
    pre = Tensor(rng.standard_normal((2, 3, 2, 3)))
    piece = Tensor(rng.standard_normal((2, 2, 2, 3)))
    wpre = rng.standard_normal(pre.shape)
    wboth = rng.standard_normal((2, 5, 2, 3))

    def grown_prefix():
        # a channels-last buffer: the second call finds its first piece in place
        buf = np.empty((2, 2, 3, 6)).transpose(0, 3, 1, 2)
        head = ad.concat([pre], buf[:, :3])
        both = ad.concat([head, piece], buf[:, :5])
        return ad.reduce_sum(head * Tensor(wpre)) + ad.reduce_sum(both * Tensor(wboth))

    yield ("concat-prefix", 1e-6, grown_prefix, [pre, piece])


def op_suite(seeds=range(10), tol_override: float | None = None):
    """Run the per-op checks across seeds, keeping the worst error per op."""
    worst: dict[str, CheckResult] = {}
    for seed in seeds:
        for name, tol, build, tensors in _op_checks(seed):
            err = fd_check(build, tensors)
            tol = tol_override if tol_override is not None else tol
            if name not in worst or err > worst[name].max_rel_err:
                worst[name] = CheckResult(name, err, tol)
    return list(worst.values())


def layer_checks():
    """Gradient checks for layer compositions and the model's loss pieces."""
    rng = np.random.default_rng(0)
    results = []

    l1 = DenseLayer(4, 6, activation="relu", rng=rng)
    l2 = DenseLayer(6, 3, activation="sigmoid", rng=rng)
    x = Tensor(rng.uniform(0.2, 1.0, (3, 4)))
    params = [l1.weight, l1.bias, l2.weight, l2.bias, x]
    results.append(CheckResult("dense-stack", fd_check(
        lambda: ad.reduce_sum(l2(l1(x))), params), 1e-5))

    bn = BatchNorm3d(3)
    bx = Tensor(rng.standard_normal((4, 3, 2, 3, 3)))
    wb = rng.standard_normal(bx.shape)

    def bn_loss():
        bn.running_mean = np.zeros(3)
        bn.running_var = np.ones(3)
        return ad.reduce_sum(bn(bx, train=True) * Tensor(wb))

    results.append(CheckResult("batchnorm3d", fd_check(
        bn_loss, [bx, bn.gamma, bn.beta]), 1e-5))

    logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    labels = Tensor(one_hot(rng.integers(0, 4, 3), 4))
    logits.zero_grad()
    with fresh_tape():
        softmax_cross_entropy(logits, labels).backward()
    expected = (softmax(logits.data) - labels.data) / 3.0
    results.append(CheckResult("softmax-cross-entropy",
                               rel_err(logits.grad, expected), 1e-8))

    drop = Dropout(0.4, rng=np.random.default_rng(0))
    dx = Tensor(rng.uniform(0.5, 1.5, (4, 5)), requires_grad=True)
    dx.zero_grad()
    with fresh_tape():
        out = drop(dx, train=True)
        ad.reduce_sum(out).backward()
    realized_mask = np.where(dx.data != 0, out.data / dx.data, 0.0)
    results.append(CheckResult("dropout-mask", rel_err(dx.grad, realized_mask), 1e-12))

    v = Tensor(rng.uniform(0.1, 0.9, (4, 3)))
    wv = rng.standard_normal((4, 4))
    results.append(CheckResult("stick-breaking", fd_check(
        lambda: ad.reduce_sum(stick_breaking(v).values * Tensor(wv)), [v]), 1e-5))

    u = Tensor(rng.uniform(0.1, 0.9, (4, 3)))
    beta = Tensor(rng.uniform(0.5, 2.5, 3))
    results.append(CheckResult("kumaraswamy", fd_check(
        lambda: ad.reduce_sum(kumaraswamy_transform(u, beta)), [u, beta]), 1e-5))

    raw = rng.uniform(0.05, 1.0, (5, 4))
    simplex = Tensor(raw / raw.sum(axis=1, keepdims=True))
    results.append(CheckResult("normalized-entropy", fd_check(
        lambda: normalized_entropy(simplex), [simplex]), 1e-5))

    small = ModelConfig(bands=6, num_classes=2, abundance_dim=4, encoder_hidden=[7, 5])
    enc = Encoder(small, rng=np.random.default_rng(1))
    dec = AffineDecoder(small, rng=np.random.default_rng(2))
    ex = Tensor(rng.uniform(0.1, 1.0, (4, 6)))
    et = Tensor(rng.uniform(0.1, 1.0, (4, 6)))
    enc_params = [t for _, t in enc.parameters()] + [t for _, t in dec.parameters()]

    def recon_loss():
        a_s, a_t = enc.encode(ex), enc.encode(et)
        return reconstruction_loss(dec.decode_source(a_s), ex,
                                   dec.basis(a_t), et)

    results.append(CheckResult("encode-decode", fd_check(recon_loss, enc_params),
                               1e-5))

    disc = MiDiscriminator(small, rng=np.random.default_rng(3))
    neg = shuffle_negatives(ex, 7)
    mi_params = [t for _, t in disc.parameters()]

    def mi_obj():
        return js_mi_objective(disc, ex, enc.encode(ex), neg) * -1.0

    results.append(CheckResult("js-mi-objective", fd_check(
        mi_obj, mi_params + [t for _, t in enc.parameters()]), 1e-5))
    return results


def composite_check() -> CheckResult:
    """FD check of the training gradient on a tiny end-to-end model.

    The analytic gradient is the backward of the combined objective, exactly
    as the trainer computes it. Each parameter is checked against the
    objective that trains it: classifier tensors against the classification
    loss, every other tensor against the unmixing terms (total minus LS).
    Every parameter tensor is probed at a deterministic subsample of ten
    coordinates; dropout is disabled so the loss is a fixed function of the
    parameters.
    """
    spec = SynthSpec(classes=3, abundance_dim=4, bands=8, pixels_per_class=36,
                     noise_sigma=0.005, seed=3)
    source, target, _ = generate_synthetic_pair(spec)
    model_cfg = ModelConfig(bands=8, num_classes=3, abundance_dim=4,
                            encoder_hidden=[7, 6], patch_size=5,
                            block_channels=[2, 2, 2, 2, 2], dropout_rate=0.0)
    train_cfg = TrainConfig(alpha=0.01, mi_weight=0.1, seed=3,
                            label_fraction=0.5, epochs=0)
    state = ModelState(model_cfg, train_cfg, seed=3)

    rng = np.random.default_rng(3)
    xs = source.pixels()[rng.choice(source.pixels().shape[0], 6, replace=False)]
    xt = target.pixels()[rng.choice(target.pixels().shape[0], 6, replace=False)]
    labeled = np.argwhere(source.labels > 0)
    centers = labeled[rng.choice(len(labeled), 4, replace=False)]
    patches = extract_patches(source.reflectance, centers, model_cfg.patch_size)
    labels = source.labels[centers[:, 0], centers[:, 1]] - 1

    def build():
        loss, _ = compute_losses(state, xs, xt, patches, labels, mi_seed=11)
        return loss

    def parts():
        with fresh_tape():
            return compute_losses(state, xs, xt, patches, labels, mi_seed=11)[1]

    def unmixing() -> float:
        p = parts()
        return p["total"] - p["LS"]

    def classification() -> float:
        return parts()["LS"]

    named = state.parameters()
    objectives = [classification if name.startswith("clf.") else unmixing
                  for name, _ in named]
    err = fd_check(build, [t for _, t in named], max_coords=10,
                   objectives=objectives)
    return CheckResult("composite-objective", err, 1e-4)


def run_all(seeds=range(10)):
    """Full verification sweep; returns (results, all_passed)."""
    results = op_suite(seeds)
    results += layer_checks()
    results.append(composite_check())
    return results, all(r.passed for r in results)
