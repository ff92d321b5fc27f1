"""End-to-end acceptance suite.

Each test carries a criterion number; the conftest summary hook prints one
pass/fail line per criterion after the run. The synthetic transfer experiment
(criterion 7) trains once in a session fixture and is shared by the
structure, ablation, and visualization criteria.
"""

import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff as ad
from pctl.autodiff import Tensor, fresh_tape, no_grad
from pctl.data import SynthSpec, generate_synthetic_pair
from pctl.decoder import AffineDecoder
from pctl.encoder import (
    Encoder,
    SimplexBatch,
    normalized_entropy,
    sparse_loss,
    stick_breaking,
)
from pctl.gradcheck import composite_check, layer_checks, op_suite
from pctl.layers import one_hot
from pctl.metrics import (
    ConfusionMatrix,
    confusion,
    domain_overlap_score,
    oa_aa_kappa,
    svd_project_2d,
)
from pctl.mi import MiDiscriminator, js_mi_objective, shuffle_negatives
from pctl.trainer import (
    ModelConfig,
    ModelState,
    TrainConfig,
    abundance_map,
    evaluate,
    load_checkpoint,
    predict,
    run_ablation,
    save_checkpoint,
    train,
)

# The frozen experiment recipe: default synthetic scene, 5% source labels,
# 200 epochs, one seed for everything. Patch size 3 keeps the run inside the
# single-core time budget.
EXPERIMENT_SEED = 1
ACCEPT_MODEL = dict(bands=40, num_classes=4, abundance_dim=6, patch_size=3,
                    dropout_rate=0.25)
ACCEPT_TRAIN = dict(alpha=0.001, mi_weight=0.1, learning_rate=1e-3,
                    batch_recon=256, batch_class=64, epochs=200,
                    steps_per_epoch=1, seed=EXPERIMENT_SEED,
                    label_fraction=0.05, eval_every=10, eval_samples=64)


class SimpleAdam:
    """Self-contained optimizer for the single-loss criterion tests."""

    def __init__(self, tensors, lr=1e-2):
        self.tensors = list(tensors)
        self.lr = lr
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.step = 0

    def update(self):
        self.step += 1
        for i, t in enumerate(self.tensors):
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            self.m[i] = 0.9 * self.m[i] + 0.1 * g
            self.v[i] = 0.999 * self.v[i] + 0.001 * g * g
            m_hat = self.m[i] / (1 - 0.9 ** self.step)
            v_hat = self.v[i] / (1 - 0.999 ** self.step)
            t.data -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            t.zero_grad()


@pytest.fixture(scope="session")
def experiment():
    """Train the full model once on the default synthetic pair."""
    source, target, truth = generate_synthetic_pair(SynthSpec())
    model_cfg = ModelConfig(**ACCEPT_MODEL)
    train_cfg = TrainConfig(**ACCEPT_TRAIN)
    state = ModelState(model_cfg, train_cfg, seed=train_cfg.seed)
    started = time.perf_counter()
    rows = train(state, source, target, train_cfg)
    wall = time.perf_counter() - started
    return {"state": state, "source": source, "target": target,
            "truth": truth, "rows": rows, "wall": wall,
            "model_cfg": model_cfg, "train_cfg": train_cfg}


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    results = op_suite(range(10), tol_override=1e-4)
    results += layer_checks()
    results.append(composite_check())
    elapsed = time.perf_counter() - started
    failures = [f"{r.name}: {r.max_rel_err:.3e}" for r in results if not r.passed]
    assert not failures, failures
    assert max(r.max_rel_err for r in results) < 1e-4
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


def test_criterion_02_simplex_physics():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(100):
        bands = int(rng.integers(4, 30))
        c = int(rng.integers(2, 9))
        enc = Encoder(ModelConfig(bands=bands, num_classes=2, abundance_dim=c),
                      rng=np.random.default_rng(1000 + trial))
        x = Tensor(rng.standard_normal((64, bands)) * rng.uniform(0.5, 5.0))
        with no_grad():
            out = enc.encode(x).values.data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
    assert time.perf_counter() - started < 10.0


def test_criterion_03_entropy_sparsity():
    c = 6
    one_hot_row = Tensor(np.eye(c)[:1])
    assert abs(normalized_entropy(one_hot_row).item()) <= 1e-12
    uniform_row = Tensor(np.full((1, c), 1.0 / c))
    assert abs(normalized_entropy(uniform_row).item() - np.log(c)) <= 1e-12

    path_values = []
    for t in np.linspace(0.0, 1.0, 21):
        row = (1 - t) * np.full(c, 1.0 / c) + t * np.eye(c)[0]
        path_values.append(normalized_entropy(Tensor(row[None])).item())
    assert np.all(np.diff(path_values) < 0.0)

    # minimizing the sparsity objective alone drives rows toward one-hot;
    # the start is near-uniform but not exact (the exact uniform point is a
    # stationary maximum where gradient descent cannot move)
    cfg = ModelConfig(bands=12, num_classes=2, abundance_dim=4, encoder_hidden=[8, 6])
    enc = Encoder(cfg, rng=np.random.default_rng(3))
    enc.head.weight.data[:] = 1e-3 * np.random.default_rng(30).standard_normal(
        enc.head.weight.shape)
    sticks = cfg.abundance_dim - 1
    uniform_v = np.array([1.0 / (cfg.abundance_dim - j) for j in range(sticks)])
    enc.head.bias.data[:] = np.log(uniform_v / (1 - uniform_v))
    rng = np.random.default_rng(4)
    xs = Tensor(rng.uniform(0.0, 1.0, (32, 12)))
    xt = Tensor(rng.uniform(0.0, 1.0, (32, 12)))
    start = enc.encode(xs).values.data
    npt.assert_allclose(start, 1.0 / cfg.abundance_dim, atol=1e-2)

    params = [t for _, t in enc.parameters()]
    for t in params:
        t.requires_grad = True
    opt = SimpleAdam(params, lr=1e-2)
    for _ in range(500):
        with fresh_tape():
            loss = sparse_loss(enc.encode(xs), enc.encode(xt))
            loss.backward()
        opt.update()
    with no_grad():
        final = np.concatenate([enc.encode(xs).values.data,
                                enc.encode(xt).values.data])
    assert final.max(axis=1).mean() > 0.95


def test_criterion_04_mi_bound_sanity():
    rng = np.random.default_rng(5)
    disc = MiDiscriminator(ModelConfig(bands=10, num_classes=2, abundance_dim=4),
                           rng=np.random.default_rng(6))
    for _ in range(1000):
        x = Tensor(rng.standard_normal((8, 10)) * rng.uniform(0.5, 3.0))
        raw = rng.uniform(0.05, 1.0, (8, 4))
        a = SimplexBatch(Tensor(raw / raw.sum(axis=1, keepdims=True)))
        obj = js_mi_objective(disc, x, a, shuffle_negatives(x, rng)).item()
        assert obj <= 0.0

    for layer in (disc.dense0, disc.dense1):
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 0.0
    x = Tensor(rng.standard_normal((16, 10)))
    raw = rng.uniform(0.05, 1.0, (16, 4))
    a = SimplexBatch(Tensor(raw / raw.sum(axis=1, keepdims=True)))
    zero_obj = js_mi_objective(disc, x, a, shuffle_negatives(x, rng)).item()
    assert abs(zero_obj - (-2.0 * np.log(2.0))) <= 1e-12

    # deterministic pixel-abundance pairs: the trained bound detects dependence
    disc = MiDiscriminator(ModelConfig(bands=10, num_classes=2, abundance_dim=4),
                           rng=np.random.default_rng(7))
    basis = np.random.default_rng(8).uniform(0.0, 1.0, (4, 10))
    params = [t for _, t in disc.parameters()]
    for t in params:
        t.requires_grad = True
    opt = SimpleAdam(params, lr=1e-2)
    data_rng = np.random.default_rng(9)
    for step in range(300):
        raw = data_rng.uniform(0.01, 1.0, (64, 4))
        abund = raw / raw.sum(axis=1, keepdims=True)
        x = Tensor(abund @ basis)
        a = SimplexBatch(Tensor(abund))
        with fresh_tape():
            objective = js_mi_objective(disc, x, a,
                                        shuffle_negatives(x, 5000 + step))
            (objective * -1.0).backward()
        opt.update()
    raw = data_rng.uniform(0.01, 1.0, (256, 4))
    abund = raw / raw.sum(axis=1, keepdims=True)
    x = Tensor(abund @ basis)
    with no_grad():
        trained_obj = js_mi_objective(disc, x, SimplexBatch(Tensor(abund)),
                                      shuffle_negatives(x, 99)).item()
    assert trained_obj > -2.0 * np.log(2.0) + 0.5


def test_criterion_05_affine_decoder_structure():
    # structural sharing on a fresh decoder
    dec = AffineDecoder(ModelConfig(bands=8, num_classes=2, abundance_dim=4),
                        rng=np.random.default_rng(10))
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.05, 1.0, (6, 4))
    a = SimplexBatch(Tensor(raw / raw.sum(axis=1, keepdims=True)))
    xs0, xt0 = dec.decode_source(a).data.copy(), dec.basis(a).data.copy()
    dec.basis_out.weight.data[0, 0] += 0.25
    assert not np.allclose(dec.decode_source(a).data, xs0)
    assert not np.allclose(dec.basis(a).data, xt0)
    xs1, xt1 = dec.decode_source(a).data.copy(), dec.basis(a).data.copy()
    dec.src_scale.data[0] += 0.25
    dec.src_offset.data[0] -= 0.1
    assert not np.allclose(dec.decode_source(a).data, xs1)
    npt.assert_array_equal(dec.basis(a).data, xt1)

    # trained on a noiseless pair, the cross-domain band map is affine
    source, target, _ = generate_synthetic_pair(SynthSpec(noise_sigma=0.0))
    cfg = TrainConfig(**{**ACCEPT_TRAIN, "epochs": 60})
    state = ModelState(ModelConfig(**ACCEPT_MODEL), cfg, seed=cfg.seed)
    train(state, source, target, cfg)
    with no_grad():
        a = state.encoder.encode(Tensor(source.pixels()[:512]))
        xs = state.decoder.decode_source(a).data
        xt = state.decoder.basis(a).data
    for band in range(xs.shape[1]):
        s, t = xs[:, band], xt[:, band]
        slope, intercept = np.polyfit(s, t, 1)
        residual = t - (slope * s + intercept)
        r2 = 1.0 - residual.var() / t.var()
        assert r2 > 0.99, f"band {band}: R^2 {r2}"


def test_criterion_06_metrics_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        truth = rng.integers(0, k + 1, 1000)
        pred = rng.integers(1, k + 1, 1000)
        if not np.any(truth > 0):
            continue
        cm = confusion(truth, pred, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oa, aa, kappa = oa_aa_kappa(cm)
        keep = truth > 0
        t, p = truth[keep], pred[keep]
        oa_ref = float(np.mean(t == p))
        recalls = [np.mean(p[t == c] == c) for c in range(1, k + 1) if np.any(t == c)]
        pe = sum((np.mean(t == c)) * (np.mean(p == c)) for c in range(1, k + 1))
        assert oa == oa_ref
        npt.assert_allclose(aa, np.mean(recalls), atol=1e-12)
        if pe < 1.0:
            npt.assert_allclose(kappa, (oa_ref - pe) / (1 - pe), atol=1e-12)

    # worked example, values derived from the stated formulas
    oa, aa, kappa = oa_aa_kappa(ConfusionMatrix([[25, 5], [10, 60]]))
    npt.assert_allclose(oa, 0.85, atol=1e-12)
    npt.assert_allclose(aa, 0.8452380952380952, atol=1e-6)
    npt.assert_allclose(kappa, 0.6590909090909090, atol=1e-6)


def test_criterion_07_synthetic_transfer_experiment(experiment):
    rows = experiment["rows"]
    final = rows[-1]
    assert final["epoch"] == 200
    assert final["source_oa"] >= 0.95, f"source OA {final['source_oa']:.4f}"
    assert final["target_oa"] >= 0.90, f"target OA {final['target_oa']:.4f}"
    assert experiment["wall"] < 300.0, f"training took {experiment['wall']:.0f}s"
    # the trained state reproduces the logged numbers exactly
    oa, _, _ = evaluate(experiment["state"], experiment["source"])
    npt.assert_allclose(oa, final["source_oa"], atol=1e-12)


def test_criterion_07b_encoder_recovers_generator_abundances(experiment):
    """Mean abundance error against the generator truth, best permutation."""
    from itertools import permutations

    state, source = experiment["state"], experiment["source"]
    truth = experiment["truth"]["source"].reshape(-1, 6)
    amap = abundance_map(state, source).reshape(-1, 6)
    best = np.inf
    for perm in permutations(range(6)):
        rmse = float(np.sqrt(np.mean((amap[:, perm] - truth) ** 2)))
        best = min(best, rmse)
    assert best < 0.15, f"abundance RMSE {best:.3f}"


def test_criterion_08_ablation_ordering(experiment):
    source, target = experiment["source"], experiment["target"]
    model_cfg, train_cfg = experiment["model_cfg"], experiment["train_cfg"]
    rows = run_ablation(model_cfg, train_cfg, source, target,
                        variants=("classifier-only", "shared-decoder"))
    by_name = {r["variant"]: r for r in rows}
    full_target_oa = evaluate(experiment["state"], target)[0]
    clf_only = by_name["classifier-only"]
    shared = by_name["shared-decoder"]
    assert clf_only["source_oa"] >= 0.95, clf_only["source_oa"]
    assert shared["target_oa"] - clf_only["target_oa"] >= 0.03, \
        (clf_only["target_oa"], shared["target_oa"])
    assert full_target_oa - shared["target_oa"] >= 0.03, \
        (shared["target_oa"], full_target_oa)


def test_criterion_09_shared_space_overlap(experiment):
    state = experiment["state"]
    source, target = experiment["source"], experiment["target"]
    src_centers = np.argwhere(source.labels > 0)
    tgt_centers = np.argwhere(target.labels > 0)
    src_labels = source.labels[src_centers[:, 0], src_centers[:, 1]]
    tgt_labels = target.labels[tgt_centers[:, 0], tgt_centers[:, 1]]

    raw_src = source.reflectance[src_centers[:, 0], src_centers[:, 1]]
    raw_tgt = target.reflectance[tgt_centers[:, 0], tgt_centers[:, 1]]
    proj = svd_project_2d(np.vstack([raw_src, raw_tgt]))
    raw_scores = domain_overlap_score(proj[:len(raw_src)], src_labels,
                                      proj[len(raw_src):], tgt_labels)

    ab_src = abundance_map(state, source)[src_centers[:, 0], src_centers[:, 1]]
    ab_tgt = abundance_map(state, target)[tgt_centers[:, 0], tgt_centers[:, 1]]
    proj = svd_project_2d(np.vstack([ab_src, ab_tgt]))
    ab_scores = domain_overlap_score(proj[:len(ab_src)], src_labels,
                                     proj[len(ab_src):], tgt_labels)

    assert set(raw_scores) == set(ab_scores) == {1, 2, 3, 4}
    for cls in raw_scores:
        assert ab_scores[cls] < raw_scores[cls], \
            f"class {cls}: abundance {ab_scores[cls]:.3f} vs raw {raw_scores[cls]:.3f}"


def test_criterion_10_determinism_and_persistence(experiment, tmp_path):
    # byte-identical checkpoints and metric logs for a repeated small run
    source, target, _ = generate_synthetic_pair(
        SynthSpec(classes=3, abundance_dim=5, bands=10, pixels_per_class=64,
                  noise_sigma=0.01, seed=21))
    cfg = TrainConfig(alpha=0.001, mi_weight=0.1, epochs=4, steps_per_epoch=1,
                      batch_recon=32, batch_class=8, label_fraction=0.25,
                      eval_every=2, eval_samples=16, seed=13)
    model_cfg = ModelConfig(bands=10, num_classes=3, abundance_dim=5,
                            patch_size=3, block_channels=[2, 2, 2, 2, 2],
                            encoder_hidden=[8, 6])
    from pctl.trainer import format_metrics_csv
    blobs = []
    for run in range(2):
        state = ModelState(model_cfg, cfg, seed=cfg.seed)
        rows = train(state, source, target, cfg)
        path = tmp_path / f"run{run}.pctl"
        save_checkpoint(state, path)
        blobs.append((path.read_bytes(), format_metrics_csv(rows)))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]

    # checkpoint round-trip preserves the big experiment's predictions exactly
    state = experiment["state"]
    path = tmp_path / "experiment.pctl"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    target = experiment["target"]
    npt.assert_array_equal(predict(state, target), predict(loaded, target))
