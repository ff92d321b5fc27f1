import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff as ad
from pctl.autodiff import Tensor, fresh_tape, no_grad
from pctl.classifier import (
    PREDICT_BATCH,
    Classifier3d,
    abundance_patches_from_map,
    classification_loss,
    conv_kernel,
    encode_patches,
    extract_patches,
    window_pixels,
)
from pctl.config import ModelConfig
from pctl.encoder import Encoder
from pctl.errors import ContractError, DimensionError
from pctl.gradcheck import fd_check
from pctl.layers import one_hot


def tiny_config(**kw):
    base = dict(bands=4, abundance_dim=3, num_classes=2, patch_size=3,
                block_channels=[2, 2, 2, 2, 2], dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


def encoder(bands, abundance_dim, seed):
    return Encoder(ModelConfig(bands=bands, num_classes=2, abundance_dim=abundance_dim),
                   rng=np.random.default_rng(seed))


def classifier(cfg, seed):
    return Classifier3d(cfg, rng=np.random.default_rng(seed),
                        dropout_rng=np.random.default_rng(0))


def random_abundance_patch(rng, n, c, p):
    raw = rng.uniform(0.05, 1.0, (n, p, p, c))
    raw /= raw.sum(axis=3, keepdims=True)
    volume = np.ascontiguousarray(raw.transpose(0, 3, 1, 2))[:, None]
    return Tensor(volume)


class TestConfig:
    def test_kernel_clamped_to_geometry(self):
        assert conv_kernel(abundance_dim=2, patch_size=5) == (2, 5, 5)
        assert conv_kernel(abundance_dim=6, patch_size=11) == (3, 7, 7)


class TestDenseConnectivity:
    def test_block_input_channels(self):
        cfg = ModelConfig(bands=4, abundance_dim=4, num_classes=3, patch_size=5)
        clf = classifier(cfg, seed=0)
        for i, block in enumerate(clf.blocks):
            expected = 1 + sum(cfg.block_channels[:i])
            assert block.kernels.shape[1] == expected

    def test_default_table_channels(self):
        cfg = ModelConfig(bands=4, abundance_dim=4, num_classes=3, patch_size=5)
        assert cfg.block_channels == [12, 32, 12, 12, 30]


class TestLogits:
    def test_zero_head_gives_uniform_softmax(self):
        cfg = tiny_config(num_classes=4)
        clf = classifier(cfg, seed=1)
        clf.head.weight.data[:] = 0.0
        clf.head.bias.data[:] = 0.0
        patch = random_abundance_patch(np.random.default_rng(2), 3, 3, 3)
        logits = clf.logits(patch, train=False)
        npt.assert_array_equal(logits.data, 0.0)
        labels = Tensor(one_hot(np.array([0, 1, 2]), 4))
        npt.assert_allclose(classification_loss(logits, labels).item(),
                            np.log(4.0), atol=1e-12)

    def test_inference_deterministic(self):
        clf = classifier(tiny_config(dropout_rate=0.5), seed=3)
        patch = random_abundance_patch(np.random.default_rng(4), 2, 3, 3)
        with no_grad():
            a = clf.logits(patch, train=False).data
            b = clf.logits(patch, train=False).data
        npt.assert_array_equal(a, b)

    def test_wrong_patch_dims_rejected(self):
        clf = classifier(tiny_config(), seed=5)
        wrong_size = random_abundance_patch(np.random.default_rng(6), 2, 3, 5)
        fits = random_abundance_patch(np.random.default_rng(6), 2, 3, 3).data
        no_channel_axis = Tensor(fits[:, 0])
        two_channels = Tensor(np.concatenate([fits, fits], axis=1))
        for bad in (wrong_size, no_channel_axis, two_channels):
            with pytest.raises(DimensionError):
                clf.logits(bad, train=False)

    def test_end_to_end_gradient(self):
        cfg = tiny_config()
        clf = classifier(cfg, seed=7)
        patch = random_abundance_patch(np.random.default_rng(8), 2, 3, 3)
        labels = Tensor(one_hot(np.array([0, 1]), 2))
        params = [t for _, t in clf.parameters()]

        def loss():
            return classification_loss(clf.logits(patch, train=True), labels)

        assert fd_check(loss, params) < 1e-4


def concat_logits(clf, x, train):
    """The dense forward with a fresh ``ad.concat`` of every earlier output
    for each block, and no memory reused."""
    feats = [x]
    for block in clf.blocks:
        inp = feats[0] if len(feats) == 1 else ad.concat(feats)
        y = ad.conv3d(inp, block.kernels, padding=block.padding)
        feats.append(ad.relu(block.bn(y, train)))
    flat = ad.reshape(feats[-1], (x.shape[0], -1))
    return clf.head(clf.dropout(flat, train))


class TestDenseBuffer:
    """Classifier3d.logits keeps the dense inputs in one channels-last buffer."""

    @pytest.mark.parametrize("patch", [1, 3, 5])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_buffer_computes_what_concat_did(self, patch, batch):
        cfg = ModelConfig(bands=4, abundance_dim=3, num_classes=3, patch_size=patch)
        clfs = [classifier(cfg, seed=11) for _ in range(2)]
        for clf in clfs:
            for i, block in enumerate(clf.blocks):
                moments = np.random.default_rng(i)
                block.bn.running_mean = moments.standard_normal(block.bn.channels)
                block.bn.running_var = moments.uniform(0.5, 2.0, block.bn.channels)
        x = random_abundance_patch(np.random.default_rng(12), batch, 3, patch)
        with no_grad():
            npt.assert_array_equal(clfs[0].logits(x, train=False).data,
                                   concat_logits(clfs[1], x, train=False).data)

        labels = Tensor(one_hot(np.arange(batch) % 3, 3))
        losses = []
        for clf, forward in zip(clfs, (Classifier3d.logits, concat_logits)):
            with fresh_tape():
                loss = classification_loss(forward(clf, x, True), labels)
                loss.backward()
            losses.append(loss.item())
        npt.assert_allclose(losses[0], losses[1], rtol=0, atol=1e-12)
        for (name, a), (_, b) in zip(clfs[0].parameters(), clfs[1].parameters()):
            npt.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12, err_msg=name)
        for (name, a), (_, b) in zip(clfs[0].buffers(), clfs[1].buffers()):
            npt.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    def test_inference_peak_stays_under_three_buffers(self):
        """At patch 5 and batch 256 (pctl predict's batch), one inference call
        allocates less than 3 times the dense buffer, so no block holds a
        concatenated copy of its input beside it."""
        import tracemalloc

        cfg = ModelConfig(bands=10, num_classes=4, patch_size=5)
        clf = classifier(cfg, seed=13)
        c = cfg.abundance_dim
        x = random_abundance_patch(np.random.default_rng(14), PREDICT_BATCH, c, 5)
        buffer_bytes = (PREDICT_BATCH * c * 5 * 5 * 8
                        * (1 + sum(cfg.block_channels[:-1])))
        tracemalloc.start()
        try:
            with no_grad():
                clf.logits(x, train=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * buffer_bytes, (peak, buffer_bytes)

    def test_backward_peak_stays_near_the_forward(self):
        """One training step at patch 3 and batch 64: the backward frees each
        node's saved arrays and interior gradient once it has used them, so
        its peak stays below 1.5 times what the forward left live."""
        import tracemalloc

        cfg = ModelConfig(bands=10, num_classes=4, patch_size=3)
        clf = classifier(cfg, seed=15)
        x = random_abundance_patch(np.random.default_rng(16), 64, cfg.abundance_dim, 3)
        labels = Tensor(one_hot(np.arange(64) % 4, 4))
        tracemalloc.start()
        try:
            with fresh_tape():
                loss = classification_loss(clf.logits(x, train=True), labels)
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                loss.backward()
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clf.head.weight.grad is not None
        assert peak < 1.5 * live, (peak, live)


# (height, width, patch size): maps 1-8 px a side, patches 1-23
MAP_SWEEP = [(h, w, p) for h in range(1, 9) for w in range(1, 9) for p in range(1, 24, 2)]


def mirrored_windows(values, centers, p):
    """Reference gather: slice each window out of an np.pad(mode="symmetric")
    copy of the [H, W, C] map."""
    m = p // 2
    padded = np.pad(values, ((m, m), (m, m), (0, 0)), mode="symmetric")
    return np.stack([padded[r:r + p, c:c + p] for r, c in centers])


class TestPatchExtraction:
    def test_single_pixel_patch(self):
        rng = np.random.default_rng(9)
        cube = rng.standard_normal((5, 6, 4))
        out = extract_patches(cube, [(2, 3)], patch_size=1)
        npt.assert_array_equal(out[0, 0, 0], cube[2, 3])

    def test_constant_map_gives_identical_patches(self):
        cube = np.full((6, 6, 3), 0.7)
        out = extract_patches(cube, [(0, 0), (3, 3), (5, 5)], patch_size=5)
        assert np.all(out == 0.7)

    def test_center_value_matches_direct_indexing(self):
        rng = np.random.default_rng(10)
        cube = rng.standard_normal((20, 17, 6))
        centers = np.stack([rng.integers(0, 20, 100), rng.integers(0, 17, 100)], axis=1)
        out = extract_patches(cube, centers, patch_size=5)
        for patch, (r, c) in zip(out, centers):
            npt.assert_array_equal(patch[2, 2], cube[r, c])

    def test_empty_centers_rejected(self):
        with pytest.raises(ContractError):
            extract_patches(np.zeros((4, 4, 2)), [], patch_size=3)

    def test_out_of_image_center_rejected(self):
        with pytest.raises(ContractError):
            extract_patches(np.zeros((4, 4, 2)), [(4, 0)], patch_size=3)

    def test_extract_patches_match_a_symmetric_pad(self):
        # every center of every map up to 8 px a side, so every border, and
        # windows up to three times wider than the map
        rng = np.random.default_rng(31)
        for h, w, p in MAP_SWEEP:
            values = rng.standard_normal((h, w, 2))
            centers = np.argwhere(np.ones((h, w), dtype=bool))
            npt.assert_array_equal(extract_patches(values, centers, p),
                                   mirrored_windows(values, centers, p), err_msg=(h, w, p))

    @pytest.mark.parametrize("patch_size", [1, 3, 5, 9])
    def test_window_pixels_are_what_the_windows_read(self, patch_size):
        centers = [(0, 0), (2, 5), (3, 1)]
        read = mirrored_windows(np.arange(4 * 6).reshape(4, 6, 1), centers, patch_size)
        mask = window_pixels(4, 6, centers, patch_size)
        npt.assert_array_equal(np.flatnonzero(mask), np.unique(read))
        assert not window_pixels(4, 6, np.zeros((0, 2), dtype=int), patch_size).any()

    def test_window_pixels_match_the_windows_on_maps_smaller_than_a_window(self):
        # each center alone, then all of them, on every map of the sweep
        for h, w, p in MAP_SWEEP:
            centers = np.argwhere(np.ones((h, w), dtype=bool))
            read = mirrored_windows(np.arange(h * w).reshape(h, w, 1), centers, p)
            for center, window in zip(centers, read):
                npt.assert_array_equal(np.flatnonzero(window_pixels(h, w, [center], p)),
                                       np.unique(window), err_msg=(h, w, p, center))
            npt.assert_array_equal(np.flatnonzero(window_pixels(h, w, centers, p)),
                                   np.unique(read), err_msg=(h, w, p))

    def test_window_pixels_mark_every_batch(self):
        # at patch 1 the mask is the centers, so a batch left out shows
        centers = np.argwhere(np.random.default_rng(32).random((40, 30)) < 0.5)
        assert len(centers) > 2 * PREDICT_BATCH
        mask = window_pixels(40, 30, centers, 1)
        npt.assert_array_equal(np.argwhere(mask), centers)

    def test_window_pixels_hold_one_batch_of_windows(self):
        """Every pixel of a 64x64 cube as a center at patch 11: the traced
        peak stays below three batches of 256 index windows, far below the
        4 MB that all 4096 windows take at once."""
        import tracemalloc

        h, w, p, batch = 64, 64, 11, 256
        centers = np.argwhere(np.ones((h, w), dtype=bool))
        tracemalloc.start()
        try:
            mask = window_pixels(h, w, centers, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.all()
        bound = 8 * 3 * batch * p * p
        assert peak < bound, (peak, bound)

    def test_mirror_border(self):
        # edge-inclusive mirroring: the border row/col appears twice
        cube = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = extract_patches(cube, [(0, 0)], patch_size=3)
        npt.assert_array_equal(out[0, :, :, 0],
                               [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [4.0, 4.0, 5.0]])


class TestEncodeBridge:
    def test_encode_patches_shapes_and_simplex(self):
        enc = encoder(5, 4, seed=12)
        rng = np.random.default_rng(13)
        pixels = rng.uniform(0.0, 1.0, (3, 3, 3, 5))
        patch = encode_patches(enc, pixels)
        assert patch.shape == (3, 1, 4, 3, 3)
        sums = patch.data.sum(axis=2)
        npt.assert_allclose(sums, 1.0, atol=1e-9)

    def test_map_shortcut_matches_per_patch_encoding(self):
        enc = encoder(5, 3, seed=14)
        rng = np.random.default_rng(15)
        cube = rng.uniform(0.0, 1.0, (8, 7, 5))
        centers = [(0, 0), (4, 3), (7, 6)]
        with no_grad():
            amap = enc.encode(Tensor(cube.reshape(-1, 5))).values.data.reshape(8, 7, 3)
            direct = abundance_patches_from_map(amap, centers, 3)
            via_pixels = encode_patches(enc, extract_patches(cube, centers, 3))
        npt.assert_allclose(direct.data, via_pixels.data, atol=1e-12)

    def test_translation_consistency(self):
        enc = encoder(4, 3, seed=16)
        clf = classifier(tiny_config(num_classes=3), seed=17)
        rng = np.random.default_rng(18)
        cube = rng.uniform(0.0, 1.0, (9, 9, 4))
        with no_grad():
            one = clf.logits(encode_patches(enc, extract_patches(cube, [(4, 4)], 3)),
                             train=False).data
            both = clf.logits(encode_patches(
                enc, extract_patches(cube, [(4, 5), (4, 4)], 3)), train=False).data
        npt.assert_allclose(both[1], one[0], atol=1e-12)

    def test_classifier_gradients_reach_encoder(self):
        enc = encoder(4, 3, seed=19)
        clf = classifier(tiny_config(num_classes=3), seed=20)
        rng = np.random.default_rng(21)
        pixels = rng.uniform(0.0, 1.0, (2, 3, 3, 4))
        labels = Tensor(one_hot(np.array([0, 2]), 3))
        with fresh_tape():
            loss = classification_loss(
                clf.logits(encode_patches(enc, pixels), train=True), labels)
            loss.backward()
        assert enc.head.weight.grad is not None
        assert clf.head.weight.grad is not None


class TestTrainingSanity:
    def test_loss_decreases_on_separable_toy(self):
        cfg = tiny_config(num_classes=2)
        clf = classifier(cfg, seed=22)
        rng = np.random.default_rng(23)
        # two classes with distinct dominant abundance components
        n = 8
        raw = np.full((n, 3, 3, 3), 0.1)
        labels = np.array([0, 1] * (n // 2))
        for i, lab in enumerate(labels):
            raw[i, :, :, lab] = 5.0
        raw += rng.uniform(0.0, 0.05, raw.shape)
        raw /= raw.sum(axis=3, keepdims=True)
        volume = np.ascontiguousarray(raw.transpose(0, 3, 1, 2))[:, None]
        patch = Tensor(volume)
        y = Tensor(one_hot(labels, 2))
        params = [t for _, t in clf.parameters()]
        for t in params:
            t.requires_grad = True
        losses = []
        for _ in range(50):
            for t in params:
                t.zero_grad()
            with fresh_tape():
                loss = classification_loss(clf.logits(patch, train=True), y)
                loss.backward()
            losses.append(loss.item())
            for t in params:
                t.data -= 0.01 * t.grad
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0] * 0.9
