"""The benchmark's numpy reference agrees with pctl and notices a changed kernel.

    python3 -m pytest -q perfbench/test_reference.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import paths  # noqa: E402,F401  (puts the checkout's src first on sys.path)
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from pctl import autodiff, data, metrics, trainer  # noqa: E402


@pytest.fixture
def tiny(tmp_path):
    """A small untrained model with non-trivial batchnorm, saved, and a cube."""
    _, target, _ = data.generate_synthetic_pair(
        data.SynthSpec(classes=3, abundance_dim=5, bands=10, pixels_per_class=16, seed=3))
    model_cfg = trainer.ModelConfig(bands=10, num_classes=3, abundance_dim=5,
                                    patch_size=3, block_channels=[2, 3, 2, 2, 3],
                                    encoder_hidden=[8, 6])
    state = trainer.ModelState(model_cfg, trainer.TrainConfig(seed=5), seed=5)
    rng = np.random.default_rng(7)
    for name, buf in state.buffers():
        low, high = (-0.2, 0.2) if name.endswith("running_mean") else (0.5, 1.5)
        buf[...] = rng.uniform(low, high, buf.shape)
    for name, t in state.parameters():
        if ".bn." in name:
            t.data[...] = rng.uniform(0.5, 1.5, t.data.shape)
    checkpoint, cube = tmp_path / "model.pctl", tmp_path / "cube.hsic"
    trainer.save_checkpoint(state, checkpoint)
    data.write_cube(target, cube)
    centers = np.argwhere(np.ones(target.labels.shape, dtype=bool))
    return checkpoint, cube, centers


def test_reference_matches_the_program(tiny):
    checkpoint, cube, centers = tiny
    rec = reference.read_checkpoint(checkpoint)
    expected = reference.cube_logits(rec, reference.read_cube(cube), centers)
    got = workloads.program_logits(checkpoint, cube, centers)
    assert np.abs(expected - got).max() <= 1e-10

    state = trainer.load_checkpoint(checkpoint)
    pixels = reference.read_cube(cube).reshape(-1, 10)
    amap = trainer.abundance_map(state, data.read_cube(cube)).reshape(-1, 5)
    assert np.abs(reference.encode(rec, pixels) - amap).max() <= 1e-12


def test_one_changed_kernel_entry_disagrees(tiny):
    checkpoint, cube, centers = tiny
    rec = reference.read_checkpoint(checkpoint)
    rec["clf.block2.kernels"][0, 0, 1, 1, 1] += 0.5
    changed = reference.cube_logits(rec, reference.read_cube(cube), centers)
    got = workloads.program_logits(checkpoint, cube, centers)
    assert np.abs(changed - got).max() > 1e-6


@pytest.mark.parametrize("kernel", [(2, 3, 3), (3, 5, 5), (3, 1, 1)])
def test_shifted_slice_conv_matches_conv3d(kernel):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4, 5, 5, 5))
    k = rng.standard_normal((2, 4) + kernel)
    pad = tuple(((n - 1) // 2, n - 1 - (n - 1) // 2) for n in kernel)
    with autodiff.no_grad():
        got = autodiff.conv3d(autodiff.Tensor(x), autodiff.Tensor(k), padding=pad).data
    assert np.abs(reference.conv3d_same(x, k) - got).max() <= 1e-12


def test_overall_accuracy_counts_labeled_pixels_only():
    truth = np.array([[1, 2, 0], [3, 3, 0]])
    pred = np.array([[1, 1, 2], [3, 2, 1]])
    assert reference.overall_accuracy(truth, pred) == 0.5

    rng = np.random.default_rng(5)
    truth = rng.integers(1, 5, 500)
    pred = np.where(rng.random(500) < 0.7, truth, rng.integers(1, 5, 500))
    oa, _, _ = metrics.oa_aa_kappa(metrics.confusion(truth, pred, 4))
    assert reference.overall_accuracy(truth, pred) == pytest.approx(oa, abs=1e-15)
