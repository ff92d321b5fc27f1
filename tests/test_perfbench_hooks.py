"""The benchmark's tracer still fits pctl: it wraps what it traces, and restores it.

``perfbench/tracing.py`` wraps pctl functions and methods by name, so deleting
or renaming one of them breaks traced benchmark runs; these tests catch that
in the unit suite.
"""

import json
import sys
from pathlib import Path

import numpy as np

from pctl import trainer
from pctl.autodiff import Tensor
from pctl.classifier import Classifier3d
from pctl.data import SynthSpec, generate_synthetic_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores_every_attribute():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer.patches._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert current(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert current(owner, attr) is original, attr


def test_traced_training_computes_what_untraced_training_does(tmp_path):
    source, target, _ = generate_synthetic_pair(SynthSpec(
        classes=3, abundance_dim=5, bands=10, pixels_per_class=16, seed=2))
    model_cfg = trainer.ModelConfig(bands=10, num_classes=3, abundance_dim=5, patch_size=3,
                                    block_channels=[2, 2, 2, 2, 2],
                                    encoder_hidden=[8, 6])
    cfg = trainer.TrainConfig(epochs=2, batch_recon=16, batch_class=4,
                              label_fraction=0.25, eval_every=1, eval_samples=8, seed=4)

    def run(name):
        # through the module, as the workloads call it, so the wrappers apply
        state = trainer.ModelState(model_cfg, cfg, seed=cfg.seed)
        rows = trainer.train(state, source, target, cfg)
        trainer.save_checkpoint(state, tmp_path / name)
        return rows, (tmp_path / name).read_bytes()

    untraced = run("untraced.pctl")
    with tracing.Tracer() as tracer:
        traced = run("traced.pctl")
    assert traced == untraced
    # the benchmark client sends the first and the last row back as JSON
    json.dumps([untraced[0][0], untraced[0][-1]])

    figures = tracer.layer_metrics(cfg.epochs, tracing.Tracer())
    for name in ("trainer.eval_sub_ms", "trainer.eval_full_ms", "trainer.step_ms",
                 "classifier.block4.fwd_ms", "decoder.decode.bwd_ms"):
        assert figures[name]["value"] > 0.0, name
    assert np.isfinite([f["value"] for f in figures.values()]).all()


def test_each_dense_buffer_copy_is_a_traced_concat():
    """``Classifier3d.logits`` copies the input and every block output but the
    last into its dense buffer through ``autodiff.concat``, which the tracer
    times as one ``autodiff.concat.fwd`` span each."""
    cfg = trainer.ModelConfig(bands=4, num_classes=2, abundance_dim=3, patch_size=3,
                              block_channels=[2, 2, 2, 2, 2])
    x = Tensor(np.random.default_rng(0).uniform(0.1, 1.0, (2, 1, 3, 3, 3)))
    with tracing.Tracer() as tracer:
        # built under the tracer, which learns the block names at construction
        clf = Classifier3d(cfg, np.random.default_rng(1), np.random.default_rng(2))
        clf.logits(x, train=False)
    names = [span[0] for span in tracer.spans]
    assert names.count("autodiff.concat.fwd") == len(cfg.block_channels) - 1
