import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import pctl
from pctl import trainer
from pctl.cli import main
from pctl.config import SECTIONS, ModelConfig, RunConfig, resolved_text, settable
from pctl.data import HsiCube, SynthSpec, read_cube, read_labels, write_cube, write_labels
from pctl.errors import ConfigError
from pctl.trainer import (
    ModelState,
    TrainConfig,
    checkpoint_records,
    load_checkpoint,
    predict,
)

SYNTH_CFG = """
synth.classes = 3
synth.abundance_dim = 5
synth.bands = 10
synth.pixels_per_class = 64
synth.noise_sigma = 0.01
synth.seed = 3
"""

TRAIN_OVERRIDES = [
    "--set", "train.epochs=2", "--set", "train.batch_recon=32",
    "--set", "train.batch_class=8", "--set", "train.label_fraction=0.25",
    "--set", "train.eval_every=1", "--set", "train.eval_samples=16",
    "--set", "model.patch_size=3", "--set", "model.block_channels=2 2 2 2 2",
    "--set", "model.encoder_hidden=8 6",
]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    spec = root / "synth.cfg"
    spec.write_text(SYNTH_CFG)
    assert main(["gen-synth", "--spec", str(spec), "--out", str(root / "data")]) == 0
    return root


def train_cmd(scene, out, *args):
    return main(["train", "--source", str(scene / "data/source.hsic"),
                 "--target", str(scene / "data/target.hsic"),
                 "--out", str(out)] + list(args))


def assert_usage_error(capsys, argv):
    """``main(argv)`` exits 2 with one ``error:`` line and no warning; returns the line."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def record_bytes(name, value, dims=None):
    """One checkpoint record holding ``value``; ``dims``, if given, replaces
    the shape its header declares."""
    data = np.asarray(value, dtype="<f8")
    dims = data.shape if dims is None else dims
    encoded = name.encode()
    return (struct.pack("<H", len(encoded)) + encoded
            + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + data.tobytes())


# Edits of a checkpoint's (name, value, dims) record list, for
# test_a_malformed_record_exits_2.

def replaced(name, value, dims=None):
    """Record ``name`` holds ``value``: in place of the record of that name,
    or after the last record when there is none."""
    def edit(records):
        if name not in {r[0] for r in records}:
            return records + [(name, value, dims)]
        return [(name, value, dims) if r[0] == name else r for r in records]
    return edit


def duplicated(name):
    """A second copy of record ``name`` after the last record."""
    return lambda records: records + [r for r in records if r[0] == name]


def poisoned(name):
    """Record ``name`` with nan as its first value."""
    def edit(records):
        out = []
        for n, value, dims in records:
            if n == name:
                value = np.array(value)
                value.flat[0] = np.nan
            out.append((n, value, dims))
        return out
    return edit


def with_target_pair(records):
    """The records of a full checkpoint written while the decoder still
    learned a target (scale, offset) pair, in the order it wrote them."""
    out = []
    for record in records:
        out.append(record)
        if record[0] == "dec.src_offset":
            out += [("dec.tgt_scale", np.ones(10), None), ("dec.tgt_offset", np.zeros(10), None)]
        elif record[0] in ("adam.m.dec.src_scale", "adam.v.dec.src_scale"):
            prefix = record[0].removesuffix("src_scale")
            out += [(prefix + "tgt_offset", np.zeros(10), None),
                    (prefix + "tgt_scale", np.zeros(10), None)]
    return out


def without_labeled_pixels(scene, tmp_path):
    """The target cube beside a label raster that labels no pixel."""
    cube = read_cube(scene / "data/target.hsic")
    path = tmp_path / "unlabeled.hsic"
    write_cube(HsiCube(cube.reflectance, np.zeros_like(cube.labels)), path)
    return path


@pytest.fixture(scope="module")
def trained(scene):
    out = scene / "run"
    assert train_cmd(scene, out, *TRAIN_OVERRIDES) == 0
    return out


class TestGenSynth:
    def test_writes_expected_files(self, scene):
        data = scene / "data"
        for name in ("source.hsic", "source.hsil", "target.hsic", "target.hsil",
                     "abund.csv", "resolved-config.txt"):
            assert (data / name).exists(), name
        cube = read_cube(data / "source.hsic")
        assert (cube.height, cube.width, cube.bands) == (8, 24, 10)

    def test_missing_spec_exits_2_and_names_path(self, capsys):
        assert main(["gen-synth", "--spec", "/nope/missing.cfg", "--out", "/tmp/x"]) == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_same_seed_regenerates_identical_bytes(self, scene, tmp_path):
        spec = scene / "synth.cfg"
        assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        for name in ("source.hsic", "source.hsil", "target.hsic", "abund.csv"):
            assert (tmp_path / name).read_bytes() == \
                (scene / "data" / name).read_bytes(), name

    @pytest.mark.parametrize("setting, named", [
        ("noise_sigma = nan", "noise_sigma"), ("noise_sigma = inf", "noise_sigma"),
        ("bands = 0", "bands"), ("seed = -1", "seed"),
        ("scale = nan", "scale"), ("scale = 0", "scale"), ("offset = inf", "offset")])
    def test_a_bad_value_exits_2_and_names_it(self, tmp_path, capsys, setting, named):
        lines = [line for line in SYNTH_CFG.splitlines()
                 if not line.startswith(f"synth.{named} ")]
        spec = tmp_path / "synth.cfg"
        spec.write_text("\n".join(lines + [f"synth.{setting}"]) + "\n")
        out = tmp_path / "data"
        err = assert_usage_error(capsys, ["gen-synth", "--spec", str(spec), "--out", str(out)])
        assert named in err
        assert not out.exists()

    def test_the_removed_envelope_weight_is_an_unknown_key(self, tmp_path, capsys):
        # the Dirichlet weights are constants of the generator, not keys
        spec = tmp_path / "synth.cfg"
        for key in ("envelope_weight", "concentration_peak", "concentration_base"):
            spec.write_text(SYNTH_CFG + f"synth.{key} = 0.0\n")
            err = assert_usage_error(capsys, ["gen-synth", "--spec", str(spec),
                                              "--out", str(tmp_path / "data")])
            assert f"unknown key 'synth.{key}'" in err

    def test_resolved_config_regenerates_identical_bytes(self, scene, tmp_path):
        spec = scene / "data" / "resolved-config.txt"
        assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        for name in ("source.hsic", "source.hsil", "target.hsic", "abund.csv"):
            assert (tmp_path / name).read_bytes() == \
                (scene / "data" / name).read_bytes(), name


class TestTrain:
    def test_outputs_present(self, trained):
        for name in ("model.pctl", "metrics.csv", "resolved-config.txt"):
            assert (trained / name).exists()

    def test_zero_epochs_checkpoint_equals_initialization(self, scene, tmp_path):
        out = tmp_path / "zero"
        code = main(["train", "--source", str(scene / "data/source.hsic"),
                     "--target", str(scene / "data/target.hsic"),
                     "--out", str(out)] + TRAIN_OVERRIDES +
                    ["--set", "train.epochs=0"])
        assert code == 0
        state = load_checkpoint(out / "model.pctl")
        cfg = RunConfig(None, ["train.epochs=0", "model.patch_size=3",
                               "model.block_channels=2 2 2 2 2",
                               "model.encoder_hidden=8 6"])
        fresh = ModelState(cfg.model_config(bands=10, num_classes=3),
                           cfg.train_config(), seed=0)
        for (name, t), (name2, t2) in zip(state.parameters(), fresh.parameters()):
            assert name == name2
            npt.assert_array_equal(t.data, t2.data)

    def test_determinism_byte_identical_outputs(self, scene, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["train", "--source", str(scene / "data/source.hsic"),
                         "--target", str(scene / "data/target.hsic"),
                         "--out", str(out)] + TRAIN_OVERRIDES)
            assert code == 0
            outs.append(out)
        assert (outs[0] / "model.pctl").read_bytes() == \
            (outs[1] / "model.pctl").read_bytes()
        assert (outs[0] / "metrics.csv").read_bytes() == \
            (outs[1] / "metrics.csv").read_bytes()

    def test_resume_zero_epochs_reproduces_predictions(self, scene, trained, tmp_path):
        out = tmp_path / "resumed"
        code = main(["train", "--source", str(scene / "data/source.hsic"),
                     "--target", str(scene / "data/target.hsic"),
                     "--out", str(out), "--resume", str(trained / "model.pctl")]
                    + TRAIN_OVERRIDES + ["--set", "train.epochs=0"])
        assert code == 0
        a = load_checkpoint(trained / "model.pctl")
        b = load_checkpoint(out / "model.pctl")
        cube = read_cube(scene / "data/target.hsic")
        npt.assert_array_equal(predict(a, cube), predict(b, cube))

    def test_resolved_config_reproduces_the_run(self, scene, trained, tmp_path):
        out = tmp_path / "again"
        assert train_cmd(scene, out, "--config",
                         str(trained / "resolved-config.txt")) == 0
        for name in ("model.pctl", "metrics.csv", "resolved-config.txt"):
            assert (out / name).read_bytes() == (trained / name).read_bytes(), name

    @pytest.mark.parametrize("variant", [
        pytest.param("classifier-only", id="train.classifier_only=true"),
        pytest.param("sparse", id="train.no_mi=true"),
    ])
    def test_resume_with_default_flags_keeps_the_checkpoints_settings(
            self, scene, tmp_path, variant):
        first, second = tmp_path / "first", tmp_path / "second"
        assert train_cmd(scene, first, *TRAIN_OVERRIDES, "--set", f"train.variant={variant}",
                         "--set", "train.epochs=1") == 0
        assert train_cmd(scene, second, "--resume", str(first / "model.pctl")) == 0
        before = load_checkpoint(first / "model.pctl")
        after = load_checkpoint(second / "model.pctl")
        assert after.step == 2
        assert after.train_cfg == before.train_cfg
        assert after.train_cfg.variant == variant
        assert after.model_cfg == before.model_cfg

    def test_resume_onto_another_band_count_exits_4(self, scene, trained, tmp_path, capsys):
        cube = read_cube(scene / "data/source.hsic")
        source = tmp_path / "seven-bands.hsic"
        write_cube(HsiCube(cube.reflectance[:, :, :7], cube.labels), source)
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["train", "--source", str(source),
                     "--target", str(scene / "data/target.hsic"), "--out", str(out),
                     "--resume", str(trained / "model.pctl")]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        for name in ("model.pctl", "metrics.csv", "resolved-config.txt"):
            assert not (out / name).exists(), name

    @pytest.mark.parametrize("flag", ["train.variant=full", "model.patch_size=5"])
    def test_resume_with_a_conflicting_setting_exits_2(self, scene, tmp_path,
                                                       capsys, flag):
        first = tmp_path / "first"
        assert train_cmd(scene, first, *TRAIN_OVERRIDES,
                         "--set", "train.variant=sparse") == 0
        capsys.readouterr()
        second = tmp_path / "second"
        assert train_cmd(scene, second, "--resume",
                         str(first / "model.pctl"), "--set", flag) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (second / "resolved-config.txt").exists()

    def test_divergence_exits_3(self, scene, tmp_path, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["train", "--source", str(scene / "data/source.hsic"),
                         "--target", str(scene / "data/target.hsic"),
                         "--out", str(tmp_path / "div")] + TRAIN_OVERRIDES +
                        ["--set", "train.learning_rate=1e100",
                         "--set", "train.epochs=5"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["eval_samples", "batch_recon", "batch_class"])
    def test_a_size_below_one_exits_2(self, scene, tmp_path, capsys, key):
        out = tmp_path / "run"
        assert_usage_error(capsys, ["train", "--source", str(scene / "data/source.hsic"),
                                    "--target", str(scene / "data/target.hsic"),
                                    "--out", str(out)] + TRAIN_OVERRIDES
                           + ["--set", f"train.{key}=0"])
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "train.learning_rate=-1", "train.learning_rate=nan", "train.alpha=nan",
        "train.eval_every=-1", "train.eval_every=0", "train.seed=-1", "train.variant=bogus",
        # a checkpoint stores the seed as float64, which would round this one
        "train.seed=9007199254740993", "model.patch_size=2",
        "model.encoder_hidden=-2 3", "model.block_channels=-1 2 2 2 2",
        "model.encoder_hidden=0 3", "model.block_channels=0 0 0 0 0"])
    def test_a_bad_rate_or_width_exits_2(self, scene, tmp_path, capsys, setting):
        out = tmp_path / "run"
        assert_usage_error(capsys, ["train", "--source", str(scene / "data/source.hsic"),
                                    "--target", str(scene / "data/target.hsic"),
                                    "--out", str(out)] + TRAIN_OVERRIDES
                           + ["--set", setting])
        assert not out.exists()

    def test_a_target_without_labeled_pixels_is_not_scored(self, scene, tmp_path, capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--source", str(scene / "data/source.hsic"),
                         "--target", str(without_labeled_pixels(scene, tmp_path)),
                         "--out", str(out)] + TRAIN_OVERRIDES) == 0
        summary = capsys.readouterr().out
        assert "source OA" in summary and "target OA" not in summary
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        assert header.endswith(",source_oa,target_oa")
        assert rows and all(row.endswith(",") for row in rows)

    def test_unknown_config_key_exits_2(self, scene, tmp_path, capsys):
        # the MI discriminator's width is a constant, not a key
        for key in ("train.typo_key", "model.mi_hidden"):
            code = main(["train", "--source", str(scene / "data/source.hsic"),
                         "--target", str(scene / "data/target.hsic"),
                         "--out", str(tmp_path / "x"),
                         "--set", f"{key}=13"])
            assert code == 2
            assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_a_synth_key_exits_2(self, scene, tmp_path, capsys, command):
        # the scene is generated already, so a synth key would change nothing
        out = tmp_path / "x"
        err = assert_usage_error(capsys, [command, "--source", str(scene / "data/source.hsic"),
                                          "--target", str(scene / "data/target.hsic"),
                                          "--out", str(out), "--set", "synth.seed=99"])
        assert "unknown section 'synth'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("value", ["0", "nan", "1.5"])
    def test_a_label_fraction_outside_zero_one_exits_2(self, scene, tmp_path, capsys,
                                                        command, value):
        out = tmp_path / "x"
        err = assert_usage_error(capsys, [command, "--source", str(scene / "data/source.hsic"),
                                          "--target", str(scene / "data/target.hsic"),
                                          "--out", str(out)] + TRAIN_OVERRIDES
                                 + ["--set", f"train.label_fraction={value}"])
        assert "label_fraction" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["classifier_only", "shared_decoder_only",
                                     "no_sparse", "no_mi"])
    def test_a_removed_ablation_switch_is_an_unknown_key(self, scene, tmp_path, capsys,
                                                          key):
        err = assert_usage_error(capsys, ["train", "--source", str(scene / "data/source.hsic"),
                                          "--target", str(scene / "data/target.hsic"),
                                          "--out", str(tmp_path / "x"),
                                          "--set", f"train.{key}=true"])
        assert f"unknown key 'train.{key}'" in err


class TestPredictEvaluate:
    @pytest.mark.parametrize("edit, named", [
        (replaced("cfg.epochs", [2.0, 3.0]), "record cfg.epochs must be a scalar, got shape (2,)"),
        (replaced("cfg.block_channels", [[2.0] * 5] * 2),
         "record cfg.block_channels must be a list"),
        (replaced("cfg.encoder_hidden", [8.5, 6.0]),
         "record cfg.encoder_hidden must be a whole number"),
        (replaced("cfg.variant", -1.0), "record cfg.variant = -1 names none of"),
        (replaced("cfg.variant", 1.5), "record cfg.variant must be a whole number, got 1.5"),
        (replaced("cfg.patch_size", 3.5), "record cfg.patch_size must be a whole number, got 3.5"),
        (replaced("cfg.beta_mode", [0.0, 0.0]), "checkpoint has record cfg.beta_mode, which "
         "this version does not write for its settings; retrain the model"),
        (replaced("step", [4.0, 4.0]), "record step must be a scalar"),
        (replaced("step", -1.0), "record step must be >= 0, got -1"),
        (replaced("cfg.mi_hidden", 13.0), "checkpoint has record cfg.mi_hidden, which "
         "this version does not write for its settings; retrain the model"),
        (replaced("cfg.bands", [], (2 ** 31, 2 ** 31, 4)), "truncated record at byte offset"),
        (replaced("cfg.bands", [], (2 ** 32 - 1, 2 ** 32 - 1)), "truncated record at byte offset"),
        (duplicated("step"), "checkpoint has record step twice"),
        (poisoned("enc.head.bias"), "record enc.head.bias holds a non-finite value"),
        (poisoned("clf.head.bias"), "record clf.head.bias holds a non-finite value"),
        (with_target_pair, "checkpoint has record dec.tgt_scale, which this version does not "
         "write for its settings; retrain the model")],
        ids=["two-epochs", "block-channels-2d", "fractional-width", "variant-minus-one",
             "fractional-variant", "fractional-patch-size", "two-beta-modes", "two-steps",
             "negative-step", "mi-hidden",
             "dims-2^31x2^31x4", "dims-(2^32-1)^2", "duplicate-record", "nan-encoder-bias",
             "nan-head-bias", "target-pair"])
    def test_a_malformed_record_exits_2(self, scene, trained, tmp_path, capsys, edit, named):
        state = load_checkpoint(trained / "model.pctl")
        records = [(name, value, None) for name, value in checkpoint_records(state)]
        checkpoint = tmp_path / "bad.pctl"
        checkpoint.write_bytes(b"PCTL\x01" + b"".join(record_bytes(*r) for r in edit(records)))
        err = assert_usage_error(capsys, ["predict", "--checkpoint", str(checkpoint),
                                          "--cube", str(scene / "data/target.hsic"),
                                          "--out", str(tmp_path / "p.hsil")])
        assert str(checkpoint) in err and named in err
        assert not (tmp_path / "p.hsil").exists()

    def test_a_record_of_another_variant_exits_2(self, scene, tmp_path, capsys):
        # a classifier-only model has no decoder
        run = tmp_path / "run"
        assert train_cmd(scene, run, *TRAIN_OVERRIDES, "--set", "train.epochs=0",
                         "--set", "train.variant=classifier-only") == 0
        checkpoint = tmp_path / "extra.pctl"
        checkpoint.write_bytes((run / "model.pctl").read_bytes()
                               + record_bytes("dec.src_scale", np.ones(10)))
        err = assert_usage_error(capsys, ["predict", "--checkpoint", str(checkpoint),
                                          "--cube", str(scene / "data/target.hsic"),
                                          "--out", str(tmp_path / "p.hsil")])
        assert f"{checkpoint}: checkpoint has record dec.src_scale, which this version " \
               "does not write for its settings; retrain the model" in err
        assert not (tmp_path / "p.hsil").exists()

    @pytest.mark.parametrize("dropped", ["cfg.eval_samples", "adam.v.clf.head.bias"])
    def test_a_missing_record_exits_2(self, scene, trained, tmp_path, capsys, dropped):
        state = load_checkpoint(trained / "model.pctl")
        checkpoint = tmp_path / "short.pctl"
        checkpoint.write_bytes(b"PCTL\x01" + b"".join(
            record_bytes(name, value) for name, value in checkpoint_records(state)
            if name != dropped))
        err = assert_usage_error(capsys, ["predict", "--checkpoint", str(checkpoint),
                                          "--cube", str(scene / "data/target.hsic"),
                                          "--out", str(tmp_path / "p.hsil")])
        assert f"{checkpoint}: checkpoint is missing record {dropped}; retrain the model" in err
        assert not (tmp_path / "p.hsil").exists()

    def test_predict_writes_raster(self, scene, trained, tmp_path):
        pred_path = tmp_path / "pred.hsil"
        code = main(["predict", "--checkpoint", str(trained / "model.pctl"),
                     "--cube", str(scene / "data/target.hsic"),
                     "--out", str(pred_path)])
        assert code == 0
        cube = read_cube(scene / "data/target.hsic")
        raster = read_labels(pred_path)
        assert raster.shape == (cube.height, cube.width)
        assert raster.min() >= 1 and raster.max() <= 3

    def test_perfect_predictions_print_all_hundreds(self, scene, tmp_path, capsys):
        truth_path = scene / "data/source.hsil"
        assert main(["evaluate", "--truth", str(truth_path),
                     "--pred", str(truth_path)]) == 0
        out = capsys.readouterr().out
        assert "OA 100.00 AA 100.00 Kappa 100.00" in out

    def test_probability_csv(self, scene, trained, tmp_path):
        pred_path = tmp_path / "pred.hsil"
        probs_path = tmp_path / "probs.csv"
        code = main(["predict", "--checkpoint", str(trained / "model.pctl"),
                     "--cube", str(scene / "data/target.hsic"),
                     "--out", str(pred_path), "--probs-csv", str(probs_path)])
        assert code == 0
        lines = probs_path.read_text().strip().split("\n")
        cube = read_cube(scene / "data/target.hsic")
        assert len(lines) == 1 + cube.height * cube.width
        probs = np.array([[float(v) for v in line.split(",")[2:]]
                          for line in lines[1:]])
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_band_mismatch_exits_4(self, trained, tmp_path, capsys):
        bad = HsiCube(np.zeros((4, 4, 7)))
        path = tmp_path / "bad.hsic"
        write_cube(bad, path)
        code = main(["predict", "--checkpoint", str(trained / "model.pctl"),
                     "--cube", str(path), "--out", str(tmp_path / "o.hsil")])
        assert code == 4

    def test_evaluate_report_json(self, scene, tmp_path, capsys):
        labels = read_labels(scene / "data/source.hsil")
        pred = labels.copy()
        pred[labels > 0] = np.where(pred[labels > 0] == 1, 2, pred[labels > 0])
        truth_path, pred_path = tmp_path / "t.hsil", tmp_path / "p.hsil"
        write_labels(labels, truth_path)
        write_labels(pred, pred_path)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--truth", str(truth_path), "--pred", str(pred_path),
                     "--report", str(report)]) == 0
        import json
        data = json.loads(report.read_text())
        assert set(data) == {"oa", "aa", "kappa", "per_class_recall", "confusion"}
        assert data["per_class_recall"]["1"] == 0.0

    def test_evaluate_counts_a_class_the_truth_lacks_as_a_miss(self, tmp_path, capsys):
        truth_path, pred_path = tmp_path / "t.hsil", tmp_path / "p.hsil"
        write_labels(np.array([[1, 2], [3, 3]]), truth_path)
        write_labels(np.array([[1, 2], [4, 3]]), pred_path)
        report = tmp_path / "report.json"
        with pytest.warns(UserWarning, match=r"classes \[4\] have no truth samples"):
            assert main(["evaluate", "--truth", str(truth_path), "--pred", str(pred_path),
                         "--report", str(report)]) == 0
        assert "OA 75.00 AA 83.33" in capsys.readouterr().out
        import json
        data = json.loads(report.read_text())
        assert data["confusion"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]]
        assert data["per_class_recall"] == {"1": 1.0, "2": 1.0, "3": 0.5, "4": None}


class TestInspectDecoder:
    def test_dump_affine_pairs(self, trained, tmp_path):
        out = tmp_path / "affine.csv"
        assert main(["inspect-decoder", "--checkpoint", str(trained / "model.pctl"),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "band,src_scale,src_offset"
        assert len(lines) == 11  # one per band

    def test_a_model_without_the_source_pair_exits_2(self, scene, tmp_path, capsys):
        run = tmp_path / "run"
        assert train_cmd(scene, run, *TRAIN_OVERRIDES, "--set", "train.epochs=0",
                         "--set", "train.variant=shared-decoder") == 0
        err = assert_usage_error(capsys, ["inspect-decoder", "--checkpoint",
                                          str(run / "model.pctl"),
                                          "--out", str(tmp_path / "affine.csv")])
        assert "checkpoint has no affine decoder to inspect" in err
        assert not (tmp_path / "affine.csv").exists()


class TestProject2d:
    def test_exports_both_spaces(self, scene, trained, tmp_path):
        out = tmp_path / "proj"
        code = main(["project2d", "--checkpoint", str(trained / "model.pctl"),
                     "--source", str(scene / "data/source.hsic"),
                     "--target", str(scene / "data/target.hsic"),
                     "--out", str(out)])
        assert code == 0
        for name in ("raw.csv", "abundance.csv"):
            lines = (out / name).read_text().strip().split("\n")
            assert lines[0] == "domain,class,x,y"
            assert len(lines) > 100
            rows = [line.split(",") for line in lines[1:]]
            for domain in ("source", "target"):
                labels = read_cube(scene / f"data/{domain}.hsic").labels
                # one row per labeled pixel, grouped by class
                classes = [int(row[1]) for row in rows if row[0] == domain]
                assert classes == sorted(labels[labels > 0].tolist())

    def test_a_target_without_labeled_pixels_exits_2(self, scene, trained, tmp_path, capsys):
        out = tmp_path / "proj"
        err = assert_usage_error(capsys, ["project2d", "--checkpoint", str(trained / "model.pctl"),
                                          "--source", str(scene / "data/source.hsic"),
                                          "--target", str(without_labeled_pixels(scene, tmp_path)),
                                          "--out", str(out)])
        assert "target cube needs labeled pixels" in err
        assert not out.exists()


class TestAblateCommand:
    def test_small_ablation_table(self, scene, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--source", str(scene / "data/source.hsic"),
                     "--target", str(scene / "data/target.hsic"),
                     "--out", str(out), "--variants", "classifier-only", "full"]
                    + TRAIN_OVERRIDES)
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0].startswith("variant,source_oa")
        assert len(lines) == 3
        assert (out / "model-full.pctl").exists()
        assert (out / "model-classifier-only.pctl").exists()

    def test_unlabeled_target_exits_2(self, scene, tmp_path, capsys):
        target = tmp_path / "unlabeled.hsic"
        write_cube(HsiCube(read_cube(scene / "data/target.hsic").reflectance), target)
        out = tmp_path / "ablate"
        assert_usage_error(capsys, ["ablate", "--source", str(scene / "data/source.hsic"),
                                    "--target", str(target), "--out", str(out)]
                           + TRAIN_OVERRIDES)
        assert not out.exists()

    def test_a_target_without_labeled_pixels_exits_2(self, scene, tmp_path, capsys):
        out = tmp_path / "ablate"
        err = assert_usage_error(capsys, ["ablate", "--source", str(scene / "data/source.hsic"),
                                          "--target", str(without_labeled_pixels(scene, tmp_path)),
                                          "--out", str(out)] + TRAIN_OVERRIDES)
        assert "no labeled pixels" in err
        assert not out.exists()

    def test_zero_epochs_exits_2(self, scene, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert_usage_error(capsys, ["ablate", "--source", str(scene / "data/source.hsic"),
                                    "--target", str(scene / "data/target.hsic"),
                                    "--out", str(out)]
                           + TRAIN_OVERRIDES + ["--set", "train.epochs=0"])
        assert not out.exists()

    def test_a_variant_named_twice_exits_2(self, scene, tmp_path, capsys):
        out = tmp_path / "ablate"
        err = assert_usage_error(capsys, ["ablate", "--source", str(scene / "data/source.hsic"),
                                          "--target", str(scene / "data/target.hsic"),
                                          "--out", str(out), "--variants", "full", "full"]
                                 + TRAIN_OVERRIDES)
        assert "variant twice" in err
        assert not out.exists()

    def test_an_unusable_out_exits_2_before_training(self, scene, tmp_path, capsys,
                                                     monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before creating --out")

        monkeypatch.setattr(trainer, "train", no_training)
        a_file = tmp_path / "file"
        a_file.write_text("")
        err = assert_usage_error(capsys, ["ablate", "--source", str(scene / "data/source.hsic"),
                                          "--target", str(scene / "data/target.hsic"),
                                          "--out", str(a_file)] + TRAIN_OVERRIDES)
        assert str(a_file) in err


class TestUnusablePaths:
    @pytest.mark.parametrize("case", ["predict --out <directory>",
                                      "predict --checkpoint <directory>",
                                      "gen-synth --spec <directory>",
                                      "gen-synth --out <file>"])
    def test_an_unusable_path_exits_2_and_names_it(self, scene, trained, tmp_path, capsys,
                                                   case):
        folder, a_file = tmp_path / "folder", tmp_path / "file"
        folder.mkdir()
        a_file.write_text("")
        cube = str(scene / "data/target.hsic")
        bad, argv = {
            "predict --out <directory>":
                (folder, ["predict", "--checkpoint", str(trained / "model.pctl"),
                          "--cube", cube, "--out", str(folder)]),
            "predict --checkpoint <directory>":
                (folder, ["predict", "--checkpoint", str(folder), "--cube", cube,
                          "--out", str(tmp_path / "p.hsil")]),
            "gen-synth --spec <directory>":
                (folder, ["gen-synth", "--spec", str(folder), "--out", str(tmp_path / "data")]),
            "gen-synth --out <file>":
                (a_file, ["gen-synth", "--spec", str(scene / "synth.cfg"),
                          "--out", str(a_file)]),
        }[case]
        assert str(bad) in assert_usage_error(capsys, argv)

    def test_an_unwritable_report_prints_no_result(self, scene, tmp_path, capsys):
        """The OA line comes only after the report is written."""
        truth = str(scene / "data/source.hsil")
        capsys.readouterr()
        assert main(["evaluate", "--truth", truth, "--pred", truth,
                     "--report", str(tmp_path)]) == 2
        printed = capsys.readouterr()
        err = printed.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "OA" not in printed.out


class TestGradcheckCommand:
    def test_single_seed_sweep_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_exits_2(self, capsys, seeds):
        assert_usage_error(capsys, ["gradcheck", "--seeds", seeds])


class TestRunConfig:
    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("train.epochs = 5\ntrain.seed = 1\n")
        cfg = RunConfig(cfg_file, ["train.epochs=9"])
        assert cfg.train_config().epochs == 9
        assert cfg.train_config().seed == 1

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(None, ["bogus.key=1"])

    def test_duplicate_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("train.epochs = 5\ntrain.epochs = 6\n")
        with pytest.raises(ConfigError):
            RunConfig(cfg_file)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("# heading\n\ntrain.epochs = 5  # trailing\n")
        assert RunConfig(cfg_file).train_config().epochs == 5

    def test_abundance_dim_defaults_to_classes_plus_two(self):
        cfg = RunConfig(None, [])
        assert cfg.model_config(bands=30, num_classes=4).abundance_dim == 6

    def test_settable_keys_are_the_dataclass_fields(self):
        def names(cls):
            return {f.name for f in fields(cls)}
        assert set(settable(TrainConfig)) == names(TrainConfig)
        assert set(settable(ModelConfig)) == names(ModelConfig) - {"bands", "num_classes"}
        assert set(settable(SynthSpec)) == names(SynthSpec)
        assert [len(settable(c)) for c in (TrainConfig, ModelConfig, SynthSpec)] == \
            [12, 6, 8]

    def test_readme_table_lists_the_settable_keys(self):
        # each row names its keys in field order; parenthesized notes may
        # mention values, and a trailing sentence may repeat keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M))
        assert set(rows) == set(SECTIONS)
        for section, cls in SECTIONS.items():
            text, prev = rows[section], None
            while text != prev:
                prev, text = text, re.sub(r"\([^()]*\)", "", text)
            named = dict.fromkeys(re.findall(r"`(\w+)`", text))
            assert list(named) == list(settable(cls)), section

    def test_resolved_text_reads_back(self, tmp_path):
        model_cfg = ModelConfig(bands=30, num_classes=4, stick_transform="standard",
                                encoder_hidden=[9, 5], dropout_rate=0.1)
        train_cfg = TrainConfig(learning_rate=3e-4, variant="affine-decoder")
        spec = SynthSpec(scale=np.linspace(0.5, 0.9, 40), offset=np.float64(0.2))
        path = tmp_path / "resolved.txt"
        path.write_text(resolved_text(model_cfg, train_cfg, spec))
        cfg = RunConfig(path)
        assert cfg.model_config(bands=30, num_classes=4) == model_cfg
        assert cfg.train_config() == train_cfg
        assert resolved_text(cfg.synth_spec()) == resolved_text(spec)


class TestThreadCaps:
    @pytest.mark.parametrize("imports, warned", [
        ("import numpy, pctl", True), ("import pctl, numpy", False)])
    def test_pctl_threads_warns_when_numpy_came_first(self, imports, warned):
        caps = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in caps}
        env["PCTL_THREADS"] = "1"
        env["PYTHONPATH"] = str(Path(pctl.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", f"{imports}; import os; print(os.environ['OMP_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True)
        assert run.stdout == "1\n"
        assert ("RuntimeWarning: PCTL_THREADS does not cap" in run.stderr) == warned, run.stderr
