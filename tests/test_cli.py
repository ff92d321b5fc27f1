from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from pctl.cli import main
from pctl.config import ModelConfig, RunConfig, resolved_text, settable
from pctl.data import HsiCube, SynthSpec, read_cube, read_labels, write_cube, write_labels
from pctl.errors import ConfigError
from pctl.trainer import ModelState, TrainConfig, load_checkpoint, predict

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

    @pytest.mark.parametrize("flag", ["train.no_mi=true", "train.classifier_only=true"])
    def test_resume_with_default_flags_keeps_the_checkpoints_settings(
            self, scene, tmp_path, flag):
        first, second = tmp_path / "first", tmp_path / "second"
        assert train_cmd(scene, first, *TRAIN_OVERRIDES, "--set", flag,
                         "--set", "train.epochs=1") == 0
        assert train_cmd(scene, second, "--resume", str(first / "model.pctl")) == 0
        before = load_checkpoint(first / "model.pctl")
        after = load_checkpoint(second / "model.pctl")
        assert after.step == 2
        assert after.train_cfg == before.train_cfg
        assert after.model_cfg == before.model_cfg

    @pytest.mark.parametrize("flag", ["train.no_mi=false", "model.patch_size=5"])
    def test_resume_with_a_conflicting_setting_exits_2(self, scene, tmp_path,
                                                       capsys, flag):
        first = tmp_path / "first"
        assert train_cmd(scene, first, *TRAIN_OVERRIDES,
                         "--set", "train.no_mi=true") == 0
        capsys.readouterr()
        assert train_cmd(scene, tmp_path / "second", "--resume",
                         str(first / "model.pctl"), "--set", flag) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

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

    def test_unknown_config_key_exits_2(self, scene, tmp_path, capsys):
        code = main(["train", "--source", str(scene / "data/source.hsic"),
                     "--target", str(scene / "data/target.hsic"),
                     "--out", str(tmp_path / "x"),
                     "--set", "train.typo_key=1"])
        assert code == 2
        assert "typo_key" in capsys.readouterr().err


class TestPredictEvaluate:
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


class TestInspectDecoder:
    def test_dump_affine_pairs(self, trained, tmp_path):
        out = tmp_path / "affine.csv"
        assert main(["inspect-decoder", "--checkpoint", str(trained / "model.pctl"),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "band,src_scale,src_offset,tgt_scale,tgt_offset"
        assert len(lines) == 11  # one per band


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


class TestGradcheckCommand:
    def test_single_seed_sweep_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out


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
        assert set(settable(SynthSpec)) == names(SynthSpec) - {"concentrations", "basis"}
        assert [len(settable(c)) for c in (TrainConfig, ModelConfig, SynthSpec)] == \
            [15, 10, 11]

    def test_resolved_text_reads_back(self, tmp_path):
        model_cfg = ModelConfig(bands=30, num_classes=4, stick_transform="standard",
                                encoder_hidden=[9, 5], dropout_rate=0.1)
        train_cfg = TrainConfig(learning_rate=3e-4, no_sparse=True)
        spec = SynthSpec(scale=np.linspace(0.5, 0.9, 40), offset=np.float64(0.2))
        path = tmp_path / "resolved.txt"
        path.write_text(resolved_text(model_cfg, train_cfg, spec))
        cfg = RunConfig(path)
        assert cfg.model_config(bands=30, num_classes=4) == model_cfg
        assert cfg.train_config() == train_cfg
        assert resolved_text(cfg.synth_spec()) == resolved_text(spec)
