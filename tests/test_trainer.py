from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

import pctl.trainer
from pctl.classifier import extract_patches
from pctl.data import HsiCube, SynthSpec, generate_synthetic_pair
from pctl.errors import (
    ConfigError,
    ContractError,
    DataMismatchError,
    DivergenceError,
    ParseError,
)
from pctl.metrics import confusion, oa_aa_kappa
from pctl.trainer import (
    ModelConfig,
    ModelState,
    TrainConfig,
    compute_losses,
    evaluate,
    format_metrics_csv,
    load_checkpoint,
    predict,
    predict_centers,
    run_ablation,
    save_checkpoint,
    train,
)


def tiny_scene(seed=5, noise=0.01):
    spec = SynthSpec(classes=3, abundance_dim=5, bands=10, pixels_per_class=64,
                     noise_sigma=noise, seed=seed)
    return generate_synthetic_pair(spec)


def tiny_model(**kw):
    base = dict(bands=10, num_classes=3, abundance_dim=5, patch_size=3,
                block_channels=[2, 2, 2, 2, 2], encoder_hidden=[8, 6],
                dropout_rate=0.5)
    base.update(kw)
    return ModelConfig(**base)


def tiny_train(**kw):
    base = dict(epochs=2, steps_per_epoch=1, batch_recon=32, batch_class=8,
                label_fraction=0.25, eval_every=1, eval_samples=16, seed=9)
    base.update(kw)
    return TrainConfig(**base)


def raster(state, cube):
    """The class id (1-based) of the highest logit at every pixel."""
    return predict(state, cube).argmax(axis=2) + 1


def params_snapshot(state):
    return {name: t.data.copy() for name, t in state.parameters()}



class TestConfigs:
    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=-1.0)

    @pytest.mark.parametrize("key", ["batch_recon", "batch_class", "eval_samples"])
    def test_sizes_below_one_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: 0})

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", np.nan),
        ("learning_rate", np.inf), ("alpha", np.nan), ("mi_weight", np.inf),
        ("eval_every", -1), ("eval_every", 0), ("seed", -1), ("label_fraction", 0.0),
        ("label_fraction", 1.5), ("label_fraction", np.nan)])
    def test_bad_rates_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [
        pytest.param("stick_transform", "bogus", id="stick_transform"),
        pytest.param("num_classes", 1, id="one_class"),
        pytest.param("abundance_dim", 1, id="abundance_dim_1"),
        pytest.param("patch_size", 4, id="even_patch"),
        pytest.param("patch_size", -1, id="negative_patch"),
        pytest.param("block_channels", [4, 4, 4], id="three_blocks"),
        pytest.param("encoder_hidden", [], id="no_hidden_widths"),
        pytest.param("encoder_hidden", [6, 0], id="zero_hidden_width"),
        pytest.param("block_channels", [2, 2, -1, 2, 2], id="negative_block_width"),
    ])
    def test_bad_model_config_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            tiny_model(**{key: value})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            TrainConfig(variant="bogus")

    def test_training_cannot_change_the_modules(self):
        source, target, _ = tiny_scene()
        built = tiny_train(variant="sparse")
        state = ModelState(tiny_model(), built, seed=3)
        with pytest.raises(ConfigError, match="'sparse'"):
            train(state, source, target, tiny_train())
        assert state.train_cfg is built
        cfg = tiny_train(variant="sparse", epochs=1, learning_rate=1e-2)
        train(state, source, target, cfg)
        assert state.train_cfg == cfg

    def test_failed_checks_keep_the_state_config(self):
        source, target, _ = tiny_scene()
        built = tiny_train()
        state = ModelState(tiny_model(bands=12), built, seed=3)
        with pytest.raises(ContractError):
            train(state, HsiCube(source.reflectance), target, tiny_train(epochs=1))
        with pytest.raises(DataMismatchError):
            train(state, source, target, tiny_train(epochs=1))
        assert state.train_cfg is built


class TestLossComposition:
    def test_total_equals_sum_of_parts(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train()
        state = ModelState(tiny_model(), cfg, seed=1)
        rng = np.random.default_rng(0)
        xs = source.pixels()[rng.choice(len(source.pixels()), 16, replace=False)]
        xt = target.pixels()[rng.choice(len(target.pixels()), 16, replace=False)]
        centers = np.argwhere(source.labels > 0)[:6]
        patches = extract_patches(source.reflectance, centers, 3)
        labels = source.labels[centers[:, 0], centers[:, 1]] - 1
        loss, parts = compute_losses(state, xs, xt, patches, labels, mi_seed=4)
        expected = parts["L2"] + cfg.alpha * parts["LH"] + parts["LI"] + parts["LS"]
        npt.assert_allclose(loss.item(), expected, atol=1e-10)
        npt.assert_allclose(loss.item(), parts["total"], atol=1e-15)
        # the logged MI column already carries its weight and stays non-negative
        assert parts["LI"] >= 0.0
        assert parts["L2"] >= 0.0 and parts["LH"] >= 0.0 and parts["LS"] >= 0.0

    def test_zero_weights_reduce_to_recon_plus_classification(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(alpha=0.0, mi_weight=0.0, variant="affine-decoder")
        state = ModelState(tiny_model(), cfg, seed=2)
        xs, xt = source.pixels()[:8], target.pixels()[:8]
        centers = np.argwhere(source.labels > 0)[:4]
        patches = extract_patches(source.reflectance, centers, 3)
        labels = source.labels[centers[:, 0], centers[:, 1]] - 1
        loss, parts = compute_losses(state, xs, xt, patches, labels, mi_seed=0)
        assert set(parts) == {"L2", "LS", "total"}
        npt.assert_allclose(loss.item(), parts["L2"] + parts["LS"], atol=1e-12)

    def test_classifier_only_has_no_reconstruction(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(variant="classifier-only")
        state = ModelState(tiny_model(), cfg, seed=3)
        assert state.decoder is None and state.mi_disc is None
        names = [n for n, _ in state.parameters()]
        assert all(not n.startswith(("dec.", "mi.")) for n in names)
        centers = np.argwhere(source.labels > 0)[:4]
        patches = extract_patches(source.reflectance, centers, 3)
        labels = source.labels[centers[:, 0], centers[:, 1]] - 1
        _, parts = compute_losses(state, source.pixels()[:8], target.pixels()[:8],
                                  patches, labels, mi_seed=0)
        assert set(parts) == {"LS", "total"}

    def test_shared_decoder_has_no_affine_parameters(self):
        cfg = tiny_train(variant="shared-decoder")
        state = ModelState(tiny_model(), cfg, seed=4)
        names = [n for n, _ in state.parameters()]
        assert any(n.startswith("dec.basis_out") for n in names)
        assert all("scale" not in n and "offset" not in n for n in names)


class TestTraining:
    def test_zero_epochs_leaves_state_unchanged(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=0)
        state = ModelState(tiny_model(), cfg, seed=5)
        before = params_snapshot(state)
        rows = train(state, source, target, cfg)
        assert rows == []
        after = params_snapshot(state)
        for name in before:
            npt.assert_array_equal(before[name], after[name])
        assert state.step == 0

    def test_resumed_state_keeps_its_decoder(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=1)
        state = ModelState(tiny_model(), cfg, seed=5)
        train(state, source, target, cfg)
        state.decoder.basis_out.weight.data[...] = 0.5
        train(state, source, target, cfg)
        # one Adam step, not a fresh initialization from pixels
        assert np.max(np.abs(state.decoder.basis_out.weight.data - 0.5)) < 0.01

    def test_same_seed_gives_identical_parameters(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=3)
        results = []
        for _ in range(2):
            state = ModelState(tiny_model(), cfg, seed=cfg.seed)
            train(state, source, target, cfg)
            results.append(params_snapshot(state))
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name]), name

    def test_target_labels_never_touch_training(self, tmp_path):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=3)
        paths = []
        for idx, tgt in enumerate((target, HsiCube(target.reflectance))):
            state = ModelState(tiny_model(), cfg, seed=cfg.seed)
            train(state, source, tgt, cfg)
            path = tmp_path / f"run{idx}.pctl"
            save_checkpoint(state, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_band_mismatch_rejected(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train()
        state = ModelState(tiny_model(bands=12), cfg, seed=6)
        with pytest.raises(DataMismatchError):
            train(state, source, target, cfg)

    def test_divergence_names_first_bad_component(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train()
        state = ModelState(tiny_model(), cfg, seed=7)
        # a state past step 0 keeps its decoder, which a fresh one would
        # re-initialize from the cubes
        state.step = 1
        state.decoder.src_offset.data[0] = np.inf
        with pytest.raises(DivergenceError, match="L2"):
            train(state, source, target, cfg)

    def test_exploding_forward_reported_as_divergence(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train()
        state = ModelState(tiny_model(), cfg, seed=7)
        state.encoder.hidden[0].weight.data[0, 0] = np.inf
        with pytest.raises(DivergenceError):
            train(state, source, target, cfg)

    def test_metrics_rows_and_csv_format(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=3, eval_every=2)
        state = ModelState(tiny_model(), cfg, seed=8)
        rows = train(state, source, target, cfg)
        assert [r["epoch"] for r in rows] == [1, 2, 3]
        assert "source_oa" in rows[1] and "source_oa" not in rows[0]
        assert "source_oa" in rows[-1] and "target_oa" in rows[-1]
        csv = format_metrics_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,L2,LH,LI,LS,total,source_oa,target_oa"
        assert lines[1].split(",")[6] == ""  # no evaluation on epoch 1
        assert len(lines) == 4

    def test_loss_component_signs_logged(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=4)
        state = ModelState(tiny_model(), cfg, seed=10)
        rows = train(state, source, target, cfg)
        for row in rows:
            for key in ("L2", "LH", "LI", "LS"):
                assert row[key] >= 0.0

    def test_unlabeled_target_trains_and_logs_source_only(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=2)
        state = ModelState(tiny_model(), cfg, seed=11)
        rows = train(state, source, HsiCube(target.reflectance), cfg)
        assert "source_oa" in rows[-1] and "source_cm" in rows[-1]
        assert "target_oa" not in rows[-1] and "target_cm" not in rows[-1]

    def test_target_class_the_source_lacks_is_scored(self):
        source, target, _ = tiny_scene()
        labels = target.labels.copy()
        labels[0, 0] = 4                   # the model knows classes 1..3
        target = HsiCube(target.reflectance, labels)
        cfg = tiny_train(epochs=1)
        state = ModelState(tiny_model(), cfg, seed=11)
        rows = train(state, source, target, cfg)
        preds = raster(state, target)
        assert rows[-1]["target_oa"] == np.mean(preds[labels > 0] == labels[labels > 0])
        assert np.shape(rows[-1]["target_cm"]) == (4, 4)

    def test_final_row_keeps_the_full_confusion_matrices(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=2)
        rows = train(ModelState(tiny_model(), cfg, seed=11), source, target, cfg)
        assert "source_cm" not in rows[0]
        for domain, cube in (("source", source), ("target", target)):
            counts = np.array(rows[-1][f"{domain}_cm"])
            assert counts.sum() == int((cube.labels > 0).sum())
            assert rows[-1][f"{domain}_oa"] == np.trace(counts) / counts.sum()


class TestPredictEvaluate:
    @pytest.fixture(scope="class")
    def trained(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=3)
        state = ModelState(tiny_model(), cfg, seed=12)
        rows = train(state, source, target, cfg)
        return state, source, target, rows

    def test_raster_shape_and_range(self, trained):
        state, source, _, _ = trained
        assert predict(state, source).shape == (source.height, source.width, 3)
        classes = raster(state, source)
        assert classes.min() >= 1 and classes.max() <= 3

    def test_predict_matches_logged_final_source_oa(self, trained):
        state, source, _, rows = trained
        classes = raster(state, source)
        labeled = source.labels > 0
        oa = float(np.mean(classes[labeled] == source.labels[labeled]))
        npt.assert_allclose(oa, rows[-1]["source_oa"], atol=1e-12)

    def test_argmax_invariant_to_constant_logit_shift(self, trained):
        state, source, _, _ = trained
        before = raster(state, source)
        state.classifier.head.bias.data += 7.5  # same shift for every class
        after = raster(state, source)
        state.classifier.head.bias.data -= 7.5
        npt.assert_array_equal(before, after)

    def test_evaluate_matches_confusion_pipeline(self, trained):
        state, source, _, _ = trained
        oa, aa, kappa = evaluate(state, source)
        centers = np.argwhere(source.labels > 0)
        preds = predict_centers(state, source, centers).argmax(axis=1) + 1
        truth = source.labels[centers[:, 0], centers[:, 1]]
        cm = confusion(truth, preds, 3)
        expected = oa_aa_kappa(cm)
        assert (oa, aa, kappa) == expected

    def test_sampled_centers_predict_as_the_whole_cube(self, trained):
        """Encoding only the pixels the windows read, mirrored ones included,
        gives the predictions of the whole-cube map, at the border too."""
        state, _, target, _ = trained
        whole = raster(state, target)
        rng = np.random.default_rng(3)
        centers = np.argwhere(np.ones(whole.shape, dtype=bool))
        centers = np.concatenate([centers[rng.choice(len(centers), 12, replace=False)],
                                  [[0, 0], [target.height - 1, target.width - 1]]])
        npt.assert_array_equal(predict_centers(state, target, centers).argmax(axis=1) + 1,
                               whole[centers[:, 0], centers[:, 1]])

    def test_band_mismatch_on_predict(self, trained):
        state, *_ = trained
        wrong = HsiCube(np.zeros((4, 4, 7)))
        with pytest.raises(DataMismatchError):
            predict(state, wrong)


class TestCheckpoint:
    def test_round_trip_preserves_predictions_and_bytes(self, tmp_path):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=2)
        state = ModelState(tiny_model(), cfg, seed=13)
        train(state, source, target, cfg)
        path = tmp_path / "model.pctl"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        npt.assert_array_equal(predict(state, target), predict(loaded, target))
        path2 = tmp_path / "model2.pctl"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_configs_survive_round_trip(self, tmp_path):
        model_cfg = tiny_model(stick_transform="standard", dropout_rate=0.25)
        common = dict(alpha=0.002, mi_weight=0.2, learning_rate=2e-3, batch_recon=16,
                      batch_class=4, epochs=1, steps_per_epoch=2, seed=3,
                      label_fraction=0.3, eval_every=3, eval_samples=9)
        cfgs = [TrainConfig(**common, variant="shared-decoder"),
                TrainConfig(**common, variant="classifier-only"),
                TrainConfig(**common, variant="full")]
        for f in fields(TrainConfig):
            assert any(getattr(c, f.name) != getattr(TrainConfig(), f.name)
                       for c in cfgs), f.name
        for cfg in cfgs:
            state = ModelState(model_cfg, cfg, seed=cfg.seed)
            path = tmp_path / "m.pctl"
            save_checkpoint(state, path)
            loaded = load_checkpoint(path)
            assert loaded.model_cfg == state.model_cfg
            assert loaded.train_cfg == state.train_cfg
        # the last variant builds every module, and each reads its settings
        assert loaded.decoder.src_scale.shape == loaded.decoder.src_offset.shape == (10,)
        assert dict(loaded.parameters())["enc.beta_raw"].shape == (4,)
        assert loaded.classifier.dropout.rate == 0.25

    def test_checkpoint_magic(self, tmp_path):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=0)
        state = ModelState(tiny_model(), cfg, seed=14)
        path = tmp_path / "m.pctl"
        save_checkpoint(state, path)
        assert path.read_bytes()[:4] == b"PCTL"
        assert path.read_bytes()[4] == 1

    def test_record_of_the_wrong_shape_is_a_parse_error(self, tmp_path):
        state = ModelState(tiny_model(), tiny_train(epochs=0), seed=14)
        state.decoder.basis_out.weight.data = np.zeros((7, 10))
        path = tmp_path / "m.pctl"
        save_checkpoint(state, path)
        with pytest.raises(ParseError, match="does not fit"):
            load_checkpoint(path)

    def test_optimizer_state_survives_round_trip(self, tmp_path):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=2)
        state = ModelState(tiny_model(), cfg, seed=15)
        train(state, source, target, cfg)
        path = tmp_path / "m.pctl"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.step == state.step
        for name in state.adam_m:
            npt.assert_array_equal(loaded.adam_m[name], state.adam_m[name])
            npt.assert_array_equal(loaded.adam_v[name], state.adam_v[name])

    def test_variant_checkpoints_rebuild_their_structure(self, tmp_path):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=1, variant="classifier-only")
        state = ModelState(tiny_model(), cfg, seed=16)
        train(state, source, target, cfg)
        path = tmp_path / "clf-only.pctl"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.decoder is None and loaded.mi_disc is None
        npt.assert_array_equal(predict(state, source), predict(loaded, source))


class TestAblation:
    def test_full_row_matches_standalone_run(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=2)
        rows = run_ablation(tiny_model(), cfg, source, target, variants=("full",))
        standalone = ModelState(tiny_model(), cfg, seed=cfg.seed)
        train(standalone, source, target, cfg)
        row_state = rows[0]["state"]
        for (name, t), (name2, t2) in zip(row_state.parameters(),
                                          standalone.parameters()):
            assert name == name2
            npt.assert_array_equal(t.data, t2.data)
        for domain, cube in (("source", source), ("target", target)):
            scores = tuple(rows[0][f"{domain}_{k}"] for k in ("oa", "aa", "kappa"))
            assert scores == evaluate(standalone, cube)

    def test_each_variant_scores_every_labeled_pixel_once_per_domain(self, monkeypatch):
        source, target, _ = tiny_scene()
        scored = []
        predict_centers = pctl.trainer.predict_centers

        def counting(state, cube, centers, **kw):
            if len(centers) == int((cube.labels > 0).sum()):
                scored.append("source" if cube is source else "target")
            return predict_centers(state, cube, centers, **kw)

        monkeypatch.setattr(pctl.trainer, "predict_centers", counting)
        run_ablation(tiny_model(), tiny_train(epochs=2), source, target,
                     variants=("classifier-only", "full"))
        assert scored == ["source", "target"] * 2

    def test_bad_requests_rejected_before_any_variant_trains(self, monkeypatch):
        source, target, _ = tiny_scene()

        def no_training(*args):
            raise AssertionError("a variant trained")

        monkeypatch.setattr(pctl.trainer, "train", no_training)
        with pytest.raises(ContractError, match="target"):
            run_ablation(tiny_model(), tiny_train(), source, HsiCube(target.reflectance))
        with pytest.raises(ConfigError, match="epochs"):
            run_ablation(tiny_model(), tiny_train(epochs=0), source, target)
        with pytest.raises(ConfigError, match="nonsense"):
            run_ablation(tiny_model(), tiny_train(), source, target,
                         variants=("full", "nonsense"))
        with pytest.raises(ConfigError, match="twice: full, sparse, full"):
            run_ablation(tiny_model(), tiny_train(), source, target,
                         variants=("full", "sparse", "full"))

    def test_variant_structure_column(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=1)
        rows = run_ablation(tiny_model(), cfg, source, target,
                            variants=("classifier-only", "shared-decoder", "full"))
        by_name = {r["variant"]: r["state"] for r in rows}
        assert by_name["classifier-only"].decoder is None
        assert not hasattr(by_name["shared-decoder"].decoder, "src_scale")
        assert hasattr(by_name["full"].decoder, "src_scale")
