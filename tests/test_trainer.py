from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

import pctl.trainer
from pctl.classifier import extract_patches
from pctl.data import SynthSpec, generate_synthetic_pair
from pctl.errors import ConfigError, DataMismatchError, DivergenceError, ParseError
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
    variant_flags,
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


def params_snapshot(state):
    return {name: t.data.copy() for name, t in state.parameters()}


class TestConfigs:
    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=-1.0)

    def test_conflicting_flags_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(classifier_only=True, shared_decoder_only=True)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_flags("bogus")

    def test_training_cannot_change_the_modules(self):
        source, target, _ = tiny_scene()
        state = ModelState(tiny_model(), tiny_train(no_mi=True), seed=3)
        with pytest.raises(ConfigError, match="no_mi=True"):
            train(state, source, target, tiny_train())
        cfg = tiny_train(no_mi=True, epochs=1, learning_rate=1e-2)
        train(state, source, target, cfg)
        assert state.train_cfg == cfg


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
        loss, parts = compute_losses(state, xs, xt, patches, labels, cfg, mi_seed=4)
        expected = parts["L2"] + cfg.alpha * parts["LH"] + parts["LI"] + parts["LS"]
        npt.assert_allclose(loss.item(), expected, atol=1e-10)
        npt.assert_allclose(loss.item(), parts["total"], atol=1e-15)
        # the logged MI column already carries its weight and stays non-negative
        assert parts["LI"] >= 0.0
        assert parts["L2"] >= 0.0 and parts["LH"] >= 0.0 and parts["LS"] >= 0.0

    def test_zero_weights_reduce_to_recon_plus_classification(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(alpha=0.0, mi_weight=0.0, no_sparse=True, no_mi=True)
        state = ModelState(tiny_model(), cfg, seed=2)
        xs, xt = source.pixels()[:8], target.pixels()[:8]
        centers = np.argwhere(source.labels > 0)[:4]
        patches = extract_patches(source.reflectance, centers, 3)
        labels = source.labels[centers[:, 0], centers[:, 1]] - 1
        loss, parts = compute_losses(state, xs, xt, patches, labels, cfg, mi_seed=0)
        assert set(parts) == {"L2", "LS", "total"}
        npt.assert_allclose(loss.item(), parts["L2"] + parts["LS"], atol=1e-12)

    def test_classifier_only_has_no_reconstruction(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(classifier_only=True)
        state = ModelState(tiny_model(), cfg, seed=3)
        assert state.decoder is None and state.mi_disc is None
        names = [n for n, _ in state.parameters()]
        assert all(not n.startswith(("dec.", "mi.")) for n in names)
        centers = np.argwhere(source.labels > 0)[:4]
        patches = extract_patches(source.reflectance, centers, 3)
        labels = source.labels[centers[:, 0], centers[:, 1]] - 1
        _, parts = compute_losses(state, source.pixels()[:8], target.pixels()[:8],
                                  patches, labels, cfg, mi_seed=0)
        assert set(parts) == {"LS", "total"}

    def test_shared_decoder_has_no_affine_parameters(self):
        cfg = tiny_train(shared_decoder_only=True, no_sparse=True, no_mi=True)
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
        for idx, tgt in enumerate((target, target.without_labels())):
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
        # training re-initializes the endmembers and the source pair, so the
        # poison goes into the target pair
        state.decoder.tgt_offset.data[0] = np.inf
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
        rows = train(state, source, target.without_labels(), cfg)
        assert "source_oa" in rows[-1]
        assert "target_oa" not in rows[-1]


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
        raster = predict(state, source)
        assert raster.shape == (source.height, source.width)
        assert raster.min() >= 1 and raster.max() <= 3

    def test_predict_matches_logged_final_source_oa(self, trained):
        state, source, _, rows = trained
        raster = predict(state, source)
        labeled = source.labels > 0
        oa = float(np.mean(raster[labeled] == source.labels[labeled]))
        npt.assert_allclose(oa, rows[-1]["source_oa"], atol=1e-12)

    def test_argmax_invariant_to_constant_logit_shift(self, trained):
        state, source, _, _ = trained
        before = predict(state, source)
        state.classifier.head.bias.data += 7.5  # same shift for every class
        after = predict(state, source)
        state.classifier.head.bias.data -= 7.5
        npt.assert_array_equal(before, after)

    def test_evaluate_matches_confusion_pipeline(self, trained):
        state, source, _, _ = trained
        oa, aa, kappa = evaluate(state, source)
        centers = np.argwhere(source.labels > 0)
        preds = predict_centers(state, source, centers)
        truth = source.labels[centers[:, 0], centers[:, 1]]
        cm = confusion(truth, preds, 3)
        expected = oa_aa_kappa(cm)
        assert (oa, aa, kappa) == expected

    def test_band_mismatch_on_predict(self, trained):
        state, *_ = trained
        from pctl.data import HsiCube
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
        model_cfg = tiny_model(stick_transform="standard", beta_mode="fixed",
                               beta_shared=True, per_band_affine=False,
                               mi_hidden=7, dropout_rate=0.25)
        common = dict(alpha=0.002, mi_weight=0.2, learning_rate=2e-3, batch_recon=16,
                      batch_class=4, epochs=1, steps_per_epoch=2, seed=3,
                      label_fraction=0.3, eval_every=3, eval_samples=9,
                      no_sparse=True, no_mi=True)
        cfgs = [TrainConfig(**common, shared_decoder_only=True),
                TrainConfig(**common, classifier_only=True)]
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

    def test_missing_train_records_load_as_defaults(self, tmp_path, monkeypatch):
        # older checkpoints store only these four of the train fields
        kept = {"cfg.classifier_only", "cfg.shared_decoder_only", "cfg.no_mi", "cfg.seed"}
        records = pctl.trainer.config_records
        monkeypatch.setattr(pctl.trainer, "config_records", lambda cfg: [
            r for r in records(cfg) if not isinstance(cfg, TrainConfig) or r[0] in kept])
        state = ModelState(tiny_model(), tiny_train(epochs=0, alpha=0.5, no_mi=True),
                           seed=14)
        path = tmp_path / "m.pctl"
        save_checkpoint(state, path)
        monkeypatch.undo()
        loaded = load_checkpoint(path)
        assert loaded.model_cfg == state.model_cfg
        assert loaded.train_cfg == TrainConfig(seed=9, no_mi=True)

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
        cfg = tiny_train(epochs=1, classifier_only=True)
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
        npt.assert_allclose(rows[0]["source_oa"], evaluate(standalone, source)[0],
                            atol=1e-12)

    def test_variant_structure_column(self):
        source, target, _ = tiny_scene()
        cfg = tiny_train(epochs=1)
        rows = run_ablation(tiny_model(), cfg, source, target,
                            variants=("classifier-only", "shared-decoder", "full"))
        by_name = {r["variant"]: r["state"] for r in rows}
        assert by_name["classifier-only"].decoder is None
        assert not hasattr(by_name["shared-decoder"].decoder, "src_scale")
        assert hasattr(by_name["full"].decoder, "src_scale")
