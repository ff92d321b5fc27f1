"""The benchmark's workloads: inputs, set-up, one timed operation, checks.

The train workloads run the acceptance recipe, whose seeds belong to it:
scene seed 0 and train seed 1. They accept the workload seed and change no
input with it, because criterion 07's accuracy floors, which the train-pixel
check applies, do not hold on every scene and train seed (see README.md).
``predict-p5`` draws everything from the workload seed: it trains its
checkpoint on a small scene with that seed and train seed ``seed + 1``, and
classifies the target cube of a larger scene with the same seed, hence the
same materials.

pctl must be importable (run.py puts the checkout's ``src`` first on the
path) and PCTL_THREADS must be set before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pctl import autodiff, classifier, cli, data, trainer

import reference
from tracing import Patches

# The acceptance recipe, as ACCEPT_MODEL and ACCEPT_TRAIN in
# tests/test_acceptance.py; the scene is the default SynthSpec.
RECIPE_MODEL = dict(abundance_dim=6, dropout_rate=0.25)
RECIPE_TRAIN = dict(alpha=0.001, mi_weight=0.1, learning_rate=1e-3,
                    batch_recon=256, batch_class=64, epochs=200,
                    steps_per_epoch=1, label_fraction=0.05, eval_every=10,
                    eval_samples=64)

# The 200-step recipe at patch 3 took 114 s in a probe on the reference
# machine, too long to repeat in every run. train-p3 keeps its model and settings but
# stops after 40 steps, on a scene of half the default size (400 pixels per
# class, 3200 in all), so that a run takes under 50 s.
P3_EPOCHS = 40
P3_PIXELS_PER_CLASS = 400

# predict-p5: a 32-pixel-per-domain training scene and a few cheap steps make
# the checkpoint, so set-up can be repeated; the cube to classify has 512
# pixels, two full batches of 256 patches.
P5_TRAIN_PIXELS_PER_CLASS = 8
P5_CUBE_PIXELS_PER_CLASS = 128
P5_TRAIN_SETTINGS = ["model.patch_size=5", "model.dropout_rate=0.25",
                     "train.epochs=4", "train.eval_every=2", "train.eval_samples=8",
                     "train.batch_recon=64", "train.batch_class=8",
                     "train.label_fraction=0.25"]

# Reference logits must match the program's within this absolute distance;
# labels are compared wherever the reference's top two logits are further apart.
LOGIT_TOL = 1e-9
# trainer.predict_centers scores centers in batches of this many patches
EVAL_BATCH = 256
REFERENCE_CENTERS = 64
SIMPLEX_TOL = 1e-9
RECIPE_SCENE_SEED = 0
RECIPE_TRAIN_SEED = 1


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def _quiet():
    """Send the CLI's progress prints to stderr; stdout ends with the result."""
    return contextlib.redirect_stdout(sys.stderr)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def gen_synth(out: Path, seed: int, pixels_per_class: int | None = None) -> None:
    lines = [f"synth.seed = {seed}"]
    if pixels_per_class is not None:
        lines.append(f"synth.pixels_per_class = {pixels_per_class}")
    out.mkdir(parents=True, exist_ok=True)
    spec = out / "synth.cfg"
    spec.write_text("\n".join(lines) + "\n")
    with _quiet():
        code = cli.main(["gen-synth", "--spec", str(spec), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"pctl gen-synth exited with {code}")


def stamp(patches: Patches, owner, attr: str, size=None) -> list[tuple]:
    """``(perf_counter, size(*args))`` appended at each return of ``owner.attr``.

    ``size`` defaults to None for every call. The attribute stays wrapped
    until ``patches.restore()``.
    """
    stamps: list[tuple] = []

    def wrapper(original):
        def stamped(*args, **kwargs):
            out = original(*args, **kwargs)
            stamps.append((time.perf_counter(),
                           None if size is None else size(*args, **kwargs)))
            return out
        return stamped
    patches.wrap(owner, attr, wrapper)
    return stamps


def batch_rates(amaps: list, batches: list, batch: int) -> list[float]:
    """Patches per second of each full batch that predict_centers scores.

    A batch runs from the previous stamp of the same predict_centers call,
    the return of its abundance_map or of the batch before, to the return of
    its Classifier3d.logits, so the gap between calls is never counted.
    """
    merged = sorted(amaps + batches, key=lambda s: s[0])
    return [n / (t - t0) for (t0, _), (t, n) in zip(merged, merged[1:])
            if n == batch]


# -- train workloads --------------------------------------------------------------

@dataclass
class TrainWorkload:
    name: str
    patch_size: int
    epochs: int
    pixels_per_class: int | None    # None: the default scene
    why: str

    def configs(self, source):
        model_cfg = trainer.ModelConfig(bands=source.bands,
                                        num_classes=source.num_classes(),
                                        patch_size=self.patch_size, **RECIPE_MODEL)
        train_cfg = trainer.TrainConfig(**{**RECIPE_TRAIN, "epochs": self.epochs},
                                        seed=RECIPE_TRAIN_SEED)
        return model_cfg, train_cfg

    def setup(self, run_dir: Path, seed: int) -> None:
        """Generate the scene through the CLI, read it back, build the model.

        ``seed`` changes nothing here: the recipe's seeds are fixed.
        """
        gen_synth(run_dir / "scene", RECIPE_SCENE_SEED, self.pixels_per_class)
        inputs = self.load(run_dir)
        trainer.ModelState(inputs["model_cfg"], inputs["train_cfg"], seed=RECIPE_TRAIN_SEED)

    def load(self, run_dir: Path) -> dict:
        scene = run_dir / "scene"
        source = data.read_cube(scene / "source.hsic")
        target = data.read_cube(scene / "target.hsic")
        model_cfg, train_cfg = self.configs(source)
        return {"source": source, "target": target, "model_cfg": model_cfg,
                "train_cfg": train_cfg, "run_dir": run_dir}

    def run_op(self, inputs: dict) -> dict:
        """Train once and evaluate every labeled pixel; save the checkpoint."""
        cfg = inputs["train_cfg"]
        state = trainer.ModelState(inputs["model_cfg"], cfg, seed=cfg.seed)
        patches = Patches()
        adams = stamp(patches, trainer.ModelState, "adam_update")
        amaps = stamp(patches, trainer, "abundance_map")
        batches = stamp(patches, classifier.Classifier3d, "logits",
                        size=lambda clf, patch, **_: patch.shape[0])
        try:
            started = time.perf_counter()
            rows = trainer.train(state, inputs["source"], inputs["target"], cfg)
            ended = time.perf_counter()
        finally:
            patches.restore()
        path = inputs["run_dir"] / "model.pctl"
        trainer.save_checkpoint(state, path)
        t = [when for when, _ in adams]
        # the interval after epoch e holds an evaluation when e % eval_every == 0
        steps = [1000.0 * (t[i] - t[i - 1]) for i in range(1, len(t))
                 if i % cfg.eval_every != 0]
        # the final evaluation is everything after the last Adam update
        final = [[s for s in stamps if s[0] > t[-1]] for stamps in (amaps, batches)]
        return {"wall_s": ended - started, "steps_ms": steps, "steps": len(t),
                "infer_rates": batch_rates(*final, EVAL_BATCH),
                "first": rows[0], "final": rows[-1], "digest": _digest(path),
                "output": str(path)}

    def check(self, run_dir: Path, results: list) -> dict:
        """Check the trained model; returns figures for the report."""
        if len({r["digest"] for r in results}) != 1:
            raise CheckFailed("repeated trainings wrote different checkpoints")
        first, final = results[-1]["first"], results[-1]["final"]
        scene = run_dir / "scene"
        classes = int(reference.read_labels(scene / "source.hsil").max())
        if self.epochs == RECIPE_TRAIN["epochs"]:
            # criterion 07's floors hold for the whole recipe
            if final["source_oa"] < 0.95 or final["target_oa"] < 0.90:
                raise CheckFailed(f"OA below the recipe floors: source "
                                  f"{final['source_oa']:.4f}, target {final['target_oa']:.4f}")
        else:
            # a shortened run must still learn: losses fall, OA beats chance
            for key in ("L2", "LS"):
                if not final[key] < first[key]:
                    raise CheckFailed(f"{key} did not fall: {first[key]} -> {final[key]}")
            if final["source_oa"] <= 1.0 / classes:
                raise CheckFailed(f"source OA {final['source_oa']:.4f} is not above chance")

        # the saved model, reloaded, labels the target cube as training scored it
        pred = scene / "target-pred.hsil"
        with _quiet():
            code = cli.main(["predict", "--checkpoint", results[-1]["output"],
                             "--cube", str(scene / "target.hsic"), "--out", str(pred)])
        if code != 0:
            raise CheckFailed(f"pctl predict exited with {code}")
        counted = reference.overall_accuracy(
            reference.read_labels(scene / "target.hsil"), reference.read_labels(pred))
        if abs(counted - final["target_oa"]) > 1e-12:
            raise CheckFailed(f"counted target OA {counted} != logged {final['target_oa']}")

        state = trainer.load_checkpoint(results[-1]["output"])
        source = data.read_cube(scene / "source.hsic")
        amap = trainer.abundance_map(state, source).reshape(-1, state.model_cfg.abundance_dim)
        if amap.min() < 0.0 or np.abs(amap.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
            raise CheckFailed("an abundance row leaves the simplex")
        truth = source_truth(scene / "abund.csv", amap.shape[1])
        rmse = min(float(np.sqrt(np.mean((amap[:, list(p)] - truth) ** 2)))
                   for p in itertools.permutations(range(amap.shape[1])))
        uniform = float(np.sqrt(np.mean((1.0 / amap.shape[1] - truth) ** 2)))
        if not rmse < uniform:
            raise CheckFailed(f"abundance RMSE {rmse:.4f} is no better than "
                              f"uniform guessing ({uniform:.4f})")
        return {"source_oa": final["source_oa"], "target_oa": final["target_oa"],
                "abundance_rmse": rmse, "uniform_rmse": uniform}


def source_truth(path: Path, dim: int) -> np.ndarray:
    """Generator abundances of the source pixels, in raster order."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return np.array([[float(v) for v in row[4:4 + dim]]
                     for row in rows if row[0] == "source"])


# -- predict workload ---------------------------------------------------------------

@dataclass
class PredictWorkload:
    name: str
    why: str

    def setup(self, run_dir: Path, seed: int) -> None:
        """Generate both scenes and train the patch-5 checkpoint, all by the CLI."""
        gen_synth(run_dir / "train-scene", seed, P5_TRAIN_PIXELS_PER_CLASS)
        gen_synth(run_dir / "cube-scene", seed, P5_CUBE_PIXELS_PER_CLASS)
        args = ["train", "--source", str(run_dir / "train-scene" / "source.hsic"),
                "--target", str(run_dir / "train-scene" / "target.hsic"),
                "--out", str(run_dir / "ckpt"), "--set", f"train.seed={seed + 1}"]
        for item in P5_TRAIN_SETTINGS:
            args += ["--set", item]
        with _quiet():
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"pctl train exited with {code}")

    def load(self, run_dir: Path) -> dict:
        return {"checkpoint": run_dir / "ckpt" / "model.pctl",
                "cube": run_dir / "cube-scene" / "target.hsic",
                "out": run_dir / "pred.hsil"}

    def run_op(self, inputs: dict) -> dict:
        """One `pctl predict` of the whole cube, in-process."""
        patches = Patches()
        amap = stamp(patches, trainer, "abundance_map")
        batches = stamp(patches, classifier.Classifier3d, "logits")
        try:
            started = time.perf_counter()
            with _quiet():
                code = cli.main(["predict", "--checkpoint", str(inputs["checkpoint"]),
                                 "--cube", str(inputs["cube"]),
                                 "--out", str(inputs["out"])])
            ended = time.perf_counter()
        finally:
            patches.restore()
        if code != 0:
            raise RuntimeError(f"pctl predict exited with {code}")
        t = [when for when, _ in amap[-1:] + batches]
        pixels = reference.read_labels(inputs["out"]).size
        return {"wall_s": ended - started,
                "steps_ms": [1000.0 * (b - a) for a, b in zip(t, t[1:])],
                "infer_rates": [pixels / (ended - started)],
                "digest": _digest(inputs["out"]), "output": str(inputs["out"]),
                "checkpoint_digest": _digest(inputs["checkpoint"])}

    def check(self, run_dir: Path, results: list) -> dict:
        if len({r["digest"] for r in results}) != 1:
            raise CheckFailed("repeated predictions wrote different rasters")
        inputs = self.load(run_dir)
        rec = reference.read_checkpoint(inputs["checkpoint"])
        cube = reference.read_cube(inputs["cube"])
        labels = reference.read_labels(results[-1]["output"])
        classes = int(rec["cfg.num_classes"])
        if labels.shape != cube.shape[:2] or labels.min() < 1 or labels.max() > classes:
            raise CheckFailed("the label raster does not fit the cube and classes")

        rng = np.random.default_rng(int(rec["cfg.seed"]))
        flat = rng.choice(labels.size, REFERENCE_CENTERS, replace=False)
        centers = np.stack(np.unravel_index(np.sort(flat), labels.shape), axis=1)
        expected = reference.cube_logits(rec, cube, centers)
        got = program_logits(inputs["checkpoint"], inputs["cube"], centers)
        gap = float(np.abs(expected - got).max())
        if gap > LOGIT_TOL:
            raise CheckFailed(f"logits differ from the reference by {gap:.3e}")
        top2 = np.sort(expected, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > LOGIT_TOL
        written = labels[centers[:, 0], centers[:, 1]]
        wrong = np.count_nonzero((written != expected.argmax(axis=1) + 1) & clear)
        if wrong:
            raise CheckFailed(f"{wrong} written labels differ from the reference argmax")
        truth = reference.read_labels(Path(inputs["cube"]).with_suffix(".hsil"))
        return {"target_oa": reference.overall_accuracy(truth, labels),
                "logit_gap": gap, "labels_compared": int(clear.sum())}


def program_logits(checkpoint, cube_path, centers) -> np.ndarray:
    """The program's inference logits for centers, by its own functions."""
    state = trainer.load_checkpoint(checkpoint)
    cube = data.read_cube(cube_path)
    amap = trainer.abundance_map(state, cube)
    patch = classifier.abundance_patches_from_map(amap, centers,
                                                  state.model_cfg.patch_size)
    with autodiff.no_grad():
        return state.classifier.logits(patch, train=False).data


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train-p3", 3, P3_EPOCHS, P3_PIXELS_PER_CLASS,
                      "conv3d forward and backward at kernel 3x3x3 dominate a step; "
                      "the acceptance recipe cut to 40 steps on a half-size scene"),
        TrainWorkload("train-pixel", 1, RECIPE_TRAIN["epochs"], None,
                      "the whole acceptance recipe at patch 1: many small ops, so op "
                      "overhead, the tape, encoder, MI and Adam dominate, not conv3d"),
        PredictWorkload("predict-p5",
                        "pctl predict at patch 5: forward-only conv3d on batches of "
                        "256 with kernel 3x5x5, the other side of patch 3"),
    )
}
