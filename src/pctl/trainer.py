"""Joint training of the reconstruction and classification branches.

Every step draws a reconstruction batch of pixels from each domain and a
patch batch from the labeled source pixels, composes one scalar objective
(reconstruction + sparsity + negated mutual-information bound +
classification), backpropagates, and applies an Adam update. While the
reconstruction branch is on, the classification term reads the abundances
without differentiating through the encoder: the unmixing terms alone shape
the shared abundance space, and the classifier learns on top of it. Target
labels are never touched by the optimizer; they only feed evaluation columns
in the metrics log.
"""

from __future__ import annotations

import hashlib
import math
import struct
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, fresh_tape, no_grad
from .classifier import (
    PREDICT_BATCH,
    Classifier3d,
    abundance_patches_from_map,
    classification_loss,
    encode_patches,
    extract_patches,
    window_pixels,
)
from .config import (
    ABLATION_VARIANTS,
    ModelConfig,
    TrainConfig,
    config_records,
    from_records,
    record_value,
)
from .data import HsiCube, split_labels
from .decoder import AffineDecoder, PlainDecoder, reconstruction_loss
from .encoder import Encoder, sparse_loss
from .errors import (
    ConfigError,
    ContractError,
    DataMismatchError,
    DivergenceError,
    DomainError,
    ParseError,
)
from .layers import one_hot
from .metrics import ConfusionMatrix, confusion, oa_aa_kappa
from .mi import MiDiscriminator, mi_loss

CHECKPOINT_MAGIC = b"PCTL"
CHECKPOINT_VERSION = 1
# pixels encoded per call when mapping a whole cube
ENCODE_CHUNK = 4096
# the loss components of a step, in metrics.csv column order
LOSS_COLUMNS = ("L2", "LH", "LI", "LS", "total")


def stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for (seed, name).

    Each consumer (init, dropout, batch, shuffle, eval, split) draws from its
    own stream, so toggling one never perturbs the draws of the others.
    """
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))


class ModelState:
    """All learnable parameters plus optimizer moments and the step counter."""

    def __init__(self, model_cfg: ModelConfig, train_cfg: TrainConfig, seed: int):
        self.model_cfg = model_cfg
        self.train_cfg = train_cfg
        init = stream(seed, "init")
        self.encoder = Encoder(model_cfg, rng=init)
        if not train_cfg.use_reconstruction:
            self.decoder = None
        elif train_cfg.variant == "shared-decoder":
            self.decoder = PlainDecoder(model_cfg, rng=init)
        else:
            self.decoder = AffineDecoder(model_cfg, rng=init)
        self.mi_disc = MiDiscriminator(model_cfg, rng=init) if train_cfg.use_mi else None
        self.classifier = Classifier3d(model_cfg, rng=init,
                                       dropout_rng=stream(seed, "dropout"))
        self.step = 0
        self.adam_m = {name: np.zeros_like(t.data) for name, t in self.parameters()}
        self.adam_v = {name: np.zeros_like(t.data) for name, t in self.parameters()}

    def parameters(self):
        out = [(f"enc.{n}", t) for n, t in self.encoder.parameters()]
        if self.decoder is not None:
            out += [(f"dec.{n}", t) for n, t in self.decoder.parameters()]
        if self.mi_disc is not None:
            out += [(f"mi.{n}", t) for n, t in self.mi_disc.parameters()]
        out += [(f"clf.{n}", t) for n, t in self.classifier.parameters()]
        return out

    def buffers(self):
        return [(f"clf.{n}", b) for n, b in self.classifier.buffers()]

    def zero_grads(self):
        for _, t in self.parameters():
            t.zero_grad()

    def adam_update(self, lr: float):
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.step += 1
        for name, t in self.parameters():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            self.adam_m[name] = b1 * self.adam_m[name] + (1 - b1) * g
            self.adam_v[name] = b2 * self.adam_v[name] + (1 - b2) * g * g
            m_hat = self.adam_m[name] / (1 - b1 ** self.step)
            v_hat = self.adam_v[name] / (1 - b2 ** self.step)
            t.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


# -- loss composition -----------------------------------------------------------

def compute_losses(state: ModelState, x_source: np.ndarray, x_target: np.ndarray,
                   patches: np.ndarray, patch_labels: np.ndarray, mi_seed: int):
    """One training-mode forward pass of the combined objective, under the
    state's ``train_cfg``.

    Returns (loss tensor, components dict). Component values are logged
    unweighted except the MI column, which carries -mi_weight * bound (the
    quantity actually added to the minimized objective).

    With reconstruction on, the loss gradient reaches the encoder, decoder
    and MI discriminator through the unmixing terms (L2, LH, LI) only, and
    the classifier through LS only. The classifier-only ablation keeps the
    end-to-end encoder, which LS then trains.
    """
    cfg = state.train_cfg
    parts: dict[str, float] = {}
    total = None

    def accumulate(term):
        nonlocal total
        total = term if total is None else total + term

    if cfg.use_reconstruction:
        xs, xt = Tensor(x_source), Tensor(x_target)
        a_s = state.encoder.encode(xs)
        a_t = state.encoder.encode(xt)
        xhat_s, xhat_t = state.decoder.decode_both(a_s, a_t)
        l2 = reconstruction_loss(xhat_s, xs, xhat_t, xt)
        parts["L2"] = l2.item()
        accumulate(l2)
        if cfg.use_sparse:
            lh = sparse_loss(a_s, a_t)
            parts["LH"] = lh.item()
            accumulate(lh * cfg.alpha)
        if cfg.use_mi:
            bound = mi_loss(state.mi_disc, xs, a_s, xt, a_t, mi_seed)
            li = bound * -cfg.mi_weight
            parts["LI"] = li.item()
            accumulate(li)

    # with reconstruction on, the classification gradient stops at the
    # abundances, so only the unmixing terms above train the encoder
    with no_grad() if cfg.use_reconstruction else nullcontext():
        patch_batch = encode_patches(state.encoder, patches)
    logits = state.classifier.logits(patch_batch, train=True)
    ls = classification_loss(
        logits, Tensor(one_hot(patch_labels, state.model_cfg.num_classes)))
    parts["LS"] = ls.item()
    accumulate(ls)

    for name, value in parts.items():
        if not np.isfinite(value):
            raise DivergenceError(f"loss component {name} became non-finite "
                                  f"at step {state.step}")
    parts["total"] = total.item()
    return total, parts


# -- training loop ----------------------------------------------------------------

def train(state: ModelState, source: HsiCube, target: HsiCube, cfg: TrainConfig):
    """Run the optimization; returns per-epoch metric rows.

    The final epoch's accuracy columns are measured over every labeled pixel,
    and its row also keeps those confusion counts as ``source_cm`` and, for a
    labeled target, ``target_cm``: nested lists, so that a row stays plain
    JSON data. Intermediate epochs use a fixed random subsample to keep
    evaluation cheap. Rows between evaluations leave the accuracy columns
    empty.

    A fresh state (step 0) that is about to train first initializes its
    decoder from the two unlabeled cubes; see ``AffineDecoder.initialize``.
    A resumed state, or a run with zero epochs, is left as it is.

    ``cfg`` must name the variant the state was built as; once the checks
    pass it becomes the state's ``train_cfg``, which the checkpoint stores.
    """
    if cfg.variant != state.train_cfg.variant:
        raise ConfigError(f"the model state was built as variant {state.train_cfg.variant!r}; "
                          f"training cannot change it to {cfg.variant!r}")
    if source.labels is None:
        raise ContractError("source cube must carry labels")
    if source.bands != state.model_cfg.bands or target.bands != state.model_cfg.bands:
        raise DataMismatchError(
            f"cube bands ({source.bands}/{target.bands}) do not match model "
            f"({state.model_cfg.bands})")
    state.train_cfg = cfg

    batch_rng = stream(cfg.seed, "batch")
    shuffle_rng = stream(cfg.seed, "shuffle")
    eval_rng = stream(cfg.seed, "eval")

    train_mask, _ = split_labels(source, cfg.label_fraction,
                                 stream(cfg.seed, "split").integers(2 ** 32))
    train_centers = np.argwhere(train_mask)
    train_labels = source.labels[train_mask] - 1  # zero-based for one-hot

    src_pixels = source.pixels()
    tgt_pixels = target.pixels()
    # per labeled domain: every labeled pixel, which the final epoch scores,
    # and the fixed subsample that earlier evaluations score
    evals = []
    for name, cube in (("source", source), ("target", target)):
        if cube.num_classes() > 0:
            centers = np.argwhere(cube.labels > 0)
            idx = eval_rng.choice(len(centers), size=min(cfg.eval_samples, len(centers)),
                                  replace=False)
            evals.append((name, cube, centers, centers[np.sort(idx)]))

    if cfg.epochs > 0 and state.step == 0 and state.decoder is not None:
        state.decoder.initialize(src_pixels, tgt_pixels)

    rows = []
    for epoch in range(1, cfg.epochs + 1):
        parts = {}
        for _ in range(cfg.steps_per_epoch):
            idx_s = batch_rng.choice(len(src_pixels),
                                     size=min(cfg.batch_recon, len(src_pixels)),
                                     replace=False)
            idx_t = batch_rng.choice(len(tgt_pixels),
                                     size=min(cfg.batch_recon, len(tgt_pixels)),
                                     replace=False)
            pick = batch_rng.choice(len(train_centers),
                                    size=min(cfg.batch_class, len(train_centers)),
                                    replace=len(train_centers) < cfg.batch_class)
            patches = extract_patches(source.reflectance, train_centers[pick],
                                      state.model_cfg.patch_size)
            mi_seed = int(shuffle_rng.integers(2 ** 62))
            state.zero_grads()
            try:
                with fresh_tape():
                    loss, parts = compute_losses(
                        state, src_pixels[idx_s], tgt_pixels[idx_t],
                        patches, train_labels[pick], mi_seed)
                    loss.backward()
            except DomainError as exc:
                # exploding parameters surface as NaN/inf inside the forward
                raise DivergenceError(
                    f"non-finite values in the forward pass at step "
                    f"{state.step}: {exc}") from exc
            state.adam_update(cfg.learning_rate)

        final = epoch == cfg.epochs
        row = {"epoch": epoch, **{k: parts.get(k, float("nan")) for k in LOSS_COLUMNS}}
        if final or epoch % cfg.eval_every == 0:
            try:
                for name, cube, every, sub in evals:
                    cm = _accuracy(state, cube, every if final else sub)
                    row[f"{name}_oa"] = float(np.trace(cm.counts) / cm.total)
                    if final:
                        row[f"{name}_cm"] = cm.counts.tolist()
            except DomainError as exc:
                raise DivergenceError(
                    f"non-finite values while evaluating at epoch {epoch}: "
                    f"{exc}") from exc
        rows.append(row)
    return rows


def abundance_map(state: ModelState, cube: HsiCube, needed=None) -> np.ndarray:
    """Encode the pixels of a cube; [H, W, c] result, no gradients.

    ``needed`` is an [H, W] mask of the pixels to encode, by default all of
    them. They are encoded in raster order, ENCODE_CHUNK at a time, so a mask
    that covers the cube encodes exactly as the default does; the rest of the
    map is zero.
    """
    pixels = cube.pixels()
    rows = np.arange(len(pixels)) if needed is None else np.flatnonzero(needed)
    out = np.zeros((len(pixels), state.model_cfg.abundance_dim))
    with no_grad():
        for start in range(0, len(rows), ENCODE_CHUNK):
            tile = rows[start:start + ENCODE_CHUNK]
            out[tile] = state.encoder.encode(Tensor(pixels[tile])).values.data
    return out.reshape(cube.height, cube.width, -1)


def predict_centers(state: ModelState, cube: HsiCube, centers: np.ndarray) -> np.ndarray:
    """Class logits [n, k] at the given pixel centers of a cube; class
    ``j + 1`` scores in column ``j``.

    Only the pixels that the centers' windows read are encoded.
    """
    if cube.bands != state.model_cfg.bands:
        raise DataMismatchError(
            f"cube has {cube.bands} bands, model expects {state.model_cfg.bands}")
    patch_size = state.model_cfg.patch_size
    amap = abundance_map(state, cube,
                         window_pixels(cube.height, cube.width, centers, patch_size))
    logits = np.empty((len(centers), state.model_cfg.num_classes))
    with no_grad():
        for start in range(0, len(centers), PREDICT_BATCH):
            chunk = centers[start:start + PREDICT_BATCH]
            patch = abundance_patches_from_map(amap, chunk, patch_size)
            logits[start:start + len(chunk)] = state.classifier.logits(patch, train=False).data
    return logits


def predict(state: ModelState, cube: HsiCube) -> np.ndarray:
    """Class logits [H, W, k] for every pixel of a cube; pure in the frozen state."""
    rows, cols = np.meshgrid(np.arange(cube.height), np.arange(cube.width),
                             indexing="ij")
    centers = np.stack([rows.reshape(-1), cols.reshape(-1)], axis=1)
    return predict_centers(state, cube, centers).reshape(cube.height, cube.width, -1)


def _accuracy(state: ModelState, cube: HsiCube, centers: np.ndarray) -> ConfusionMatrix:
    """Confusion matrix of the predictions at labeled centers of a cube.

    It also covers any label of the cube beyond the model's classes.
    """
    preds = predict_centers(state, cube, centers).argmax(axis=1) + 1
    truth = cube.labels[centers[:, 0], centers[:, 1]]
    return confusion(truth, preds,
                     max(state.model_cfg.num_classes, int(cube.labels.max())))


def evaluate(state: ModelState, cube: HsiCube):
    """OA / AA / kappa over every labeled pixel of the cube."""
    if cube.labels is None:
        raise ContractError("cube has no labels to evaluate against")
    return oa_aa_kappa(_accuracy(state, cube, np.argwhere(cube.labels > 0)))


# -- ablation -----------------------------------------------------------------------

def run_ablation(model_cfg: ModelConfig, base_cfg: TrainConfig,
                 source: HsiCube, target: HsiCube,
                 variants=ABLATION_VARIANTS):
    """Train each variant on the same data and seed; returns comparison rows.

    A variant's scores are those of its final training evaluation, which
    covers every labeled pixel of both domains, so the target needs labeled
    pixels, training at least one epoch, and each variant named once.
    """
    if target.num_classes() == 0:
        raise ContractError("ablation scores the target domain; the target cube "
                            "has no labeled pixels")
    if base_cfg.epochs < 1:
        raise ConfigError("ablation scores each variant by its final training "
                          "evaluation; train.epochs must be >= 1")
    if len(set(variants)) < len(variants):
        raise ConfigError(f"ablation names a variant twice: {', '.join(variants)}")
    cfgs = [replace(base_cfg, variant=name) for name in variants]
    rows = []
    for name, cfg in zip(variants, cfgs):
        state = ModelState(model_cfg, cfg, seed=cfg.seed)
        final = train(state, source, target, cfg)[-1]
        row = {"variant": name, "state": state}
        for domain in ("source", "target"):
            oa, aa, kappa = oa_aa_kappa(ConfusionMatrix(final[f"{domain}_cm"]))
            row.update({f"{domain}_oa": oa, f"{domain}_aa": aa,
                        f"{domain}_kappa": kappa})
        rows.append(row)
    return rows


# -- metrics CSV ---------------------------------------------------------------------

METRIC_COLUMNS = ("epoch", *LOSS_COLUMNS, "source_oa", "target_oa")


def format_metrics_csv(rows) -> str:
    lines = [",".join(METRIC_COLUMNS)]
    for row in rows:
        cells = []
        for col in METRIC_COLUMNS:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif col == "epoch":
                cells.append(str(int(value)))
            elif isinstance(value, float) and np.isnan(value):
                cells.append("")
            else:
                cells.append(repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- checkpointing -------------------------------------------------------------------

def checkpoint_records(state: ModelState) -> list:
    """Every (name, array) record of ``state`` in file order: the settings,
    the step, then each parameter, batchnorm buffer and Adam moment as the
    state's own array. A checkpoint holds exactly these records."""
    records = config_records(state.model_cfg) + config_records(state.train_cfg)
    records += [("step", np.asarray(state.step, dtype=np.float64))]
    records += [(name, t.data) for name, t in state.parameters()]
    records += [(f"buf.{name}", b) for name, b in state.buffers()]
    records += [(f"adam.m.{name}", m) for name, m in sorted(state.adam_m.items())]
    records += [(f"adam.v.{name}", v) for name, v in sorted(state.adam_v.items())]
    return records


def save_checkpoint(state: ModelState, path) -> None:
    """magic, version byte, then length-prefixed (name, shape, float64) records."""
    with open(Path(path), "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        for name, data in checkpoint_records(state):
            arr = np.asarray(data, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def _read_records(path) -> dict:
    raw = Path(path).read_bytes()
    if len(raw) < 5 or raw[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic at byte offset 0")
    if raw[4] != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {raw[4]}")
    records = {}
    offset = 5
    while offset < len(raw):
        try:
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, offset)
            offset += 4 * ndim
            count = math.prod(shape)
            if 8 * count > len(raw) - offset:
                raise ValueError("the payload runs past the end of the file")
            array = np.frombuffer(raw, "<f8", count, offset).reshape(shape)
        except (struct.error, ValueError) as exc:
            raise ParseError(f"{path}: truncated record at byte offset {offset}") from exc
        if name in records:
            raise ParseError(f"{path}: checkpoint has record {name} twice")
        if not np.isfinite(array).all():
            raise ParseError(f"{path}: record {name} holds a non-finite value")
        records[name] = array
        offset += 8 * count
    return records


def load_checkpoint(path) -> ModelState:
    """Rebuild a ModelState whose forward outputs match the saved one exactly.

    The file must hold exactly the records ``checkpoint_records`` lists for
    the state its ``cfg.*`` records describe, each once, every value finite
    and the step at least 0; any other file is a ParseError.
    """
    rec = _read_records(path)
    try:
        train_cfg = from_records(TrainConfig, rec)
        state = ModelState(from_records(ModelConfig, rec), train_cfg, seed=train_cfg.seed)
        state.step = record_value("step", int, rec["step"])
        if state.step < 0:
            raise ParseError(f"record step must be >= 0, got {state.step}")
        records = checkpoint_records(state)
        names = {name for name, _ in records}
        for name in rec:
            if name not in names:
                raise ParseError(f"checkpoint has record {name}, which this version does "
                                 f"not write for its settings; retrain the model")
        # the settings and the step were read above, so their arrays here are
        # copies that the fill leaves unused
        for name, array in records:
            array[...] = rec[name].reshape(array.shape)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"{path}: checkpoint is missing record {exc.args[0]}; "
                         f"retrain the model") from exc
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: a record does not fit the model the "
                         f"checkpoint describes: {exc}") from exc
    return state
