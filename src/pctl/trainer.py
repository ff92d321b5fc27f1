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

import struct
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, fresh_tape, no_grad
from .classifier import (
    Classifier3d,
    ClassifierConfig,
    abundance_patches_from_map,
    classification_loss,
    encode_patches,
    extract_patches,
)
from .config import ModelConfig, TrainConfig, config_records, from_records
from .data import HsiCube, split_labels
from .decoder import AffineDecoder, DecoderConfig, PlainDecoder, reconstruction_loss
from .encoder import Encoder, EncoderConfig, sparse_loss
from .errors import (
    ConfigError,
    ContractError,
    DataMismatchError,
    DivergenceError,
    DomainError,
    ParseError,
)
from .layers import one_hot, softmax
from .metrics import confusion, oa_aa_kappa
from .mi import MiConfig, MiDiscriminator, mi_loss
from .rng import StreamSet

CHECKPOINT_MAGIC = b"PCTL"
CHECKPOINT_VERSION = 1

ABLATION_VARIANTS = ("classifier-only", "shared-decoder", "affine-decoder",
                     "sparse", "full")


class ModelState:
    """All learnable parameters plus optimizer moments and the step counter."""

    def __init__(self, model_cfg: ModelConfig, train_cfg: TrainConfig, seed: int):
        self.model_cfg = model_cfg
        self.train_cfg = train_cfg
        streams = StreamSet(seed)
        init = streams.get("init")
        enc_cfg = EncoderConfig(bands=model_cfg.bands,
                                abundance_dim=model_cfg.abundance_dim,
                                hidden_widths=model_cfg.encoder_hidden,
                                stick_transform=model_cfg.stick_transform,
                                beta_mode=model_cfg.beta_mode,
                                beta_shared=model_cfg.beta_shared)
        self.encoder = Encoder(enc_cfg, rng=init)
        dec_cfg = DecoderConfig(bands=model_cfg.bands,
                                abundance_dim=model_cfg.abundance_dim,
                                per_band_affine=model_cfg.per_band_affine)
        if not train_cfg.use_reconstruction:
            self.decoder = None
        elif train_cfg.shared_decoder_only:
            self.decoder = PlainDecoder(dec_cfg, rng=init)
        else:
            self.decoder = AffineDecoder(dec_cfg, rng=init)
        if train_cfg.use_mi:
            self.mi_disc = MiDiscriminator(
                MiConfig(bands=model_cfg.bands,
                         abundance_dim=model_cfg.abundance_dim,
                         hidden=model_cfg.mi_hidden), rng=init)
        else:
            self.mi_disc = None
        clf_cfg = ClassifierConfig(abundance_dim=model_cfg.abundance_dim,
                                   num_classes=model_cfg.num_classes,
                                   patch_size=model_cfg.patch_size,
                                   block_channels=list(model_cfg.block_channels),
                                   dropout_rate=model_cfg.dropout_rate)
        self.classifier = Classifier3d(clf_cfg, rng=init,
                                       dropout_rng=streams.get("dropout"))
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

    def adam_update(self, lr: float, b1: float = 0.9, b2: float = 0.999,
                    eps: float = 1e-8):
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
                   patches: np.ndarray, patch_labels: np.ndarray,
                   cfg: TrainConfig, mi_seed: int, train: bool = True):
    """One forward pass of the combined objective.

    Returns (loss tensor, components dict). Component values are logged
    unweighted except the MI column, which carries -mi_weight * bound (the
    quantity actually added to the minimized objective).

    With reconstruction on, the loss gradient reaches the encoder, decoder
    and MI discriminator through the unmixing terms (L2, LH, LI) only, and
    the classifier through LS only. The classifier-only ablation keeps the
    end-to-end encoder, which LS then trains.
    """
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
        patch_batch = encode_patches(state.encoder, patches, validate=False)
    logits = state.classifier.logits(patch_batch, train=train)
    ls = classification_loss(
        logits, Tensor(one_hot(patch_labels, state.model_cfg.num_classes)))
    parts["LS"] = ls.item()
    accumulate(ls)

    for name in ("L2", "LH", "LI", "LS"):
        if name in parts and not np.isfinite(parts[name]):
            raise DivergenceError(f"loss component {name} became non-finite "
                                  f"at step {state.step}")
    parts["total"] = total.item()
    return total, parts


# -- training loop ----------------------------------------------------------------

def train(state: ModelState, source: HsiCube, target: HsiCube, cfg: TrainConfig):
    """Run the optimization; returns per-epoch metric rows.

    The final epoch's accuracy columns are measured over every labeled pixel;
    intermediate epochs use a fixed random subsample to keep evaluation cheap.
    Rows between evaluations leave the accuracy columns empty.

    A fresh state (step 0) that is about to train first initializes its
    decoder from the two unlabeled cubes; see ``AffineDecoder.initialize``.
    A resumed state, or a run with zero epochs, is left as it is.

    ``cfg`` must ask for the modules the state was built with; it becomes the
    state's ``train_cfg``, which the checkpoint stores.
    """
    def modules(c):
        return c.use_reconstruction, c.shared_decoder_only, c.use_mi
    built = state.train_cfg
    if modules(cfg) != modules(built):
        raise ConfigError(
            f"the model state was built with classifier_only={built.classifier_only}, "
            f"shared_decoder_only={built.shared_decoder_only} and no_mi={built.no_mi}; "
            "training cannot change its modules")
    state.train_cfg = cfg
    if source.labels is None:
        raise ContractError("source cube must carry labels")
    if source.bands != state.model_cfg.bands or target.bands != state.model_cfg.bands:
        raise DataMismatchError(
            f"cube bands ({source.bands}/{target.bands}) do not match model "
            f"({state.model_cfg.bands})")

    streams = StreamSet(cfg.seed)
    batch_rng = streams.get("batch")
    shuffle_rng = streams.get("shuffle")
    eval_rng = streams.get("eval")

    train_mask, _ = split_labels(source, cfg.label_fraction, streams.get("split").integers(2 ** 32))
    train_centers = np.argwhere(train_mask)
    train_labels = source.labels[train_mask] - 1  # zero-based for one-hot

    src_pixels = source.pixels()
    tgt_pixels = target.pixels()
    src_eval_centers = np.argwhere(source.labels > 0)
    tgt_eval_centers = np.argwhere(target.labels > 0) if target.labels is not None else None

    def subsample(centers):
        n = min(cfg.eval_samples, len(centers))
        idx = eval_rng.choice(len(centers), size=n, replace=False)
        return centers[np.sort(idx)]

    src_eval_sub = subsample(src_eval_centers)
    tgt_eval_sub = subsample(tgt_eval_centers) if tgt_eval_centers is not None else None

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
                        patches, train_labels[pick], cfg, mi_seed)
                    loss.backward()
            except DomainError as exc:
                # exploding parameters surface as NaN/inf inside the forward
                raise DivergenceError(
                    f"non-finite values in the forward pass at step "
                    f"{state.step}: {exc}") from exc
            state.adam_update(cfg.learning_rate)

        final = epoch == cfg.epochs
        row = {"epoch": epoch, **{k: parts.get(k, float("nan"))
                                  for k in ("L2", "LH", "LI", "LS", "total")}}
        if final or cfg.eval_every == 0 or epoch % cfg.eval_every == 0:
            try:
                src_centers = src_eval_centers if final else src_eval_sub
                row["source_oa"] = _accuracy(state, source, src_centers)
                if tgt_eval_centers is not None:
                    tgt_centers = tgt_eval_centers if final else tgt_eval_sub
                    row["target_oa"] = _accuracy(state, target, tgt_centers)
            except DomainError as exc:
                raise DivergenceError(
                    f"non-finite values while evaluating at epoch {epoch}: "
                    f"{exc}") from exc
        rows.append(row)
    return rows


def abundance_map(state: ModelState, cube: HsiCube, chunk: int = 4096) -> np.ndarray:
    """Encode every pixel once; [H, W, c] result, no gradients."""
    pixels = cube.pixels()
    out = np.empty((pixels.shape[0], state.model_cfg.abundance_dim))
    with no_grad():
        for start in range(0, pixels.shape[0], chunk):
            tile = pixels[start:start + chunk]
            out[start:start + len(tile)] = state.encoder.encode(Tensor(tile)).values.data
    return out.reshape(cube.height, cube.width, -1)


def predict_centers(state: ModelState, cube: HsiCube, centers: np.ndarray,
                    batch: int = 256, return_proba: bool = False):
    """Class ids (1-based) for the given pixel centers of a cube."""
    if cube.bands != state.model_cfg.bands:
        raise DataMismatchError(
            f"cube has {cube.bands} bands, model expects {state.model_cfg.bands}")
    amap = abundance_map(state, cube)
    preds = np.empty(len(centers), dtype=np.int64)
    probas = np.empty((len(centers), state.model_cfg.num_classes)) if return_proba else None
    with no_grad():
        for start in range(0, len(centers), batch):
            chunk = centers[start:start + batch]
            patch = abundance_patches_from_map(amap, chunk,
                                               state.model_cfg.patch_size)
            logits = state.classifier.logits(patch, train=False).data
            preds[start:start + len(chunk)] = logits.argmax(axis=1) + 1
            if return_proba:
                probas[start:start + len(chunk)] = softmax(logits)
    return (preds, probas) if return_proba else preds


def predict(state: ModelState, cube: HsiCube, batch: int = 256,
            return_proba: bool = False):
    """Per-pixel class raster for a whole cube; pure in the frozen state."""
    rows, cols = np.meshgrid(np.arange(cube.height), np.arange(cube.width),
                             indexing="ij")
    centers = np.stack([rows.reshape(-1), cols.reshape(-1)], axis=1)
    result = predict_centers(state, cube, centers, batch=batch,
                             return_proba=return_proba)
    if return_proba:
        preds, probas = result
        return (preds.reshape(cube.height, cube.width),
                probas.reshape(cube.height, cube.width, -1))
    return result.reshape(cube.height, cube.width)


def _accuracy(state: ModelState, cube: HsiCube, centers: np.ndarray) -> float:
    preds = predict_centers(state, cube, centers)
    truth = cube.labels[centers[:, 0], centers[:, 1]]
    return float(np.mean(preds == truth))


def evaluate(state: ModelState, cube: HsiCube):
    """OA / AA / kappa over every labeled pixel of the cube."""
    if cube.labels is None:
        raise ContractError("cube has no labels to evaluate against")
    centers = np.argwhere(cube.labels > 0)
    preds = predict_centers(state, cube, centers)
    truth = cube.labels[centers[:, 0], centers[:, 1]]
    cm = confusion(truth, preds, state.model_cfg.num_classes)
    return oa_aa_kappa(cm)


# -- ablation -----------------------------------------------------------------------

def variant_flags(name: str) -> dict:
    table = {
        "classifier-only": dict(classifier_only=True),
        "shared-decoder": dict(shared_decoder_only=True, no_sparse=True, no_mi=True),
        "affine-decoder": dict(no_sparse=True, no_mi=True),
        "sparse": dict(no_mi=True),
        "full": {},
    }
    if name not in table:
        raise ConfigError(f"unknown ablation variant {name!r}; "
                          f"expected one of {ABLATION_VARIANTS}")
    return table[name]


def run_ablation(model_cfg: ModelConfig, base_cfg: TrainConfig,
                 source: HsiCube, target: HsiCube,
                 variants=ABLATION_VARIANTS):
    """Train each variant on the same data and seed; returns comparison rows."""
    rows = []
    for name in variants:
        flags = dict(classifier_only=False, shared_decoder_only=False,
                     no_sparse=False, no_mi=False)
        flags.update(variant_flags(name))
        cfg = replace(base_cfg, **flags)
        state = ModelState(model_cfg, cfg, seed=cfg.seed)
        train(state, source, target, cfg)
        s_oa, s_aa, s_k = evaluate(state, source)
        t_oa, t_aa, t_k = evaluate(state, target)
        rows.append({"variant": name,
                     "source_oa": s_oa, "source_aa": s_aa, "source_kappa": s_k,
                     "target_oa": t_oa, "target_aa": t_aa, "target_kappa": t_k,
                     "state": state})
    return rows


# -- metrics CSV ---------------------------------------------------------------------

METRIC_COLUMNS = ("epoch", "L2", "LH", "LI", "LS", "total", "source_oa", "target_oa")


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

def save_checkpoint(state: ModelState, path) -> None:
    """magic, version byte, then length-prefixed (name, shape, float64) records."""
    records = config_records(state.model_cfg) + config_records(state.train_cfg)
    records += [("step", np.float64(state.step))]
    records += [(name, t.data) for name, t in state.parameters()]
    records += [(f"buf.{name}", b) for name, b in state.buffers()]
    records += [(f"adam.m.{name}", m) for name, m in sorted(state.adam_m.items())]
    records += [(f"adam.v.{name}", v) for name, v in sorted(state.adam_v.items())]
    with open(Path(path), "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        for name, data in records:
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
            shape = struct.unpack_from(f"<{ndim}I", raw, offset) if ndim else ()
            offset += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
        except (struct.error, ValueError) as exc:
            raise ParseError(f"{path}: truncated record at byte offset {offset}") from exc
        records[name] = data.reshape(shape).astype(np.float64)
    return records


def load_checkpoint(path) -> ModelState:
    """Rebuild a ModelState whose forward outputs match the saved one exactly."""
    rec = _read_records(path)
    try:
        model_cfg = from_records(ModelConfig, rec)
        train_cfg = from_records(TrainConfig, rec)
        state = ModelState(model_cfg, train_cfg, seed=train_cfg.seed)
        state.step = int(rec["step"])
        for name, t in state.parameters():
            t.data = rec[name].reshape(t.data.shape).copy()
        for name, buf in state.buffers():
            buf[...] = rec[f"buf.{name}"].reshape(buf.shape)
        for name in state.adam_m:
            state.adam_m[name] = rec[f"adam.m.{name}"].reshape(
                state.adam_m[name].shape).copy()
            state.adam_v[name] = rec[f"adam.v.{name}"].reshape(
                state.adam_v[name].shape).copy()
    except KeyError as exc:
        raise ParseError(f"{path}: checkpoint is missing record {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: a record does not fit the model the "
                         f"checkpoint describes: {exc}") from exc
    return state
