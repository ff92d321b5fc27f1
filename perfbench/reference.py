"""Plain-numpy reference for the benchmark's output checks.

Nothing here imports pctl. The checkpoint, cube and label readers parse the
binary formats directly, and the forward pass is written from the model's
description rather than from its code:

- encoder: dense ReLU stack, sigmoid head, clamp, stick transform,
  stick-breaking;
- classifier: each conv block as a sum of products over shifted slices (no
  im2col), batchnorm from the running statistics, ReLU, and the dense head.

The overall accuracy is counted here too, without pctl.metrics.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

U_CLIP = 1e-12          # the encoder pinches sigmoid outputs into (0, 1)
BN_EPSILON = 1e-5


# -- file formats ----------------------------------------------------------------

def read_checkpoint(path) -> dict:
    """Records of a version-1 checkpoint: name -> float64 array."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"PCTL" or raw[4] != 1:
        raise ValueError(f"{path}: not a version-1 checkpoint")
    records, offset = {}, 5
    while offset < len(raw):
        (name_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        name = raw[offset:offset + name_len].decode("utf-8")
        offset += name_len
        ndim = raw[offset]
        offset += 1
        shape = struct.unpack_from(f"<{ndim}I", raw, offset)
        offset += 4 * ndim
        count = int(np.prod(shape)) if ndim else 1
        records[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    return records


def read_cube(path) -> np.ndarray:
    """Reflectance [H, W, L] of an HSIC file, widened from float32."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"HSIC":
        raise ValueError(f"{path}: not a cube file")
    h, w, bands = struct.unpack_from("<III", raw, 4)
    return np.frombuffer(raw, "<f4", h * w * bands, 16).reshape(h, w, bands) \
        .astype(np.float64)


def read_labels(path) -> np.ndarray:
    """Class ids [H, W] of an HSIL file; 0 means unlabeled."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"HSIL":
        raise ValueError(f"{path}: not a label file")
    h, w = struct.unpack_from("<II", raw, 4)
    return np.frombuffer(raw, "<u2", h * w, 12).reshape(h, w).astype(np.int64)


# -- forward pass ------------------------------------------------------------------

def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def encode(rec: dict, pixels: np.ndarray) -> np.ndarray:
    """Abundances [n, c] of pixel rows [n, L]."""
    h = pixels
    layer = 0
    while f"enc.hidden{layer}.weight" in rec:
        h = np.maximum(h @ rec[f"enc.hidden{layer}.weight"]
                       + rec[f"enc.hidden{layer}.bias"], 0.0)
        layer += 1
    u = _sigmoid(h @ rec["enc.head.weight"] + rec["enc.head.bias"])
    u = np.clip(u, U_CLIP, 1.0 - U_CLIP)
    # a fixed beta is not stored; it keeps its initial value of 1
    beta = _softplus(rec["enc.beta_raw"]) if "enc.beta_raw" in rec else 1.0
    if rec["cfg.stick_transform"]:          # 1.0 marks the standard form
        v = 1.0 - (1.0 - u) ** (1.0 / beta)
    else:
        v = u ** (1.0 / beta)
    v = np.concatenate([v, np.ones((len(v), 1))], axis=1)
    remainder = np.ones_like(v)
    for j in range(1, v.shape[1]):
        remainder[:, j] = remainder[:, j - 1] * (1.0 - v[:, j - 1])
    return v * remainder


def patches(amap: np.ndarray, centers: np.ndarray, patch_size: int) -> np.ndarray:
    """Abundance volumes [n, 1, c, P, P] around centers, mirror-padded."""
    m = patch_size // 2
    padded = np.pad(amap, ((m, m), (m, m), (0, 0)), mode="symmetric")
    out = np.empty((len(centers), 1, amap.shape[2], patch_size, patch_size))
    for i, (r, c) in enumerate(centers):
        out[i, 0] = padded[r:r + patch_size, c:c + patch_size].transpose(2, 0, 1)
    return out


def conv3d_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """'Same' cross-correlation [N, Ci, D, H, W] * [Co, Ci, kd, kh, kw].

    Each kernel offset contributes one product of a shifted input slice with
    that offset's [Co, Ci] weights; the output is their sum.
    """
    n, _, d, h, w = x.shape
    co, _, kd, kh, kw = kernels.shape
    lo = [(k - 1) // 2 for k in (kd, kh, kw)]
    pad = [(0, 0), (0, 0)] + [(l, k - 1 - l) for l, k in zip(lo, (kd, kh, kw))]
    xp = np.pad(x, pad)
    out = np.zeros((n, co, d, h, w))
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                window = xp[:, :, i:i + d, j:j + h, k:k + w]
                out += np.tensordot(kernels[:, :, i, j, k], window,
                                    axes=([1], [1])).transpose(1, 0, 2, 3, 4)
    return out


def logits(rec: dict, volumes: np.ndarray) -> np.ndarray:
    """Inference logits [n, k] of abundance volumes [n, 1, c, P, P]."""
    feats = [volumes]
    block = 0
    while f"clf.block{block}.kernels" in rec:
        x = np.concatenate(feats, axis=1)
        z = conv3d_same(x, rec[f"clf.block{block}.kernels"])
        shape = (1, -1, 1, 1, 1)
        mean = rec[f"buf.clf.block{block}.bn.running_mean"].reshape(shape)
        sd = np.sqrt(rec[f"buf.clf.block{block}.bn.running_var"] + BN_EPSILON)
        z = (z - mean) / sd.reshape(shape)
        z = z * rec[f"clf.block{block}.bn.gamma"].reshape(shape) \
            + rec[f"clf.block{block}.bn.beta"].reshape(shape)
        feats.append(np.maximum(z, 0.0))
        block += 1
    flat = feats[-1].reshape(len(volumes), -1)
    return flat @ rec["clf.head.weight"] + rec["clf.head.bias"]


def cube_logits(rec: dict, cube: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Logits for (row, col) centers of a reflectance cube [H, W, L]."""
    h, w, bands = cube.shape
    amap = encode(rec, cube.reshape(-1, bands)).reshape(h, w, -1)
    return logits(rec, patches(amap, centers, int(rec["cfg.patch_size"])))


# -- accuracy --------------------------------------------------------------------------

def overall_accuracy(truth: np.ndarray, pred: np.ndarray) -> float:
    """Share of labeled pixels (truth > 0) whose prediction equals the truth."""
    labeled = truth > 0
    correct = int(np.count_nonzero(pred[labeled] == truth[labeled]))
    return correct / int(np.count_nonzero(labeled))
