"""Hyperspectral cube I/O, label splitting, and the synthetic two-domain generator.

Cube files are a minimal binary format: magic ``HSIC``, three little-endian
u32 dims (H, W, L), then H*W*L float32 reflectances, row-major with bands
interleaved by pixel. Labels live in a sibling ``HSIL`` file: magic, u32 H
and W, then H*W u16 class ids with 0 meaning unlabeled.

The generator draws per-class Dirichlet abundances, mixes them through a
shared basis, and renders the two domains with bases related by an exact
per-band affine map, so the cross-domain structure of the data is known in
closed form.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, ParseError

# each grid format: magic, name in errors, number of u32 dims, payload dtype
CUBE_FORMAT = (b"HSIC", "cube", 3, "<f4")
LABEL_FORMAT = (b"HSIL", "label", 2, "<u2")
LABEL_SUFFIX = ".hsil"
MAX_VOXELS = 2 ** 31
CONCENTRATION_PEAK = 10.0  # Dirichlet weight of a labeled pixel's own class component
CONCENTRATION_BASE = 0.3   # Dirichlet weight of every other component


@dataclass
class HsiCube:
    """Reflectance cube [H, W, L] with an optional [H, W] label raster."""

    reflectance: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        if self.reflectance.ndim != 3:
            raise ContractError(
                f"reflectance must be [H, W, L], got {self.reflectance.shape}")
        if not np.all(np.isfinite(self.reflectance)):
            raise ContractError("reflectance contains non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.reflectance.shape[:2]:
                raise ContractError(
                    f"labels {self.labels.shape} do not match cube "
                    f"{self.reflectance.shape[:2]}")
            if self.labels.min() < 0 or self.labels.max() >= 2 ** 16:
                raise ContractError("labels must fit in u16 with 0 = unlabeled")

    @property
    def height(self) -> int:
        return self.reflectance.shape[0]

    @property
    def width(self) -> int:
        return self.reflectance.shape[1]

    @property
    def bands(self) -> int:
        return self.reflectance.shape[2]

    def pixels(self) -> np.ndarray:
        """Flattened [H*W, L] view of the reflectances."""
        return self.reflectance.reshape(-1, self.bands)

    def num_classes(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max())


# -- binary formats ----------------------------------------------------------

def _write_grid(path, fmt: tuple, grid: np.ndarray) -> None:
    """Write ``grid`` in ``fmt``: magic, one u32 per axis, then the values."""
    magic, _, ndim, dtype = fmt
    header = magic + struct.pack(f"<{ndim}I", *grid.shape)
    payload = grid.astype(dtype).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _read_grid(path: Path, fmt: tuple) -> np.ndarray:
    """The grid ``_write_grid`` wrote in ``fmt``, checked against its header."""
    magic, kind, ndim, dtype = fmt
    raw = path.read_bytes()
    if raw[:4] != magic:
        raise ParseError(f"{path}: bad {kind} magic at byte offset 0")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ParseError(f"{path}: truncated header at byte offset {len(raw)}")
    dims = struct.unpack(f"<{ndim}I", raw[4:header])
    count = math.prod(dims)
    if count == 0 or count > MAX_VOXELS:
        raise ParseError(f"{path}: dimension overflow at byte offset 4")
    expected = header + np.dtype(dtype).itemsize * count
    if len(raw) != expected:
        raise ParseError(
            f"{path}: payload ends at byte offset {len(raw)}, expected {expected}")
    return np.frombuffer(raw, dtype=dtype, offset=header).reshape(dims)


def write_cube(cube: HsiCube, path) -> None:
    """Write the cube (and labels, when present) next to each other."""
    path = Path(path)
    _write_grid(path, CUBE_FORMAT, cube.reflectance)
    if cube.labels is not None:
        write_labels(cube.labels, path.with_suffix(LABEL_SUFFIX))


def write_labels(labels: np.ndarray, path) -> None:
    _write_grid(path, LABEL_FORMAT, np.asarray(labels))


def read_cube(path) -> HsiCube:
    """Read a cube; a sibling label file is attached when it exists."""
    path = Path(path)
    data = _read_grid(path, CUBE_FORMAT)
    label_path = path.with_suffix(LABEL_SUFFIX)
    labels = read_labels(label_path, data.shape[:2]) if label_path.exists() else None
    return HsiCube(data.astype(np.float64), labels)


def read_labels(path, expect_shape=None) -> np.ndarray:
    path = Path(path)
    labels = _read_grid(path, LABEL_FORMAT)
    if expect_shape is not None and labels.shape != expect_shape:
        raise ParseError(f"{path}: label grid {labels.shape} does not match cube "
                         f"{expect_shape}")
    return labels.astype(np.int64)


# -- label splitting -----------------------------------------------------------

def split_labels(cube: HsiCube, fraction: float, seed: int):
    """Stratified train/eval masks over the labeled pixels.

    The train mask holds floor(fraction * n_labeled) pixels apportioned to
    classes by largest remainder (so per-class counts sit within one pixel of
    exact proportionality), with at least one pixel per class. Everything
    labeled but not selected lands in the eval mask.
    """
    if not 0.0 < fraction <= 1.0:
        raise ContractError(f"fraction must lie in (0, 1], got {fraction}")
    if cube.labels is None:
        raise ContractError("cube has no labels to split")
    labels = cube.labels
    k = int(labels.max())
    if k == 0:
        raise ContractError("cube has no labeled pixels")
    counts = np.bincount(labels.reshape(-1), minlength=k + 1)[1:]
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ContractError(f"class {missing} has no labeled samples")

    quotas = fraction * counts
    take = np.floor(quotas).astype(int)
    total = int(np.floor(fraction * counts.sum()))
    remainders = quotas - take
    # hand the leftover pixels to the largest remainders, deterministically
    for idx in np.lexsort((np.arange(k), -remainders))[:max(total - take.sum(), 0)]:
        take[idx] += 1
    take = np.clip(take, 1, counts)

    rng = np.random.default_rng(seed)
    train = np.zeros(labels.shape, dtype=bool)
    for cls in range(1, k + 1):
        rows, cols = np.nonzero(labels == cls)
        chosen = rng.choice(rows.size, size=int(take[cls - 1]), replace=False)
        train[rows[chosen], cols[chosen]] = True
    eval_mask = (labels > 0) & ~train
    return train, eval_mask


# -- synthetic two-domain generator ---------------------------------------------

@dataclass
class SynthSpec:
    """Recipe for a paired source/target scene with known physics."""

    classes: int = 4
    abundance_dim: int = 6
    bands: int = 40
    scale: np.ndarray = None          # per-band affine scale relating the bases
    offset: np.ndarray = None         # per-band affine offset
    noise_sigma: float = 0.01
    pixels_per_class: int = 800
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if self.abundance_dim < self.classes:
            raise ConfigError("abundance_dim must be >= classes so each class "
                              "can own a distinct dominant component")
        if self.bands < 1:
            raise ConfigError("bands must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.scale = _per_band(self.scale, 0.7, self.bands)
        self.offset = _per_band(self.offset, 0.1, self.bands)
        if not np.all(np.isfinite(self.scale) & (self.scale != 0.0)):
            raise ConfigError("affine scale must be finite and nonzero on every band")
        if not np.all(np.isfinite(self.offset)):
            raise ConfigError("affine offset must be finite on every band")
        # every comparison with nan is false, so these forms reject it
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError("noise_sigma must be finite and >= 0")
        if self.pixels_per_class < 1:
            raise ConfigError("pixels_per_class must be positive")


def _per_band(value, default, bands):
    if value is None:
        value = default
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(bands, float(arr))
    if arr.shape != (bands,):
        raise ConfigError(f"per-band vector must have length {bands}")
    return arr


def _smooth_rows(rng, rows, bands):
    raw = rng.uniform(0.0, 1.0, (rows, bands + 8))
    kernel = np.ones(9) / 9.0
    smooth = np.stack([np.convolve(row, kernel, mode="valid") for row in raw])
    lo, hi = smooth.min(), smooth.max()
    return (smooth - lo) / (hi - lo)


def _default_basis(rng, spec: "SynthSpec"):
    """Material spectra [abundance_dim, bands]: one smooth random shape per
    row, scaled into [0.1, 0.95] and clipped to [0.02, 0.98]."""
    # An unused envelope row is drawn first; it stays so that every seed keeps
    # the scenes it has always generated.
    _smooth_rows(rng, 1, spec.bands)
    shapes = 0.1 + 0.85 * _smooth_rows(rng, spec.abundance_dim, spec.bands)
    return np.clip(shapes, 0.02, 0.98)


def _tile_labels(spec: SynthSpec, rng) -> np.ndarray:
    """Contiguous per-class tiles with one-pixel jittered borders."""
    px = spec.pixels_per_class
    tile_h = max(1, int(np.sqrt(px)))
    while px % tile_h:
        tile_h -= 1
    tile_w = px // tile_h
    grid_rows = max(1, int(np.floor(np.sqrt(spec.classes))))
    grid_cols = int(np.ceil(spec.classes / grid_rows))
    h, w = grid_rows * tile_h, grid_cols * tile_w
    tiles = np.zeros((h, w), dtype=np.int64)
    for cls in range(spec.classes):
        r, c = divmod(cls, grid_cols)
        tiles[r * tile_h:(r + 1) * tile_h, c * tile_w:(c + 1) * tile_w] = cls + 1
    rr = np.clip(np.arange(h)[:, None] + rng.integers(-1, 2, (h, w)), 0, h - 1)
    cc = np.clip(np.arange(w)[None, :] + rng.integers(-1, 2, (h, w)), 0, w - 1)
    return tiles[rr, cc]


def _render_domain(spec: SynthSpec, basis: np.ndarray, rng):
    labels = _tile_labels(spec, rng)
    h, w = labels.shape
    abund = np.empty((h, w, spec.abundance_dim))
    for cls in range(0, spec.classes + 1):
        mask = labels == cls
        n = int(mask.sum())
        if n == 0:
            continue
        # unlabeled pixels mix uniformly; class k peaks on component k - 1
        alpha = np.full(spec.abundance_dim, 1.0 if cls == 0 else CONCENTRATION_BASE)
        if cls > 0:
            alpha[cls - 1] = CONCENTRATION_PEAK
        abund[mask] = rng.dirichlet(alpha, size=n)
    x = abund.reshape(-1, spec.abundance_dim) @ basis
    if spec.noise_sigma > 0:
        x = x + rng.normal(0.0, spec.noise_sigma, x.shape)
    cube = HsiCube(x.reshape(h, w, spec.bands), labels)
    return cube, abund


def generate_synthetic_pair(spec: SynthSpec):
    """Source and target cubes plus their ground-truth abundance maps.

    The target basis is drawn, then clipped per band to the values that the
    shift maps into [0, 1], and the source basis is computed as
    scale * target + offset, so the two bases satisfy the affine relation
    bit-exactly. Both domains draw fresh abundances from the same per-class
    distributions and carry labels; target labels exist for evaluation only.
    """
    rng = np.random.default_rng(spec.seed)
    lo = (0.0 - spec.offset) / spec.scale
    hi = (1.0 - spec.offset) / spec.scale
    basis_target = np.clip(_default_basis(rng, spec), np.minimum(lo, hi), np.maximum(lo, hi))
    basis_source = spec.scale * basis_target + spec.offset

    source, abund_source = _render_domain(spec, basis_source, rng)
    target, abund_target = _render_domain(spec, basis_target, rng)
    truth = {
        "source": abund_source,
        "target": abund_target,
        "basis_source": basis_source,
        "basis_target": basis_target,
    }
    return source, target, truth
