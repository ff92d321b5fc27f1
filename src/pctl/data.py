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

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, ParseError

CUBE_MAGIC = b"HSIC"
LABEL_MAGIC = b"HSIL"
CUBE_SUFFIX = ".hsic"
LABEL_SUFFIX = ".hsil"
MAX_VOXELS = 2 ** 31


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

    def without_labels(self) -> "HsiCube":
        return HsiCube(self.reflectance.copy())


# -- binary formats ----------------------------------------------------------

def write_cube(cube: HsiCube, path) -> None:
    """Write the cube (and labels, when present) next to each other."""
    path = Path(path)
    payload = cube.reflectance.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(struct.pack("<III", cube.height, cube.width, cube.bands))
        fh.write(payload)
    if cube.labels is not None:
        write_labels(cube.labels, path.with_suffix(LABEL_SUFFIX))


def write_labels(labels: np.ndarray, path) -> None:
    labels = np.asarray(labels)
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(struct.pack("<II", h, w))
        fh.write(labels.astype("<u2").tobytes())


def read_cube(path, with_labels: bool = True) -> HsiCube:
    """Read a cube; a sibling label file is attached when it exists."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 or raw[:4] != CUBE_MAGIC:
        raise ParseError(f"{path}: bad cube magic at byte offset 0")
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated header at byte offset {len(raw)}")
    h, w, l = struct.unpack("<III", raw[4:16])
    voxels = h * w * l
    if voxels == 0 or voxels > MAX_VOXELS:
        raise ParseError(f"{path}: dimension overflow at byte offset 4")
    expected = 16 + 4 * voxels
    if len(raw) != expected:
        raise ParseError(
            f"{path}: payload ends at byte offset {len(raw)}, expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=16).reshape(h, w, l)
    labels = None
    label_path = path.with_suffix(LABEL_SUFFIX)
    if with_labels and label_path.exists():
        labels = read_labels(label_path, expect_shape=(h, w))
    return HsiCube(data.astype(np.float64), labels)


def read_labels(path, expect_shape=None) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 or raw[:4] != LABEL_MAGIC:
        raise ParseError(f"{path}: bad label magic at byte offset 0")
    if len(raw) < 12:
        raise ParseError(f"{path}: truncated header at byte offset {len(raw)}")
    h, w = struct.unpack("<II", raw[4:12])
    if h * w == 0 or h * w > MAX_VOXELS:
        raise ParseError(f"{path}: dimension overflow at byte offset 4")
    expected = 12 + 2 * h * w
    if len(raw) != expected:
        raise ParseError(
            f"{path}: payload ends at byte offset {len(raw)}, expected {expected}")
    if expect_shape is not None and (h, w) != expect_shape:
        raise ParseError(f"{path}: label grid {(h, w)} does not match cube "
                         f"{expect_shape}")
    return np.frombuffer(raw, dtype="<u2", offset=12).reshape(h, w).astype(np.int64)


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
    concentration_peak: float = 10.0  # Dirichlet weight of each class's own component
    concentration_base: float = 0.3   # Dirichlet weight of every other component
    envelope_weight: float = 0.0      # shared-envelope vs own-shape blend in the basis
    # [classes, abundance_dim] Dirichlet params and an optional source basis
    # [c, L] with rows in [0, 1]; no config key sets them
    concentrations: np.ndarray = field(default=None, metadata={"settable": False})
    basis: np.ndarray = field(default=None, metadata={"settable": False})

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if self.abundance_dim < self.classes:
            raise ConfigError("abundance_dim must be >= classes so each class "
                              "can own a distinct dominant component")
        self.scale = _per_band(self.scale, 0.7, self.bands)
        self.offset = _per_band(self.offset, 0.1, self.bands)
        if np.any(self.scale == 0.0):
            raise ConfigError("affine scale must be nonzero on every band")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.pixels_per_class < 1:
            raise ConfigError("pixels_per_class must be positive")
        if self.concentration_peak <= 0 or self.concentration_base <= 0:
            raise ConfigError("Dirichlet concentrations must be positive")
        if not 0.0 <= self.envelope_weight <= 1.0:
            raise ConfigError("envelope_weight must lie in [0, 1]")
        if self.concentrations is None:
            base = np.full((self.classes, self.abundance_dim),
                           self.concentration_base)
            base[np.arange(self.classes), np.arange(self.classes)] = \
                self.concentration_peak
            self.concentrations = base
        else:
            self.concentrations = np.asarray(self.concentrations, dtype=float)
            if self.concentrations.shape != (self.classes, self.abundance_dim):
                raise ConfigError("concentrations must be [classes, abundance_dim]")
        if self.basis is not None:
            self.basis = np.asarray(self.basis, dtype=float)
            if self.basis.shape != (self.abundance_dim, self.bands):
                raise ConfigError("basis must be [abundance_dim, bands]")
            if self.basis.min() < 0.0 or self.basis.max() > 1.0:
                raise ConfigError("basis rows must lie in [0, 1]")


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
    """Material spectra: a shared brightness envelope blended with own shapes.

    Same-scene materials routinely share a spectral envelope and differ in
    both brightness and finer shape. Row k is
    w * level_k * envelope + (1 - w) * shape_k, with w = ``envelope_weight``.
    The brightness levels are spaced by the reciprocal of the cross-domain
    scale s, so the shift maps the envelope term of row k + 1 exactly onto
    that of row k. The shape term leaves a mean-brightness gap of
    (1 - w) * (s - 1) * m + o between them, where o is the offset and m the
    mean shape value (0.525 in expectation). The weight
    w = 1 - o / ((1 - s) * m) closes that gap; for the default shift
    (s = 0.7, o = 0.1) it is 0.365. The domain shift then slides each
    class's brightness onto its neighbour's, so a classifier that memorizes
    absolute source reflectance does not transfer, while the per-material
    shapes keep in-domain classification easy.

    The default w = 0 has no envelope: classes differ by shape alone, and a
    classifier trained on source reflectance transfers to the target. At
    w = 1 the basis has rank 1, so no abundances can be recovered from it.
    """
    c, bands = spec.abundance_dim, spec.bands
    w = spec.envelope_weight
    envelope = 0.55 + 0.4 * _smooth_rows(rng, 1, bands)[0]
    ratio = 1.0 / float(np.mean(spec.scale))
    if not np.isfinite(ratio) or ratio <= 0:
        ratio = 1.4
    levels = 0.32 * ratio ** np.arange(c)
    levels = levels / levels.max() * 0.92
    shapes = 0.1 + 0.85 * _smooth_rows(rng, c, bands)
    basis = w * levels[:, None] * envelope[None, :] + (1.0 - w) * shapes
    return np.clip(basis, 0.02, 0.98)


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
    uniform = np.ones(spec.abundance_dim)
    for cls in range(0, spec.classes + 1):
        mask = labels == cls
        n = int(mask.sum())
        if n == 0:
            continue
        alpha = uniform if cls == 0 else spec.concentrations[cls - 1]
        abund[mask] = rng.dirichlet(alpha, size=n)
    x = abund.reshape(-1, spec.abundance_dim) @ basis
    if spec.noise_sigma > 0:
        x = x + rng.normal(0.0, spec.noise_sigma, x.shape)
    cube = HsiCube(x.reshape(h, w, spec.bands), labels)
    return cube, abund


def generate_synthetic_pair(spec: SynthSpec):
    """Source and target cubes plus their ground-truth abundance maps.

    The target basis is drawn (or derived from ``spec.basis``) and the source
    basis is computed as scale * target + offset, so the two bases satisfy the
    affine relation bit-exactly. Both domains draw fresh abundances from the
    same per-class distributions and carry labels; target labels exist for
    evaluation only.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.basis is not None:
        basis_target = (spec.basis - spec.offset) / spec.scale
    else:
        basis_target = _default_basis(rng, spec)
        lo = (0.0 - spec.offset) / spec.scale
        hi = (1.0 - spec.offset) / spec.scale
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        basis_target = np.clip(basis_target, lo, hi)
    basis_source = spec.scale * basis_target + spec.offset
    if basis_source.min() < -1e-9 or basis_source.max() > 1.0 + 1e-9:
        raise ConfigError("affine shift pushes the source basis outside [0, 1]")

    source, abund_source = _render_domain(spec, basis_source, rng)
    target, abund_target = _render_domain(spec, basis_target, rng)
    truth = {
        "source": abund_source,
        "target": abund_target,
        "basis_source": basis_source,
        "basis_target": basis_target,
    }
    return source, target, truth
