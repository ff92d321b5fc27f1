"""The configuration schema, its ``section.key = value`` files and its records.

``TrainConfig``, ``ModelConfig`` and ``data.SynthSpec`` are the only list of
settings: the config keys and their parsers, the resolved-config dump and the
checkpoint's ``cfg.*`` records all derive from their fields and annotations.
A field marked ``{"settable": False}`` is not a key; the program or a library
caller fills it in. Records are float64, so a string field of ``ModelConfig``
or ``TrainConfig`` needs ``{"choices": (...)}`` and is stored as its index.
Unknown keys are hard errors so silent typos cannot skew an experiment, and
every run writes back the fully resolved configuration it actually used, in a
form ``--config`` reads back.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .data import SynthSpec
from .encoder import BETA_MODES, STICK_TRANSFORMS, default_hidden_widths
from .errors import ConfigError


@dataclass
class ModelConfig:
    """Architecture description; everything needed to rebuild the network.

    ``abundance_dim`` defaults to ``num_classes + 2`` and ``encoder_hidden``
    to ``default_hidden_widths``; both are resolved on construction.
    """

    bands: int = field(metadata={"settable": False})
    num_classes: int = field(metadata={"settable": False})
    abundance_dim: Optional[int] = None
    encoder_hidden: Optional[list[int]] = None
    stick_transform: str = field(default="printed", metadata={"choices": STICK_TRANSFORMS})
    beta_mode: str = field(default="learnable", metadata={"choices": BETA_MODES})
    beta_shared: bool = False
    per_band_affine: bool = True
    mi_hidden: int = 13
    patch_size: int = 11
    block_channels: list[int] = field(default_factory=lambda: [12, 32, 12, 12, 30])
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.abundance_dim is None:
            self.abundance_dim = self.num_classes + 2
        if self.encoder_hidden is None:
            self.encoder_hidden = default_hidden_widths(self.bands, self.abundance_dim)


@dataclass
class TrainConfig:
    """Optimization schedule, loss weights, and ablation switches."""

    alpha: float = 0.001          # sparsity weight
    mi_weight: float = 0.1        # weight on the negated MI bound
    learning_rate: float = 1e-3
    batch_recon: int = 256
    batch_class: int = 64
    epochs: int = 200
    steps_per_epoch: int = 1
    seed: int = 0
    label_fraction: float = 0.05
    eval_every: int = 10
    eval_samples: int = 128
    classifier_only: bool = False
    shared_decoder_only: bool = False
    no_sparse: bool = False
    no_mi: bool = False

    def __post_init__(self):
        if self.alpha < 0 or self.mi_weight < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.epochs < 0 or self.steps_per_epoch < 1:
            raise ConfigError("epochs must be >= 0 and steps_per_epoch >= 1")
        if self.classifier_only and self.shared_decoder_only:
            raise ConfigError("classifier_only already removes the decoder")

    @property
    def use_reconstruction(self) -> bool:
        return not self.classifier_only

    @property
    def use_sparse(self) -> bool:
        return self.use_reconstruction and not self.no_sparse

    @property
    def use_mi(self) -> bool:
        return self.use_reconstruction and not self.no_mi


SECTIONS = {"train": TrainConfig, "model": ModelConfig, "synth": SynthSpec}


def _plain(hint):
    """``Optional[X]`` -> ``X``."""
    if get_origin(hint) is Union:
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    return hint


def settable(cls) -> dict:
    """Field name -> value type of every field a config file may set."""
    hints = get_type_hints(cls)
    return {f.name: _plain(hints[f.name]) for f in fields(cls)
            if f.metadata.get("settable", True)}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse(kind, text: str):
    if kind is bool:
        return _parse_bool(text)
    parts = text.replace(",", " ").split()
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return [item(part) for part in parts]
    if kind is np.ndarray:          # a scalar or one value per band
        values = [float(part) for part in parts]
        return values[0] if len(values) == 1 else np.asarray(values)
    return kind(text)


def _format(value) -> str:
    if isinstance(value, (list, np.ndarray)):
        return " ".join(_format(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def parse_pairs(lines, origin: str) -> dict[str, str]:
    """Parse ``section.key = value`` lines; comments start with ``#``."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def validate_keys(pairs: dict[str, str], origin: str, sections=tuple(SECTIONS)) -> None:
    for key in pairs:
        if "." not in key:
            raise ConfigError(f"{origin}: key {key!r} must be section.key")
        section, name = key.split(".", 1)
        if section not in sections:
            raise ConfigError(f"{origin}: unknown section {section!r} in {key!r}")
        if name not in settable(SECTIONS[section]):
            raise ConfigError(f"{origin}: unknown key {key!r}")


class RunConfig:
    """Resolved configuration: file pairs overlaid with --set flags."""

    def __init__(self, path=None, overrides=(), sections=tuple(SECTIONS)):
        pairs: dict[str, str] = {}
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            pairs.update(parse_pairs(path.read_text().splitlines(), str(path)))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, value = (part.strip() for part in item.split("=", 1))
            pairs[key] = value
        validate_keys(pairs, str(path) if path else "--set", sections)
        self.pairs = pairs

    def section(self, name: str) -> dict:
        kinds = settable(SECTIONS[name])
        out = {}
        for key, raw in self.pairs.items():
            sec, field_name = key.split(".", 1)
            if sec != name:
                continue
            try:
                out[field_name] = _parse(kinds[field_name], raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r}") from exc
        return out

    def train_config(self, base: Optional[TrainConfig] = None) -> TrainConfig:
        """The train keys given, over ``base`` (a resumed run's) or the defaults."""
        return replace(base or TrainConfig(), **self.section("train"))

    def model_config(self, bands: int, num_classes: int) -> ModelConfig:
        return ModelConfig(bands=bands, num_classes=num_classes, **self.section("model"))

    def check_model(self, saved: ModelConfig) -> None:
        """Reject a model key that contradicts a resumed checkpoint's architecture."""
        for name, value in self.section("model").items():
            if value != getattr(saved, name):
                raise ConfigError(f"model.{name} = {_format(value)} differs from the "
                                  f"checkpoint's {_format(getattr(saved, name))}")

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(**self.section("synth"))


def resolved_text(*configs) -> str:
    """Every settable key of each config, in a form ``RunConfig`` reads back."""
    section_of = {cls: name for name, cls in SECTIONS.items()}
    lines = [f"{section_of[type(cfg)]}.{name} = {_format(getattr(cfg, name))}"
             for cfg in configs for name in settable(type(cfg))]
    return "\n".join(lines) + "\n"


def config_records(cfg) -> list:
    """One float64 ``cfg.<field>`` checkpoint record per field.

    A string field is stored as its index in the field's ``choices``.
    """
    out = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "choices" in f.metadata:
            value = f.metadata["choices"].index(value)
        out.append((f"cfg.{f.name}", np.asarray(value, dtype=np.float64)))
    return out


def from_records(cls, records: dict):
    """Rebuild a config from its records; a field without one keeps its default."""
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        raw = records.get(f"cfg.{f.name}")
        if raw is None:
            if f.default is MISSING and f.default_factory is MISSING:
                raise KeyError(f"cfg.{f.name}")
            continue
        kind = _plain(hints[f.name])
        if "choices" in f.metadata:
            values[f.name] = f.metadata["choices"][int(raw)]
        elif get_origin(kind) is list:
            (item,) = get_args(kind)
            values[f.name] = [item(v) for v in np.atleast_1d(raw)]
        else:
            values[f.name] = kind(raw)
    return cls(**values)
