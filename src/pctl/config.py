"""The configuration schema, its ``section.key = value`` files and its records.

``TrainConfig``, ``ModelConfig`` and ``data.SynthSpec`` are the only list of
settings: the config keys and their parsers, the resolved-config dump and the
checkpoint's ``cfg.*`` records all derive from their fields and annotations.
``ModelConfig`` is also the one description of the network: the encoder,
decoders, MI discriminator and classifier each take it and read their fields,
and its ``__post_init__`` holds the model's validation (``layers.Dropout``
checks its own rate).
A field marked ``{"settable": False}`` is not a key; the program fills it in. Records are float64, so a string field of ``ModelConfig``
or ``TrainConfig`` needs ``{"choices": (...)}`` and is stored as its index.
Unknown keys are hard errors so silent typos cannot skew an experiment, and
every run writes back the fully resolved configuration it actually used, in a
form ``--config`` reads back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .data import SynthSpec
from .encoder import STICK_TRANSFORMS, default_hidden_widths
from .errors import ConfigError, ParseError

# The ablation ladder, one rung per variant. A checkpoint stores the variant as
# its index here, so new rungs are appended and the order never changes.
ABLATION_VARIANTS = ("classifier-only", "shared-decoder", "affine-decoder", "sparse", "full")


def _check_choices(cfg) -> None:
    """Reject a field whose value is not one of its ``choices``."""
    for f in fields(cfg):
        value, choices = getattr(cfg, f.name), f.metadata.get("choices")
        if choices and value not in choices:
            raise ConfigError(f"{f.name} must be one of {', '.join(choices)}, got {value!r}")


@dataclass
class ModelConfig:
    """Architecture description; everything needed to rebuild the network.

    ``abundance_dim`` defaults to ``num_classes + 2`` and ``encoder_hidden``
    to ``default_hidden_widths``; both are resolved on construction, and then
    every field is checked.
    """

    bands: int = field(metadata={"settable": False})
    num_classes: int = field(metadata={"settable": False})
    abundance_dim: Optional[int] = None
    encoder_hidden: Optional[list[int]] = None
    stick_transform: str = field(default="printed", metadata={"choices": STICK_TRANSFORMS})
    patch_size: int = 11
    block_channels: list[int] = field(default_factory=lambda: [12, 32, 12, 12, 30])
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.abundance_dim is None:
            self.abundance_dim = self.num_classes + 2
        if self.bands < 1:
            raise ConfigError("bands must be at least 1")
        if self.encoder_hidden is None:
            self.encoder_hidden = default_hidden_widths(self.bands, self.abundance_dim)
        _check_choices(self)
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.abundance_dim < 2:
            raise ConfigError("abundance_dim must be at least 2")
        if self.patch_size < 1 or self.patch_size % 2 == 0:
            raise ConfigError("patch_size must be odd so the labeled pixel is centered")
        if len(self.block_channels) != 5:
            raise ConfigError("block_channels needs exactly five widths, one per conv block")
        if not self.encoder_hidden:
            raise ConfigError("encoder_hidden needs at least one width")
        for name in ("encoder_hidden", "block_channels"):
            if np.min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} widths must be >= 1, "
                                  f"got {_format(getattr(self, name))}")


@dataclass
class TrainConfig:
    """Optimization schedule, loss weights, and the ablation variant."""

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
    variant: str = field(default="full", metadata={"choices": ABLATION_VARIANTS})

    def __post_init__(self):
        # every comparison with nan is false, so these forms reject it
        if not (0 <= self.alpha < np.inf and 0 <= self.mi_weight < np.inf):
            raise ConfigError("loss weights alpha and mi_weight must be finite and >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if min(self.epochs, self.seed) < 0:
            raise ConfigError("epochs and seed must be >= 0")
        if self.seed > 2 ** 53:
            # a checkpoint stores the seed as float64, which holds whole numbers exactly up to here
            raise ConfigError(f"seed must be <= 2**53, got {self.seed}")
        if min(self.eval_every, self.steps_per_epoch) < 1:
            raise ConfigError("eval_every and steps_per_epoch must be >= 1")
        if min(self.batch_recon, self.batch_class, self.eval_samples) < 1:
            raise ConfigError("batch_recon, batch_class and eval_samples must be >= 1")
        if not 0 < self.label_fraction <= 1:
            raise ConfigError(f"label_fraction must lie in (0, 1], got {self.label_fraction}")
        _check_choices(self)

    @property
    def use_reconstruction(self) -> bool:
        return self.variant != "classifier-only"

    @property
    def use_sparse(self) -> bool:
        return self.variant in ("sparse", "full")

    @property
    def use_mi(self) -> bool:
        return self.variant == "full"


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


def _parse(kind, text: str):
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


def record_value(name: str, kind, raw: np.ndarray):
    """The checkpoint record ``name`` as ``kind``; ParseError unless it is a
    scalar, and a whole number where ``kind`` is int."""
    if raw.ndim != 0:
        raise ParseError(f"record {name} must be a scalar, got shape {raw.shape}")
    value = float(raw)
    if kind is int:
        if not value.is_integer():
            raise ParseError(f"record {name} must be a whole number, got {value!r}")
        return int(value)
    return kind(value)


def from_records(cls, records: dict):
    """Rebuild a config from its ``cfg.<field>`` records, one per field.

    A missing record raises KeyError. A record of the wrong shape, a choice
    index that names no choice, and an int field that is not a whole number
    raise ParseError.
    """
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        raw = records[f"cfg.{f.name}"]
        kind = _plain(hints[f.name])
        if "choices" in f.metadata:
            choices = f.metadata["choices"]
            index = record_value(f"cfg.{f.name}", int, raw)
            if not 0 <= index < len(choices):
                raise ParseError(f"record cfg.{f.name} = {index} names none of "
                                 f"{', '.join(choices)}")
            values[f.name] = choices[index]
        elif get_origin(kind) is list:
            (item,) = get_args(kind)
            if raw.ndim > 1:
                raise ParseError(f"record cfg.{f.name} must be a list, got shape {raw.shape}")
            values[f.name] = [record_value(f"cfg.{f.name}", item, v)
                              for v in np.atleast_1d(raw)]
        else:
            values[f.name] = record_value(f"cfg.{f.name}", kind, raw)
    return cls(**values)
