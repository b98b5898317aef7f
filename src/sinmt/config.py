"""Experiment configuration: one JSON document with three sections.

An experiment file looks like::

    {
      "corpus": {"n_speakers": 20, "seed": 0, ...},
      "model":  {"encoder": {...}, "head": {...}},
      "train":  {"mode": "spk", "learning_rate": 1e-3, ...}
    }

Every section and every field is optional — omitted fields take the
module defaults — but unknown keys are rejected by their dotted path
(``model.encoder.ffn_dims``) so typos never silently fall back to
defaults. `load` reads and validates a file; `write_resolved` writes
the configuration with every default filled in, which is itself a valid
configuration that reproduces the run exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, dataclass, field, fields

from . import model as md
from . import synthdata as sd
from . import training as tr

SPLIT_CHOICES = sd.SPLITS + ("all",)


@dataclass
class ModelConfig:
    encoder: md.EncoderConfig = field(default_factory=md.EncoderConfig)
    head: md.MHFAConfig = field(default_factory=md.MHFAConfig)

    def validate(self) -> None:
        self.encoder.validate()
        self.head.validate()


@dataclass
class ExperimentConfig:
    corpus: sd.CorpusConfig = field(default_factory=sd.CorpusConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)

    def validate(self) -> None:
        self.corpus.validate()
        self.model.validate()
        self.train.validate()


# Keys whose JSON object builds a nested dataclass (`corpus.attacks`, a
# list of them, is handled on its own).
_NESTED = {"corpus": sd.CorpusConfig, "model": ModelConfig,
           "train": tr.TrainConfig, "encoder": md.EncoderConfig,
           "head": md.MHFAConfig}


# The JSON values a scalar field takes, keyed on the type of its default.
# A boolean is never taken as a number, and a number keeps its JSON type,
# so the resolved echo writes it back as given.
_SCALARS = {bool: (bool, "true or false"), int: (int, "an integer"),
            float: ((int, float), "a number")}


def _convert(name: str, default, value, path: str):
    """Type checks and field-specific coercions of a JSON leaf value."""
    if name in ("attack_id", "kind"):
        return str(value)  # the manifest header writes them as text
    if name == "params" and not isinstance(value, dict):
        raise ValueError(f"{path} must be an object")
    if type(default) in _SCALARS:
        accepted, kind = _SCALARS[type(default)]
        if not isinstance(value, accepted) or \
                isinstance(value, bool) != isinstance(default, bool):
            raise ValueError(f"{path} must be {kind}, got {value!r}")
        return value
    if value is None:
        return None
    if name == "conv_layers":
        # the entries' types are checked by EncoderConfig.validate
        if not isinstance(value, list) or any(
                not isinstance(layer, list) or len(layer) != 3
                for layer in value):
            raise ValueError(f"{path} must be a list of "
                             f"[channels, kernel, stride] triples")
        return [tuple(layer) for layer in value]
    if name in ("split_fractions", "spoof_class_weights"):
        if not isinstance(value, list) or any(
                not isinstance(x, (int, float)) or isinstance(x, bool)
                for x in value):
            raise ValueError(f"{path} must be a list of numbers")
        return tuple(value)
    return value


def _build(cls, data, path: str):
    """Build dataclass `cls` from a JSON object found at `path`."""
    if not isinstance(data, dict):
        raise ValueError(f"{path or 'configuration'} must be an object")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING \
                and f.default_factory is MISSING:
            raise ValueError(f"{path} is missing {f.name!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ValueError(f"unknown key {where}")
        if key == "attacks":
            if not isinstance(value, list):
                raise ValueError(f"{where} must be a list")
            kwargs[key] = [_build(sd.AttackSpec, v, f"{where}[{i}]")
                           for i, v in enumerate(value)]
        elif key in _NESTED:
            kwargs[key] = _build(_NESTED[key], value, where)
        else:
            kwargs[key] = _convert(key, defaults[key], value, where)
    return cls(**kwargs)


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"configuration is not valid JSON: {exc}") from exc
    cfg = _build(ExperimentConfig, document, "")
    cfg.validate()
    return cfg


def write_resolved(cfg: ExperimentConfig, path) -> None:
    """Write `cfg` with every field explicit; `load` reads it back."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(dataclasses.asdict(cfg), indent=2) + "\n")
