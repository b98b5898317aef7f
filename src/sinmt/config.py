"""Experiment configuration: one JSON document with three sections.

An experiment file looks like::

    {
      "corpus": {"n_speakers": 20, "seed": 0, ...},
      "model":  {"encoder": {...}, "head": {...}},
      "train":  {"mode": "spk", "learning_rate": 1e-3, ...}
    }

Every section and every field is optional — omitted fields take the
module defaults — but unknown keys are rejected by name so typos never
silently fall back to defaults. `resolve()` fills in all defaults; the
resolved document is itself a valid configuration that reproduces the
run exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields

from . import model as md
from . import synthdata as sd
from . import training as tr

SPLIT_CHOICES = sd.SPLITS + ("all",)


class ConfigError(ValueError):
    """A configuration document that cannot be accepted."""


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
        try:
            self.corpus.validate()
            self.model.validate()
            self.train.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON → dataclasses, with strict unknown-key reporting
# ---------------------------------------------------------------------------

_SECTION_TYPES = {
    "corpus": sd.CorpusConfig,
    "model": ModelConfig,
    "train": tr.TrainConfig,
}


def _build_attack(data, path: str) -> sd.AttackSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    allowed = {"attack_id", "kind", "params"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    missing = {"attack_id", "kind"} - set(data)
    if missing:
        raise ConfigError(f"{path} is missing {sorted(missing)[0]!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params must be an object")
    return sd.AttackSpec(str(data["attack_id"]), str(data["kind"]),
                         dict(params))


def _convert(name: str, value, path: str):
    """Field-specific JSON-value coercions (lists → tuples, attacks)."""
    if value is None:
        return None
    if name == "attacks":
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        return [_build_attack(v, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if name == "conv_layers":
        try:
            return [tuple(int(x) for x in layer) for layer in value]
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path} must be a list of [channels, kernel, stride] "
                f"triples") from exc
    if name in ("split_fractions", "spoof_class_weights"):
        try:
            return tuple(float(x) for x in value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path} must be a list of numbers") from exc
    return value


def _build_dataclass(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    spec_fields = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in spec_fields:
            raise ConfigError(f"unknown key {path}.{key}")
        target = spec_fields[key]
        if dataclasses.is_dataclass(target.type) or key in ("encoder",
                                                            "head"):
            sub_cls = {"encoder": md.EncoderConfig,
                       "head": md.MHFAConfig}.get(key)
            kwargs[key] = _build_dataclass(sub_cls, value,
                                           f"{path}.{key}")
        else:
            kwargs[key] = _convert(key, value, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in section {path}: {exc}") from exc


def from_dict(document: dict) -> ExperimentConfig:
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    for key in document:
        if key not in _SECTION_TYPES:
            raise ConfigError(f"unknown key {key}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        if name in document:
            sections[name] = _build_dataclass(cls, document[name], name)
    cfg = ExperimentConfig(**sections)
    cfg.validate()
    return cfg


def loads(text: str) -> ExperimentConfig:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return from_dict(document)


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


# ---------------------------------------------------------------------------
# dataclasses → JSON
# ---------------------------------------------------------------------------


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def to_dict(cfg: ExperimentConfig) -> dict:
    """The fully resolved document: every field explicit."""
    return _plain(cfg)


def dumps(cfg: ExperimentConfig) -> str:
    return json.dumps(to_dict(cfg), indent=2, sort_keys=False) + "\n"


def write_resolved(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(cfg))
