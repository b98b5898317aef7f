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
defaults. `read` parses and type-checks a file, `load` also
validates it, and `write_resolved` writes the configuration with every
default filled in, which is itself a valid configuration that reproduces
the run exactly. ``NaN``, ``Infinity`` and ``-Infinity``, which Python's
JSON reader would accept, are refused.
"""

from __future__ import annotations

import dataclasses
import json
import typing
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


# The JSON values a scalar field takes, keyed on its declared type. A
# boolean is never taken as a number, and a number keeps its JSON type,
# so the resolved echo writes it back as given.
_SCALARS = {bool: (bool, "true or false"), int: (int, "an integer"),
            float: ((int, float), "a number"), str: (str, "text")}


def _convert(name: str, declared, value, path: str):
    """Type checks and field-specific coercions of a JSON leaf value
    against its field's declared type; ``X | None`` also takes null."""
    options = typing.get_args(declared) or (declared,)
    if value is None and type(None) in options:
        return None
    declared = options[0]
    if name == "attack_id" and type(value) in (int, float):
        value = str(value)  # the manifest header writes it as text
    if declared in _SCALARS:
        accepted, kind = _SCALARS[declared]
        if not isinstance(value, accepted) or \
                isinstance(value, bool) != (declared is bool):
            raise ValueError(f"{path} must be {kind}, got {value!r}")
        return value
    if declared is dict and not isinstance(value, dict):
        raise ValueError(f"{path} must be an object")
    if name == "conv_layers":
        # the entries' types are checked by EncoderConfig.validate
        if not isinstance(value, list) or any(
                not isinstance(layer, list) or len(layer) != 3
                for layer in value):
            raise ValueError(f"{path} must be a list of "
                             f"[channels, kernel, stride] triples")
        return [tuple(layer) for layer in value]
    if declared is tuple:
        if not isinstance(value, list) or any(
                not isinstance(x, (int, float)) or isinstance(x, bool)
                for x in value):
            raise ValueError(f"{path} must be a list of numbers")
        return tuple(value)
    return value


def _build_attack(data, path: str) -> sd.AttackSpec:
    """An attack spec whose known params are typed like their transform
    defaults; `CorpusConfig.validate` names unknown kinds and params."""
    spec = _build(sd.AttackSpec, data, path)
    defaults = sd.attack_param_defaults(spec.kind) \
        if spec.kind in sd.ATTACK_KINDS else {}
    for name, value in spec.params.items():
        if name in defaults:
            spec.params[name] = _convert(name, type(defaults[name]), value,
                                         f"{path}.params.{name}")
    return spec


def _build(cls, data, path: str):
    """Build dataclass `cls` from a JSON object found at `path`."""
    if not isinstance(data, dict):
        raise ValueError(f"{path or 'configuration'} must be an object")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING \
                and f.default_factory is MISSING:
            raise ValueError(f"{path} is missing {f.name!r}")
    declared = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in declared:
            raise ValueError(f"unknown key {where}")
        if key == "attacks":
            if not isinstance(value, list):
                raise ValueError(f"{where} must be a list")
            kwargs[key] = [_build_attack(v, f"{where}[{i}]")
                           for i, v in enumerate(value)]
        elif dataclasses.is_dataclass(declared[key]):
            kwargs[key] = _build(declared[key], value, where)
        else:
            kwargs[key] = _convert(key, declared[key], value, where)
    return cls(**kwargs)


def read(path) -> ExperimentConfig:
    """The configuration in `path`, typed but not validated, so that a
    caller can override fields before it validates."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f, parse_constant=md.refuse_json_constant)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"configuration is not valid JSON: {exc}") from exc
    return _build(ExperimentConfig, document, "")


def load(path) -> ExperimentConfig:
    cfg = read(path)
    cfg.validate()
    return cfg


def write_resolved(cfg: ExperimentConfig, path) -> None:
    """Write `cfg` with every field explicit; `load` reads it back."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(dataclasses.asdict(cfg), indent=2) + "\n")
