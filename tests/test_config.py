"""Experiment config files: the resolved echo reads back to the same
configuration, and unknown keys are rejected by their dotted path."""

import json
import subprocess
from pathlib import Path

import pytest

from sinmt import config as cf
from sinmt import synthdata as sd

NON_DEFAULT = {
    "corpus": {
        "n_speakers": 5, "utterances_per_speaker": 12, "n_samples": 1000,
        "seed": 5, "split_fractions": [0.6, 0.2, 0.2],
        "attacks": [
            {"attack_id": "X1", "kind": "bit_crush", "params": {"bits": 4}},
            {"attack_id": "X2", "kind": "artifact_tone",
             "params": {"freq_hz": 900.0, "level_db": -20}},
        ],
    },
    "model": {"encoder": {"conv_layers": [[16, 8, 4], [24, 4, 2]],
                          "model_dim": 24, "n_attention_heads": 3}},
    "train": {"mode": "ivspk", "alpha": 0.3, "fold_alpha_into_lambda": True,
              "clip_len": 2000},
}


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RECIPE_FILES = sorted((SCRIPTS / "recipe").glob("*.json"))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_non_default_config_round_trips(tmp_path):
    cfg = cf.load(write_json(tmp_path / "cfg.json", NON_DEFAULT))
    assert cfg.corpus.attacks[1] == sd.AttackSpec(
        "X2", "artifact_tone", {"freq_hz": 900.0, "level_db": -20})
    assert cfg.corpus.split_fractions == (0.6, 0.2, 0.2)
    assert cfg.model.encoder.conv_layers == [(16, 8, 4), (24, 4, 2)]
    assert cfg.train.clip_len == 2000
    assert cfg.train.fold_alpha_into_lambda is True

    first = tmp_path / "first.resolved"
    cf.write_resolved(cfg, first)
    again = cf.load(first)
    assert again == cfg
    second = tmp_path / "second.resolved"
    cf.write_resolved(again, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("doc,path", [
    ({"trian": {}}, "trian"),
    ({"train": {"learning_rat": 0.1}}, "train.learning_rat"),
    ({"model": {"encoder": {"ffn_dims": 8}}}, "model.encoder.ffn_dims"),
    ({"corpus": {"attacks": [{"attack_id": "A01", "kind": "bit_crush",
                              "bitz": 4}]}}, "corpus.attacks[0].bitz"),
])
def test_unknown_key_is_named_by_its_path(tmp_path, doc, path):
    with pytest.raises(ValueError) as exc:
        cf.load(write_json(tmp_path / "bad.json", doc))
    assert str(exc.value) == f"unknown key {path}"


def test_numeric_attack_id_reaches_the_manifest_as_text(tmp_path):
    corpus = dict(NON_DEFAULT["corpus"],
                  attacks=[{"attack_id": 7, "kind": "bit_crush"}])
    cfg = cf.load(write_json(tmp_path / "cfg.json", {"corpus": corpus}))
    assert cfg.corpus.attacks[0].attack_id == "7"
    sd.generate_corpus(cfg.corpus, tmp_path / "corpus")
    header = (tmp_path / "corpus" / "manifest.tsv").read_text()
    assert '"attack_id": "7"' in header


@pytest.mark.parametrize("layers", [[[1, 1]], [[16, 8, 4], [32, 4, 2, 1]],
                                    [[]]])
def test_conv_layer_that_is_not_a_triple_is_named(tmp_path, layers):
    doc = {"model": {"encoder": {"conv_layers": layers}}}
    with pytest.raises(ValueError) as exc:
        cf.load(write_json(tmp_path / "bad.json", doc))
    assert str(exc.value).startswith(
        "model.encoder.conv_layers must be a list of "
        "[channels, kernel, stride] triples")


@pytest.mark.parametrize("section, key", [("encoder", "model_dim"),
                                          ("head", "n_heads")])
def test_wrongly_typed_model_size_is_named(tmp_path, section, key):
    doc = {"model": {section: {key: "4"}}}
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        cf.load(write_json(tmp_path / "bad.json", doc))


def test_number_field_takes_an_integer_as_given(tmp_path):
    doc = {"train": {"alpha": 1, "learning_rate": 1}}
    cfg = cf.load(write_json(tmp_path / "cfg.json", doc))
    assert type(cfg.train.alpha) is int
    assert type(cfg.train.learning_rate) is int
    cf.write_resolved(cfg, tmp_path / "echo.json")
    assert '"alpha": 1,' in (tmp_path / "echo.json").read_text()
    for value in (True, "1", None):
        with pytest.raises(ValueError, match="train.alpha must be a number"):
            cf.load(write_json(tmp_path / "bad.json",
                               {"train": {"alpha": value}}))


def test_reference_recipe_has_its_three_stages():
    assert [p.stem for p in RECIPE_FILES] == ["baseline", "ivspk", "spk"]


@pytest.mark.parametrize("path", RECIPE_FILES, ids=lambda p: p.stem)
def test_recipe_stage_loads_as_its_mode_and_round_trips(tmp_path, path):
    cfg = cf.load(path)
    assert cfg.train.mode == path.stem
    cf.write_resolved(cfg, tmp_path / "echo.json")
    assert cf.load(tmp_path / "echo.json") == cfg


def test_demo_script_parses_and_runs_every_recipe_stage():
    script = SCRIPTS / "run_demo.sh"
    subprocess.run(["sh", "-n", str(script)], check=True)
    text = script.read_text()
    for path in RECIPE_FILES:
        assert f'"$RECIPE/{path.name}"' in text, path.name
