"""End-to-end command-line tests: exit codes, artifacts, determinism.

Commands run in-process through cli.main(argv) for speed; one
subprocess test checks the module entry point. A compact model and a
small corpus keep everything fast.
"""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sinmt import autodiff as ad
from sinmt import cli
from sinmt import config as cf
from sinmt import evaluation as ev
from sinmt import model as md
from sinmt import synthdata as sd
from sinmt import training as tr

TINY_MODEL = {
    "encoder": {"conv_layers": [[8, 8, 4], [8, 3, 2]], "model_dim": 8,
                "n_transformer_layers": 1, "n_attention_heads": 2,
                "ffn_dim": 16, "max_frames": 256},
    "head": {"n_heads": 2, "key_dim": 4, "value_dim": 4,
             "embedding_dim": 8},
}

TINY_CORPUS = {"n_speakers": 5, "utterances_per_speaker": 12,
               "n_samples": 1000, "seed": 5}


def write_config(path, train=None):
    doc = {"corpus": TINY_CORPUS, "model": TINY_MODEL}
    if train is not None:
        doc["train"] = train
    path.write_text(json.dumps(doc))
    return str(path)


def train_section(**kw):
    base = {"epochs": 2, "batch_size": 8, "clip_len": 500,
            "learning_rate": 1e-2, "seed": 2}
    base.update(kw)
    return base


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(root / "gen.json")
    out = root / "corpus"
    assert cli.main(["gen", "--config", cfg_path,
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_run(cli_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg_path = write_config(root / "train.json",
                            train=train_section(mode="spk"))
    out = root / "spk"
    assert cli.main(["train", "--config", cfg_path,
                     "--corpus", str(cli_corpus),
                     "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_corpus_and_resolved_config(self, cli_corpus):
        # the manifest records the corpus config, every default filled
        # in; gen writes no whole-experiment echo
        manifest = sd.read_manifest(cli_corpus)
        assert len(manifest.records) == 5 * 12
        assert manifest.config == sd.CorpusConfig(**TINY_CORPUS)
        assert sorted(p.name for p in cli_corpus.iterdir()) == \
            ["manifest.tsv", "wav"]

    @pytest.mark.parametrize("command,doc,named", [
        ("gen", {"corpus": {"seed": -1, "n_speakers": 4,
                            "utterances_per_speaker": 2}}, "corpus.seed"),
        ("train", {"train": {"seed": -3}}, "train.seed"),
    ])
    def test_negative_seed_exits_2_before_writing(self, cli_corpus, tmp_path,
                                                  capsys, command, doc,
                                                  named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        corpus = ["--corpus", str(cli_corpus)] if command == "train" else []
        code = cli.main([command, "--config", str(bad), "--out", str(out),
                         *corpus])
        assert code == 2
        assert f"{named} must be a non-negative integer" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"speekers": 3}}))
        code = cli.main(["gen", "--config", str(bad),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "speekers" in capsys.readouterr().err

    def test_refuses_to_clobber_without_force(self, cli_corpus, capsys):
        manifest_bytes = (cli_corpus / "manifest.tsv").read_bytes()
        code = cli.main(["gen", "--out", str(cli_corpus)])
        assert code == 3
        assert (cli_corpus / "manifest.tsv").read_bytes() == manifest_bytes

    def test_force_regenerates(self, tmp_path):
        cfg_path = write_config(tmp_path / "gen.json")
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--config", cfg_path,
                         "--out", str(out)]) == 0
        before = (out / "manifest.tsv").read_bytes()
        assert cli.main(["gen", "--config", cfg_path, "--out", str(out),
                         "--force"]) == 0
        assert (out / "manifest.tsv").read_bytes() == before

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["gen", "--config", str(bad),
                         "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("doc,named", [
        ({"train": {"epochs": "2"}}, "train.epochs"),
        ({"corpus": {"n_speakers": "20"}}, "corpus.n_speakers"),
        ({"train": {"augment": "false"}}, "train.augment"),
        ({"train": {"fold_alpha_into_lambda": "no"}},
         "train.fold_alpha_into_lambda"),
        ({"train": {"batch_size": True}}, "train.batch_size"),
        ({"corpus": {"seed": 1.5}}, "corpus.seed"),
        ({"train": {"seed": "7"}}, "train.seed"),
        ({"train": {"learning_rate": "0.1"}}, "train.learning_rate"),
        ({"train": {"clip_len": 2000.5}}, "clip_len"),
        ({"model": {"encoder": {"conv_layers": [[16.7, 8, 4], [32, 4, 2],
                                                [32, 4, 2]]}}},
         "conv_layers[0] channels"),
        ({"model": {"encoder": {"conv_layers": [[16, 8, 4], ["32", 4, 2],
                                                [32, 4, 2]]}}},
         "conv_layers[1] channels"),
        ({"model": {"encoder": {"conv_layers": [[16, 8, 4], [32, 4, 2],
                                                [32, 4, 2.9]]}}},
         "conv_layers[2] stride"),
        ({"corpus": {"split_fractions": ["0.7", "0.1", "0.2"]}},
         "corpus.split_fractions"),
        ({"train": {"alpha": "0.1"}}, "train.alpha"),
        ({"train": {"init_checkpoint": ["a"]}}, "train.init_checkpoint"),
        ({"train": {"init_checkpoint": 5}}, "train.init_checkpoint"),
        # λ is the mode's, so a grl_scale of any type is an unknown key
        ({"train": {"mode": "ivspk", "grl_scale": "0.5"}},
         "train.grl_scale"),
        ({"train": {"patience": 2.5}}, "train.patience"),
    ])
    def test_wrongly_typed_value_is_named(self, tmp_path, capsys, doc,
                                          named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in (["gen"], ["train", "--corpus", str(tmp_path)]):
            code = cli.main(command + ["--config", str(bad),
                                       "--out", str(out)])
            assert code == 2, command
            assert named in capsys.readouterr().err, command
        assert not out.exists()

    @pytest.mark.parametrize("key", ["grl_scale", "optimizer",
                                     "spoof_class_weights"])
    def test_removed_setting_exits_2(self, tmp_path, capsys, key):
        # λ comes from the mode, the optimizer is Adam and the spoof
        # weights are inverse-frequency; none of them is a setting
        value = {"grl_scale": 1.0, "optimizer": "sgd",
                 "spoof_class_weights": [1, 2]}[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"mode": "ivspk", key: value}}))
        out = tmp_path / "out"
        for command in (["gen"], ["train", "--corpus", str(tmp_path)]):
            code = cli.main(command + ["--config", str(bad),
                                       "--out", str(out)])
            assert code == 2, command
            assert f"unknown key train.{key}" in capsys.readouterr().err, \
                command
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"corpus": dict(TINY_CORPUS, attacks=[
            {"attack_id": "A04", "kind": "artifact_tone",
             "params": {"freq_hz": float("nan")}}])},
        {"train": {"learning_rate": float("nan")}},
        {"train": {"alpha": float("inf")}},
        {"corpus": {"n_samples": float("-inf")}},
        {"corpus": {"split_fractions": [float("nan"), 0.5, 0.5]}},
    ])
    def test_non_finite_number_exits_2_before_writing(self, tmp_path,
                                                      capsys, doc):
        # Python's JSON reader takes NaN and Infinity; JSON does not
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in (["gen"], ["train", "--corpus", str(tmp_path)]):
            code = cli.main(command + ["--config", str(bad),
                                       "--out", str(out)])
            assert code == 2, command
            assert "not valid JSON" in capsys.readouterr().err, command
        assert not out.exists()

    @pytest.mark.parametrize("attack,named", [
        ({"attack_id": "A01", "kind": "phase_randomise"}, "phase_randomise"),
        ({"attack_id": "A03", "kind": "bit_crush", "params": {"bitz": 4}},
         "bitz"),
        # supplied by apply_attack itself, so not settable per attack
        ({"attack_id": "A04", "kind": "artifact_tone",
          "params": {"sample_rate": 8000}}, "sample_rate"),
        ({"attack_id": "A", "kind": "bit_crush", "params": {"bits": "4"}},
         "corpus.attacks[0].params.bits"),
        ({"attack_id": "A", "kind": "bit_crush", "params": {"bits": 4.5}},
         "corpus.attacks[0].params.bits"),
        ({"attack_id": "A", "kind": "bit_crush", "params": {"bits": True}},
         "corpus.attacks[0].params.bits"),
        ({"attack_id": "A", "kind": "artifact_tone",
          "params": {"freq_hz": "900"}}, "corpus.attacks[0].params.freq_hz"),
        ({"attack_id": "A", "kind": "phase_randomize",
          "params": {"frame_len": 256.0}},
         "corpus.attacks[0].params.frame_len"),
    ])
    def test_bad_attack_spec_fails_before_writing(self, tmp_path, capsys,
                                                  attack, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": dict(TINY_CORPUS,
                                                  attacks=[attack])}))
        out = tmp_path / "corpus"
        code = cli.main(["gen", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("short", [
        {"n_samples": 40}, {"n_samples": 16}, {"n_samples": 49},
        {"n_samples": 99, "sample_rate": 8000},
        {"n_samples": 1, "sample_rate": 80}])
    def test_utterance_shorter_than_a_period_fails_before_writing(
            self, tmp_path, capsys, short):
        # below one period at 80 Hz an utterance's first pulse can fall
        # past its end, and the silent signal cannot be level-normalized
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": dict(TINY_CORPUS, **short)}))
        out = tmp_path / "corpus"
        code = cli.main(["gen", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert "corpus.n_samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("shortest", [
        {"n_samples": 50}, {"n_samples": 2, "sample_rate": 160}])
    def test_shortest_utterance_generates(self, tmp_path, seed, shortest):
        doc = {"corpus": dict(TINY_CORPUS, seed=seed, **shortest)}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        manifest = sd.read_manifest(out)
        assert len(manifest.records) == 5 * 12
        for record in manifest.records:
            wav = manifest.load_waveform(record)
            assert len(wav) == shortest["n_samples"]
            assert np.max(np.abs(wav)) == pytest.approx(0.9, abs=1e-12)


class TestTrain:
    def test_artifacts_and_history(self, trained_run):
        assert (trained_run / "best.ckpt").exists()
        history = tr.read_history(trained_run / "history.txt")
        assert len(history) >= 1
        resolved = cf.load(trained_run / "config.resolved")
        assert resolved.train.mode == "spk"

    def test_rerun_is_byte_identical(self, cli_corpus, trained_run,
                                     tmp_path):
        cfg_path = write_config(tmp_path / "train.json",
                                train=train_section(mode="spk"))
        out = tmp_path / "again"
        assert cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus),
                         "--out", str(out)]) == 0
        assert (out / "best.ckpt").read_bytes() == \
            (trained_run / "best.ckpt").read_bytes()
        assert (out / "history.txt").read_bytes() == \
            (trained_run / "history.txt").read_bytes()

    def test_mode_flag_overrides_config(self, cli_corpus, tmp_path):
        cfg_path = write_config(tmp_path / "train.json",
                                train=train_section(mode="spk",
                                                    epochs=1))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus), "--out", str(out),
                         "--mode", "baseline"]) == 0
        resolved = cf.load(out / "config.resolved")
        assert resolved.train.mode == "baseline"

    def test_mode_flag_applies_before_validation(self, cli_corpus,
                                                 trained_run, tmp_path):
        # the fold is an ivspk setting; the config alone is a baseline one
        cfg_path = write_config(
            tmp_path / "train.json",
            train=train_section(epochs=1, fold_alpha_into_lambda=True))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus), "--out", str(out),
                         "--mode", "ivspk",
                         "--init", str(trained_run / "best.ckpt")]) == 0
        resolved = cf.load(out / "config.resolved")
        assert resolved.train.mode == "ivspk"
        assert resolved.train.fold_alpha_into_lambda is True

    @pytest.mark.parametrize("mode", ["baseline", "spk"])
    def test_fold_outside_ivspk_exits_2(self, cli_corpus, tmp_path, capsys,
                                        mode):
        cfg_path = write_config(
            tmp_path / "train.json",
            train=train_section(mode=mode, fold_alpha_into_lambda=True))
        out = tmp_path / "run"
        code = cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus), "--out", str(out)])
        assert code == 2
        assert "train.fold_alpha_into_lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_scale_contradiction_exits_2(self, cli_corpus, tmp_path,
                                              capsys):
        # spk's λ is −1 and no key can set another
        cfg_path = write_config(
            tmp_path / "train.json",
            train=train_section(mode="spk", grl_scale=1.0))
        code = cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "grl_scale" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_cold_adversarial_start_warns(self, cli_corpus, tmp_path,
                                          capsys):
        cfg_path = write_config(
            tmp_path / "train.json",
            train=train_section(mode="ivspk", epochs=1))
        out = tmp_path / "ivspk"
        assert cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus),
                         "--out", str(out)]) == 0
        assert "warm-start" in capsys.readouterr().err

    def test_warm_start_via_init_flag(self, cli_corpus, trained_run,
                                      tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "train.json",
            train=train_section(mode="ivspk", epochs=1))
        out = tmp_path / "warm"
        assert cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus), "--out", str(out),
                         "--init", str(trained_run / "best.ckpt")]) == 0
        assert "warm-start" not in capsys.readouterr().err

    def test_missing_init_checkpoint_leaves_no_output(self, cli_corpus,
                                                      tmp_path):
        cfg_path = write_config(tmp_path / "train.json",
                                train=train_section(mode="ivspk"))
        out = tmp_path / "run"
        code = cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus), "--out", str(out),
                         "--init", str(tmp_path / "missing.ckpt")])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/run"])
    def test_out_under_a_file_is_rejected_before_training(
            self, cli_corpus, tmp_path, monkeypatch, capsys, out):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(tr, "train", no_training)
        (tmp_path / "afile").write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        code = cli.main(["train", "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / out)])
        assert code == 3
        assert "not a writable directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_warning_before_a_failure_is_shown(self, cli_corpus, tmp_path,
                                               monkeypatch, capsys):
        def warn_then_diverge(*args, **kwargs):
            warnings.warn("dev split lacks both classes; using the train "
                          "split for per-epoch metrics and model selection")
            raise ad.NumericsError("non-finite gradient for 'conv1.w'")

        monkeypatch.setattr(tr, "train", warn_then_diverge)
        code = cli.main(["train", "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert "warning: dev split lacks both classes" in err
        assert "numerical failure: non-finite gradient" in err

    def test_resolved_echo_names_the_corpus_and_model_used(self, tmp_path):
        # the config given to train names neither this corpus nor, for
        # the warm-started stage, this model
        corpus = {"n_speakers": 6, "utterances_per_speaker": 12,
                  "n_samples": 1000, "seed": 5,
                  "split_fractions": [0.5, 0.17, 0.33]}
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({"corpus": corpus}))
        assert cli.main(["gen", "--config", str(gen),
                         "--out", str(tmp_path / "corpus")]) == 0
        configs = {"spk": {"model": TINY_MODEL,
                           "train": train_section(mode="spk", epochs=1)},
                   "ivspk": {"train": train_section(mode="ivspk", epochs=1)}}
        init = []
        for stage, doc in configs.items():
            path = tmp_path / f"{stage}.json"
            path.write_text(json.dumps(doc))
            assert cli.main(["train", "--config", str(path),
                             "--corpus", str(tmp_path / "corpus"),
                             "--out", str(tmp_path / stage), *init]) == 0
            init = ["--init", str(tmp_path / stage / "best.ckpt")]
        manifest = sd.read_manifest(tmp_path / "corpus")
        assert manifest.config == sd.CorpusConfig(
            **dict(corpus, split_fractions=(0.5, 0.17, 0.33)))
        for stage in ("spk", "ivspk"):
            resolved = cf.load(tmp_path / stage / "config.resolved")
            net = md.load_checkpoint(tmp_path / stage / "best.ckpt")
            assert resolved.corpus == manifest.config, stage
            assert resolved.model.encoder == net.encoder_config, stage
            assert resolved.model.head == net.head_config, stage
            assert resolved.model.encoder.model_dim == 8, stage

    def test_divergence_exits_4(self, cli_corpus, tmp_path):
        # Adam's step is about lr whatever the gradient's scale; at 1e12
        # this model still trains to exit 0
        cfg_path = write_config(
            tmp_path / "train.json",
            train=train_section(learning_rate=1e100))
        code = cli.main(["train", "--config", cfg_path,
                         "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "x")])
        assert code == 4


class TestEval:
    def test_scores_report_and_determinism(self, cli_corpus, trained_run,
                                           tmp_path, capsys):
        out = tmp_path / "eval"
        args = ["eval", "--ckpt", str(trained_run / "best.ckpt"),
                "--corpus", str(cli_corpus), "--out", str(out)]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        assert "pooled EER" in printed
        scores = ev.read_scores(out / "scores.txt")
        manifest = sd.read_manifest(cli_corpus)
        assert len(scores.trials) == len(manifest.split_records("eval"))
        first = (out / "scores.txt").read_bytes()
        out2 = tmp_path / "eval2"
        assert cli.main(args[:-1] + [str(out2)]) == 0
        assert (out2 / "scores.txt").read_bytes() == first

    def test_stdout_ends_with_a_newline(self, cli_corpus, trained_run,
                                        tmp_path, capsys):
        assert cli.main(["eval", "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "eval")]) == 0
        printed = capsys.readouterr().out
        assert printed.endswith("\n") and not printed.endswith("\n\n")

    @pytest.mark.parametrize("old,new,named", [
        ('"level_db": -25.0', '"level_db": NaN', "NaN is not valid JSON"),
        ('"n_speakers": 5', '"n_speakers": 5, "speekers": 5',
         "unknown key corpus.speekers"),
        ('"n_speakers": 5', '"n_speakers": "5"',
         "corpus.n_speakers must be an integer"),
        ("# sinmt-corpus-v2", "# sinmt-corpus-v1", "regenerate the corpus "
                                                   "with `sinmt gen`"),
    ])
    def test_tampered_manifest_exits_2(self, cli_corpus, trained_run,
                                       tmp_path, capsys, old, new, named):
        text = (cli_corpus / "manifest.tsv").read_text()
        assert old in text
        bad = tmp_path / "corpus"
        bad.mkdir()
        (bad / "manifest.tsv").write_text(text.replace(old, new, 1))
        code = cli.main(["eval", "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert str(bad / "manifest.tsv") in err
        assert not (tmp_path / "x").exists()

    def test_batch_size_flag_is_refused(self, cli_corpus, trained_run,
                                        tmp_path, capsys):
        # eval scores in batches of 32; the batch size is no setting
        code = cli.main(["eval", "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "x"),
                         "--batch-size", "8"])
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_report_warnings_go_to_stderr_once(self, trained_run, tmp_path,
                                               capsys):
        # four utterances per speaker draw only the first two attacks
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(
            {"corpus": dict(TINY_CORPUS, utterances_per_speaker=4)}))
        corpus = tmp_path / "corpus"
        assert cli.main(["gen", "--config", str(cfg_path),
                         "--out", str(corpus)]) == 0
        out = tmp_path / "eval"
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(corpus), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        report = (out / "report.txt").read_text()
        for attack in ("A03", "A04"):
            message = f"attack {attack} has zero trials; omitted"
            assert captured.err.count(message) == 1, attack
            assert f"warning\t{message}" in report, attack
        assert "pooled EER" in captured.out
        assert "warning" not in captured.out

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_out_under_a_file_is_rejected_before_scoring(
            self, cli_corpus, trained_run, tmp_path, monkeypatch, capsys,
            command):
        def no_scoring(*args, **kwargs):
            raise AssertionError("scoring started")

        monkeypatch.setattr(ev, "score_split", no_scoring)
        monkeypatch.setattr(ev, "embed_split", no_scoring)
        (tmp_path / "afile").write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([command, "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "afile" / "x")])
        assert code == 3
        assert "not a writable directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_malformed_checkpoint_manifest_exits_2(self, cli_corpus,
                                                   trained_run, tmp_path,
                                                   capsys):
        ckpt = tmp_path / "list.ckpt"
        ckpt.write_bytes(f"{md.CHECKPOINT_VERSION}\n2\n[]".encode())
        # a mode the program does not know is refused even though the
        # command loads every checkpoint as a baseline network
        net = md.load_checkpoint(trained_run / "best.ckpt")
        net.mode = "foo"
        md.save_checkpoint(net, tmp_path / "foo.ckpt")
        for name, fault in (("list.ckpt", "not a JSON object"),
                            ("foo.ckpt", "unknown mode: 'foo'")):
            code = cli.main(["eval", "--ckpt", str(tmp_path / name),
                             "--corpus", str(cli_corpus),
                             "--out", str(tmp_path / "x")])
            assert code == 2
            assert fault in capsys.readouterr().err

    def test_non_finite_checkpoint_value_exits_2(self, cli_corpus,
                                                 trained_run, tmp_path,
                                                 capsys):
        net = md.load_checkpoint(trained_run / "best.ckpt")
        net.grl_scale = float("nan")  # saved as "grl_scale": NaN
        ckpt = tmp_path / "nan.ckpt"
        md.save_checkpoint(net, ckpt)
        out = tmp_path / "x"
        for command in (
                ["eval", "--ckpt", str(ckpt), "--out", str(out)],
                ["train", "--init", str(ckpt), "--out", str(out)]):
            code = cli.main(command + ["--corpus", str(cli_corpus)])
            assert code == 2, command
            assert "NaN is not valid JSON" in capsys.readouterr().err, \
                command
        assert not out.exists()

    def test_wrongly_typed_checkpoint_value_exits_2(self, cli_corpus,
                                                   trained_run, tmp_path,
                                                   capsys):
        net = md.load_checkpoint(trained_run / "best.ckpt")
        net.n_speakers = str(net.n_speakers)  # saved as "n_speakers": "4"
        ckpt = tmp_path / "text.ckpt"
        md.save_checkpoint(net, ckpt)
        code = cli.main(["eval", "--ckpt", str(ckpt),
                         "--corpus", str(cli_corpus),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n_speakers must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, "x"])
    def test_wrongly_typed_checkpoint_seed_exits_2(self, cli_corpus,
                                                   trained_run, tmp_path,
                                                   capsys, seed):
        net = md.load_checkpoint(trained_run / "best.ckpt")
        net.seed = seed
        ckpt = tmp_path / "seed.ckpt"
        md.save_checkpoint(net, ckpt)
        out = tmp_path / "x"
        corpus = ["--corpus", str(cli_corpus)]
        for command in (["probe", "--ckpt", str(ckpt)],
                        ["eval", "--ckpt", str(ckpt), "--out", str(out)],
                        ["export", "--ckpt", str(ckpt), "--out", str(out)],
                        ["train", "--init", str(ckpt), "--out", str(out)]):
            code = cli.main(command + corpus)
            assert code == 2, command
            assert "seed must be a non-negative integer" in \
                capsys.readouterr().err, command
        assert not out.exists()

    def test_unknown_attack_key_in_corpus_exits_2(self, cli_corpus,
                                                  trained_run, tmp_path,
                                                  capsys):
        text = (cli_corpus / "manifest.tsv").read_text()
        bad = tmp_path / "corpus"
        bad.mkdir()
        (bad / "manifest.tsv").write_text(
            text.replace('"params":', '"parms":', 1))
        code = cli.main(["eval", "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "corpus.attacks[0].parms" in capsys.readouterr().err

    def test_missing_checkpoint_exits_3(self, cli_corpus, tmp_path, capsys):
        # an unreadable file is an I/O error from every command, as from
        # ``train --init``; malformed content stays a configuration error
        for command, out in (("eval", ["--out", str(tmp_path / "x")]),
                             ("probe", []),
                             ("export", ["--out", str(tmp_path / "x.txt")])):
            code = cli.main([command, "--ckpt", str(tmp_path / "no.ckpt"),
                             "--corpus", str(cli_corpus), *out])
            assert code == 3, command
            err = capsys.readouterr().err
            assert "I/O error" in err and "no.ckpt" in err, command


class TestProbeAndExport:
    def test_probe_prints_metrics(self, cli_corpus, trained_run, capsys):
        assert cli.main(["probe", "--ckpt",
                         str(trained_run / "best.ckpt"),
                         "--corpus", str(cli_corpus),
                         "--split", "all"]) == 0
        printed = capsys.readouterr().out
        values = dict(line.split(None, 1)
                      for line in printed.strip().splitlines())
        assert float(values["chance_level"]) == pytest.approx(1 / 5)
        assert 0.0 <= float(values["probe_accuracy"]) <= 1.0
        assert -1.0 <= float(values["silhouette"]) <= 1.0

    def test_negative_probe_seed_exits_2(self, cli_corpus, trained_run,
                                         capsys):
        code = cli.main(["probe", "--ckpt", str(trained_run / "best.ckpt"),
                         "--corpus", str(cli_corpus), "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--seed must be a non-negative integer" in captured.err
        assert captured.out == ""

    def test_export_rows_and_determinism(self, cli_corpus, trained_run,
                                         tmp_path):
        out = tmp_path / "emb.txt"
        args = ["export", "--ckpt", str(trained_run / "best.ckpt"),
                "--corpus", str(cli_corpus), "--out", str(out),
                "--split", "dev"]
        assert cli.main(args) == 0
        manifest = sd.read_manifest(cli_corpus)
        n_dev = len(manifest.split_records("dev"))
        assert len(out.read_text().strip().splitlines()) == n_dev
        out2 = tmp_path / "emb2.txt"
        assert cli.main(args[:-3] + [str(out2), "--split", "dev"]) == 0
        assert out2.read_bytes() == out.read_bytes()


class TestSpoofBranchOnly:
    def test_commands_run_one_head_and_match_the_stored_mode(
            self, cli_corpus, trained_run, tmp_path, monkeypatch, capsys):
        ckpt = trained_run / "best.ckpt"
        stored = md.load_checkpoint(ckpt)
        assert stored.mode == "spk"
        manifest = sd.read_manifest(cli_corpus)
        expected_scores = ev.score_split(stored, manifest, "eval")
        expected_probe = ev.separability_report(stored, manifest, "all")
        ev.export_embeddings(stored, manifest, "eval", tmp_path / "ref.txt")

        calls = {"encode": 0, "mhfa_pool": 0}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(md.SInMTNetwork, "encode")
        counted(md, "mhfa_pool")
        for argv in (["eval", "--out", str(tmp_path / "ev")],
                     ["probe", "--split", "all"],
                     ["export", "--out", str(tmp_path / "emb.txt")]):
            assert cli.main(argv + ["--ckpt", str(ckpt),
                                    "--corpus", str(cli_corpus)]) == 0
        assert calls["encode"] > 0
        assert calls["mhfa_pool"] == calls["encode"]

        scores = ev.read_scores(tmp_path / "ev" / "scores.txt")
        assert [(t.utt_id, t.score) for t in scores.trials] == \
            [(t.utt_id, t.score) for t in expected_scores.trials]
        printed = capsys.readouterr().out
        assert f"probe_accuracy   {expected_probe.probe_accuracy:.6f}\n" \
            in printed
        assert f"silhouette       {expected_probe.silhouette_score:.6f}\n" \
            in printed
        assert (tmp_path / "emb.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_split_is_usage_error(self, cli_corpus, trained_run,
                                          capsys):
        assert cli.main(["export", "--ckpt",
                         str(trained_run / "best.ckpt"),
                         "--corpus", str(cli_corpus),
                         "--out", "x", "--split", "test"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"speekers": 1}}))
        proc = subprocess.run(
            [sys.executable, "-m", "sinmt.cli", "gen", "--config",
             str(bad), "--out", str(tmp_path / "x")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "speekers" in proc.stderr


class TestHeapPolicy:
    class FakeLibc:
        def __init__(self):
            self.calls = []

            def mallopt(param, value):
                self.calls.append((param, value))
                return 1

            self.mallopt = mallopt  # a function: ctypes sets argtypes on it

    def test_sets_the_mmap_and_trim_thresholds(self, monkeypatch):
        libc = self.FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_heap_mapped()
        # glibc's M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1 and
        # M_ARENA_MAX -8
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]

    def test_no_glibc_does_nothing(self, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(cli.ctypes, "CDLL", missing)
        assert cli._keep_freed_heap_mapped() is None

    def test_library_without_mallopt_does_nothing(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_heap_mapped() is None

    def test_main_twice_is_harmless(self, capsys):
        assert cli.main([]) == 2
        assert cli.main([]) == 2
        capsys.readouterr()
