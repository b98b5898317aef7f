"""Known-answer tests for the benchmark's own checks.

Run with ``python -m pytest perfbench/tests``. Each check is fed an
input whose answer is known, and a deliberately wrong input it must
reject.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks as ck  # noqa: E402
from sinmt import autodiff as ad  # noqa: E402
from sinmt import evaluation as ev  # noqa: E402
from sinmt import model as md  # noqa: E402
from sinmt import training as tr  # noqa: E402


# ---------------------------------------------------------------------------
# EER bracket
# ---------------------------------------------------------------------------


def test_eer_bracket_perfectly_separated():
    bracket = ck.eer_bracket([3.0, 4.0, 5.0], [0.0, 1.0, 2.0])
    assert bracket == (0.0, 0.0)
    assert ck.in_bracket(0.0, bracket).ok
    assert not ck.in_bracket(0.25, bracket).ok


def test_eer_bracket_identical_score_sets():
    scores = [1.0, 2.0, 3.0, 4.0]
    bracket = ck.eer_bracket(scores, scores)
    assert bracket == (0.5, 0.5)
    assert ck.in_bracket(0.5, bracket).ok
    assert not ck.in_bracket(0.0, bracket).ok


def test_eer_bracket_holds_the_program_eer():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = rng.integers(2, 40, size=2)
        # rounding makes ties between and within the classes
        bona = np.round(rng.normal(1.0, 1.0, size=n), 1)
        spoof = np.round(rng.normal(0.0, 1.0, size=m), 1)
        eer, _ = ev.eer_from_arrays(bona, spoof)
        lo, hi = ck.eer_bracket(bona, spoof)
        assert lo - ck.EER_TOL <= eer <= hi + ck.EER_TOL
        # a wrong EER (here, the error rate at the mean bona fide score)
        # lands outside unless the bracket is wide
        wrong = float(np.mean(bona < bona.mean()))
        if not lo <= wrong <= hi:
            assert not ck.in_bracket(wrong, (lo, hi)).ok


def test_report_check_rejects_a_wrong_attack_eer(tmp_path):
    rows = [("b1", 2.0, "bonafide", "bonafide"),
            ("b2", 3.0, "bonafide", "bonafide"),
            ("s1", 0.0, "spoof", "A01"), ("s2", 1.0, "spoof", "A01"),
            ("s3", 2.5, "spoof", "A02"), ("s4", 4.0, "spoof", "A02")]
    scores = tmp_path / "scores.txt"
    scores.write_text("".join(f"{u}\t{s!r}\t{lab}\t{a}\t1\n"
                              for u, s, lab, a in rows))
    trials = ev.ScoreSet([ev.Trial(u, s, lab, a, 1) for u, s, lab, a in rows])
    report = tmp_path / "report.txt"
    ev.write_report(ev.breakdown_report(trials), report)
    assert ck.check_report(scores, report).ok
    text = report.read_text().replace("attack_eer\tA01\t0\t",
                                      "attack_eer\tA01\t0.5\t")
    report.write_text(text)
    assert not ck.check_report(scores, report).ok


# ---------------------------------------------------------------------------
# Silhouette
# ---------------------------------------------------------------------------


def test_silhouette_of_two_separated_clusters():
    X = np.array([[0.0], [1.0], [100.0], [101.0]])
    ids = [1, 1, 2, 2]
    want = (99.5 / 100.5 + 98.5 / 99.5) / 2.0
    assert ck.silhouette_brute(X, ids) == pytest.approx(want, abs=1e-15)
    assert ck.check_silhouette(X, ids, round(want, 6)).ok
    mixed = ck.silhouette_brute(X, [1, 2, 1, 2])
    assert not ck.check_silhouette(X, ids, round(mixed, 6)).ok


def test_silhouette_agrees_with_the_program_on_random_points():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    ids = np.repeat(np.arange(6), 10)
    assert ck.silhouette_brute(X, ids) == pytest.approx(
        ev.silhouette(X, ids), abs=1e-12)


# ---------------------------------------------------------------------------
# Gradients through the reversal layer
# ---------------------------------------------------------------------------


def _tiny_ivspk_case():
    enc = md.EncoderConfig(conv_layers=[(4, 4, 2), (8, 3, 2)], model_dim=8,
                           n_transformer_layers=1, n_attention_heads=2,
                           ffn_dim=8, max_frames=64)
    head = md.MHFAConfig(n_heads=2, key_dim=4, value_dim=4,
                         embedding_dim=4)
    net = md.SInMTNetwork("ivspk", n_speakers=3, encoder=enc, head=head,
                          seed=1)
    rng = np.random.default_rng(2)
    batch = tr.Batch(rng.normal(size=(4, 64)), np.array([0, 1, 1, 0]),
                     np.array([0, 1, 2, 1]))
    spoof_w = np.array([1.5, 0.5])
    speaker_w = np.ones(3)
    config = tr.TrainConfig(mode="ivspk", alpha=0.1,
                            fold_alpha_into_lambda=True)
    return net, batch, spoof_w, speaker_w, config


def _gradients(net, batch, spoof_w, speaker_w, config):
    return ck.program_gradients(tr, ad, net, batch, config, spoof_w,
                                speaker_w)


def _run_check(net, batch, spoof_w, speaker_w, grads, reversal):
    return ck.check_network_reversal(
        net, batch, spoof_w, speaker_w, grads, reversal=reversal,
        speaker_weight=1.0,
        per_group={"extractor": 8, "spoof_head": 4, "speaker_head": 4},
        seed=0)


def test_reversal_gradients_match_central_differences():
    net, batch, spoof_w, speaker_w, config = _tiny_ivspk_case()
    grads = _gradients(net, batch, spoof_w, speaker_w, config)
    result = _run_check(net, batch, spoof_w, speaker_w, grads,
                        reversal=net.grl_scale * config.alpha)
    assert result.ok, result.detail


def test_program_gradients_leave_the_parameters_untouched():
    net, batch, spoof_w, speaker_w, config = _tiny_ivspk_case()
    before = net.params.state()
    _gradients(net, batch, spoof_w, speaker_w, config)
    assert ck.check_bit_identical(net.params.state(), before).ok
    assert ad.optimizer_step.__module__ == ad.__name__


def test_reversal_check_rejects_a_doubled_backward_pass():
    net, batch, spoof_w, speaker_w, config = _tiny_ivspk_case()
    grads = _gradients(net, batch, spoof_w, speaker_w, config)
    doubled = {n: 2.0 * g for n, g in grads.items()}
    assert not _run_check(net, batch, spoof_w, speaker_w, doubled,
                          reversal=0.1).ok


def test_reversal_check_rejects_a_sign_error_on_the_extractor():
    net, batch, spoof_w, speaker_w, config = _tiny_ivspk_case()
    grads = _gradients(net, batch, spoof_w, speaker_w, config)
    # the program reverses the speaker gradient; a check expecting it to
    # pass through unreversed must fail on the extractor
    result = _run_check(net, batch, spoof_w, speaker_w, grads, reversal=-0.1)
    assert not result.ok
    assert "extractor" in result.detail


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def test_bit_identical_rejects_one_ulp():
    parent = {"w": np.array([1.0, 2.0, 3.0])}
    assert ck.check_bit_identical({"w": parent["w"].copy()}, parent).ok
    nudged = parent["w"].copy()
    nudged[1] = np.nextafter(nudged[1], 3.0)
    assert not ck.check_bit_identical({"w": nudged}, parent).ok


def test_checkpoint_reader_matches_the_saved_network(tmp_path):
    net, *_ = _tiny_ivspk_case()
    md.save_checkpoint(net, tmp_path / "net.ckpt")
    values = ck.read_checkpoint_values(tmp_path / "net.ckpt")
    assert ck.check_bit_identical(net.params.state(), values).ok


def test_scored_once_rejects_a_duplicate(tmp_path):
    (tmp_path / "manifest.tsv").write_text(
        "# header\n"
        "u1\twav/u1.swav\t1\tbonafide\tbonafide\teval\n"
        "u2\twav/u2.swav\t1\tspoof\tA01\teval\n"
        "u3\twav/u3.swav\t2\tbonafide\tbonafide\ttrain\n")
    scores = tmp_path / "scores.txt"
    scores.write_text("u1\t1.0\tbonafide\tbonafide\t1\n"
                      "u2\t0.0\tspoof\tA01\t1\n")
    assert ck.check_scored_once(scores, tmp_path, "eval").ok
    scores.write_text(scores.read_text() + "u2\t0.0\tspoof\tA01\t1\n")
    assert not ck.check_scored_once(scores, tmp_path, "eval").ok


def test_history_check_rejects_a_nan_loss(tmp_path):
    history = tmp_path / "history.txt"
    tr.write_history([tr.LossRecord(1, 0.7, 0.0, 0.7, 0.3, 0.0)], history)
    assert ck.check_history_finite(history).ok
    tr.write_history([tr.LossRecord(1, float("nan"), 0.0, 0.7, 0.3, 0.0)],
                     history)
    assert not ck.check_history_finite(history).ok
