"""Tests for losses, stepping, and the training loop.

Oracles:
  * Cross-entropy values are checked against closed forms built from
    explicit probability vectors (CE of log p is −log p_y exactly).
  * Update decompositions are checked against a two-backward oracle
    that measures ∂Ls/∂θ and ∂Ld/∂θ on separate tapes with the
    reversal layer routed around.
  * Loop-level properties (determinism, early stopping, split
    isolation) run on a small corpus with a compact network injected
    through the warm-start path.
"""

import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sinmt import autodiff as ad
from sinmt import evaluation as ev
from sinmt import model as md
from sinmt import synthdata as sd
from sinmt import training as tr


def logits_for_probs(probs):
    """Logits whose softmax equals probs exactly (log p is one such)."""
    return np.log(np.asarray(probs, dtype=np.float64))


class TestWeightedCrossEntropy:
    def test_uniform_two_class_is_ln_two(self):
        logits = ad.Tensor(np.zeros((4, 2)))
        loss = tr.weighted_cross_entropy(logits, [0, 1, 1, 0], [1.0, 1.0])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_weighted_sample(self):
        logits = ad.Tensor(np.array([[2.0, 0.0]]))
        loss = tr.weighted_cross_entropy(logits, [0], [0.9, 0.1])
        expected = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(0.1269, abs=5e-5)

    def test_unit_weights_equal_plain_mean(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        loss = tr.weighted_cross_entropy(ad.Tensor(logits), labels,
                                         np.ones(3))
        # independent oracle: stable log-softmax by hand
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(6), labels].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_weight_normalized_mean(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        w = np.array([0.25, 4.0])
        loss = tr.weighted_cross_entropy(ad.Tensor(logits), labels, w)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        per = -logp[np.arange(5), labels]
        expected = (w[labels] * per).sum() / w[labels].sum()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_weight_scaling_cancels(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 0, 1])
        a = tr.weighted_cross_entropy(ad.Tensor(logits), labels,
                                      [1.0, 3.0]).item()
        b = tr.weighted_cross_entropy(ad.Tensor(logits), labels,
                                      [10.0, 30.0]).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_label_out_of_range(self):
        logits = ad.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="outside 0..1"):
            tr.weighted_cross_entropy(logits, [0, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            tr.weighted_cross_entropy(logits, [-1, 0], [1.0, 1.0])

    def test_bad_weights(self):
        logits = ad.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="weights"):
            tr.weighted_cross_entropy(logits, [0, 1], [1.0, -1.0])
        with pytest.raises(ValueError, match="weights"):
            tr.weighted_cross_entropy(logits, [0, 1], [0.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        w = np.array([1.0, 2.0, 0.5, 1.5])

        def value(x):
            return tr.weighted_cross_entropy(ad.Tensor(x), labels, w).item()

        logits = ad.Tensor(base, requires_grad=True)
        with ad.Tape() as tape:
            loss = tr.weighted_cross_entropy(logits, labels, w)
            tape.backward(loss)
            grad = tape.grad(logits)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                d = np.zeros_like(base)
                d[i, j] = eps
                fd = (value(base + d) - value(base - d)) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=1e-7)


class TestCombinedLoss:
    def test_alpha_zero_total_is_spoof_loss(self):
        rng = np.random.default_rng(4)
        sp = ad.Tensor(rng.normal(size=(3, 2)))
        sk = ad.Tensor(rng.normal(size=(3, 5)))
        total, ls, ld = tr.combined_loss(sp, sk, [0, 1, 0], [1, 2, 3], 0.0)
        assert total.item() == ls.item()
        assert ld is not None

    def test_known_component_values_combine(self):
        # spoof branch: p_correct = e^−0.7 → Ls = 0.7 exactly
        p = np.exp(-0.7)
        sp = ad.Tensor(logits_for_probs([[p, 1.0 - p]]))
        # speaker branch: p_correct = e^−2 → Ld = 2 exactly
        q = np.exp(-2.0)
        rest = (1.0 - q) / 3.0
        sk = ad.Tensor(logits_for_probs([[q, rest, rest, rest]]))
        total, ls, ld = tr.combined_loss(sp, sk, [0], [0], 0.1)
        assert ls.item() == pytest.approx(0.70, abs=1e-12)
        assert ld.item() == pytest.approx(2.00, abs=1e-12)
        assert total.item() == pytest.approx(0.90, abs=1e-12)

    def test_baseline_has_no_speaker_component(self):
        sp = ad.Tensor(np.zeros((2, 2)))
        total, ls, ld = tr.combined_loss(sp, None, [0, 1], None, 0.1)
        assert total is ls
        assert ld is None

    def test_missing_speaker_labels_rejected(self):
        sp = ad.Tensor(np.zeros((2, 2)))
        sk = ad.Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="speaker labels"):
            tr.combined_loss(sp, sk, [0, 1], None, 0.1)

    def test_forward_value_independent_of_reversal_scale(self):
        wavs = np.random.default_rng(5).normal(size=(2, 200)) * 0.5
        encoder = md.EncoderConfig(conv_layers=[(8, 8, 4), (8, 3, 2)],
                                   model_dim=8, n_transformer_layers=1,
                                   n_attention_heads=2, ffn_dim=16,
                                   max_frames=64)
        head = md.MHFAConfig(2, 4, 4, 8)
        spk = md.SInMTNetwork("spk", n_speakers=4, encoder=encoder,
                              head=head, seed=7)
        ivspk = md.SInMTNetwork("ivspk", n_speakers=4, encoder=encoder,
                                head=head, seed=7)
        labels = ([0, 1], [1, 3])
        out_a = spk.forward(wavs)
        out_b = ivspk.forward(wavs)
        ta, _, _ = tr.combined_loss(out_a.spoof_logits,
                                    out_a.speaker_logits, *labels, 0.1)
        tb, _, _ = tr.combined_loss(out_b.spoof_logits,
                                    out_b.speaker_logits, *labels, 0.1)
        assert ta.item() == tb.item()  # bit-exact


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def tiny_network(mode, seed=7, n_speakers=4):
    encoder = md.EncoderConfig(conv_layers=[(8, 8, 4), (8, 3, 2)],
                               model_dim=8, n_transformer_layers=1,
                               n_attention_heads=2, ffn_dim=16,
                               max_frames=256)
    head = md.MHFAConfig(2, 4, 4, 8)
    return md.SInMTNetwork(mode, n_speakers=n_speakers, encoder=encoder,
                           head=head, seed=seed)


def tiny_batch(seed=11, n=4, length=200, n_speakers=4):
    rng = np.random.default_rng(seed)
    wavs = rng.normal(size=(n, length)) * 0.5
    return tr.Batch(waveforms=wavs,
                    spoof_labels=rng.integers(0, 2, size=n),
                    speaker_labels=rng.integers(0, n_speakers, size=n))


def two_backward_gradients(network, batch, alpha):
    """∂Ls/∂θ and ∂Ld/∂θ measured on separate tapes, reversal layer a
    pass-through (grl_scale=-1.0 multiplies gradients by 1.0)."""
    with ad.Tape() as tape_s:
        out = network.forward(batch.waveforms, grl_scale=-1.0)
        ls = tr.weighted_cross_entropy(out.spoof_logits,
                                       batch.spoof_labels, np.ones(2))
        tape_s.backward(ls)
        g_s = network.params.collect_grads(tape_s)
    with ad.Tape() as tape_d:
        out = network.forward(batch.waveforms, grl_scale=-1.0)
        ld = tr.weighted_cross_entropy(
            out.speaker_logits, batch.speaker_labels,
            np.ones(network.n_speakers))
        tape_d.backward(ld)
        g_d = network.params.collect_grads(tape_d)
    return g_s, g_d


class TestTrainStep:
    def test_sgd_update_decomposition(self):
        for lam, mode in ((1.0, "ivspk"), (-1.0, "spk")):
            net = tiny_network(mode)
            batch = tiny_batch()
            alpha, mu = 0.1, 0.05
            before = {k: v.copy() for k, v in net.params.state().items()}
            g_s, g_d = two_backward_gradients(net, batch, alpha)

            cfg = tr.TrainConfig(mode=mode, alpha=alpha, optimizer="sgd",
                                 learning_rate=mu)
            opt = ad.OptimizerState.sgd(lr=mu)
            tr.train_step(net, batch, cfg, opt, np.ones(2),
                          np.ones(net.n_speakers))
            after = net.params.state()

            for name in before:
                group = net.params.group_of(name)
                if group == "extractor":
                    want = -mu * (g_s[name] - lam * alpha * g_d[name])
                elif group == "spoof_head":
                    want = -mu * g_s[name]
                else:
                    want = -mu * alpha * g_d[name]
                np.testing.assert_allclose(after[name] - before[name],
                                           want, atol=1e-12, rtol=0,
                                           err_msg=f"{mode}:{name}")

    def test_fold_alpha_moves_weight_into_reversal(self):
        alpha, mu = 0.3, 0.05
        batch = tiny_batch()
        net = tiny_network("ivspk")
        before = {k: v.copy() for k, v in net.params.state().items()}
        g_s, g_d = two_backward_gradients(net, batch, alpha)
        cfg = tr.TrainConfig(mode="ivspk", alpha=alpha, optimizer="sgd",
                             learning_rate=mu, fold_alpha_into_lambda=True)
        opt = ad.OptimizerState.sgd(lr=mu)
        tr.train_step(net, batch, cfg, opt, np.ones(2),
                      np.ones(net.n_speakers))
        after = net.params.state()
        for name in before:
            group = net.params.group_of(name)
            if group == "extractor":  # identical extractor update
                want = -mu * (g_s[name] - 1.0 * alpha * g_d[name])
            elif group == "spoof_head":
                want = -mu * g_s[name]
            else:  # speaker head now trains on the unweighted loss
                want = -mu * g_d[name]
            np.testing.assert_allclose(after[name] - before[name], want,
                                       atol=1e-12, rtol=0, err_msg=name)
        assert net.grl_scale == 1.0  # the step folds α per call only

    def test_cooperative_mode_equals_plain_multitask(self):
        """λ=−1 makes the reversal a pass-through scale, so the step
        must match minimizing Ls + α·Ld with no reversal at all."""
        alpha, mu = 0.1, 0.05
        batch = tiny_batch()
        net_a = tiny_network("spk")
        net_b = tiny_network("spk")
        cfg = tr.TrainConfig(mode="spk", alpha=alpha, optimizer="sgd",
                             learning_rate=mu)
        opt = ad.OptimizerState.sgd(lr=mu)
        tr.train_step(net_a, batch, cfg, opt, np.ones(2),
                      np.ones(net_a.n_speakers))

        with ad.Tape() as tape:
            out = net_b.forward(batch.waveforms, grl_scale=-1.0)
            total, _, _ = tr.combined_loss(
                out.spoof_logits, out.speaker_logits, batch.spoof_labels,
                batch.speaker_labels, alpha)
            tape.backward(total)
            grads = net_b.params.collect_grads(tape)
        ad.optimizer_step(net_b.params, grads, ad.OptimizerState.sgd(mu))

        for name, value in net_a.params.state().items():
            np.testing.assert_allclose(value, net_b.params.state()[name],
                                       atol=1e-12, rtol=0, err_msg=name)

    def test_spoof_head_isolated_from_speaker_loss(self):
        """Zeroing the speaker loss leaves spoof-head updates unchanged."""
        batch = tiny_batch()
        mu = 0.05
        net_a = tiny_network("ivspk")
        net_b = tiny_network("ivspk")
        cfg_a = tr.TrainConfig(mode="ivspk", alpha=0.1, optimizer="sgd",
                               learning_rate=mu)
        cfg_b = tr.TrainConfig(mode="ivspk", alpha=0.0, optimizer="sgd",
                               learning_rate=mu)
        opt = ad.OptimizerState.sgd(lr=mu)
        tr.train_step(net_a, batch, cfg_a, opt, np.ones(2), np.ones(4))
        tr.train_step(net_b, batch, cfg_b, opt, np.ones(2), np.ones(4))
        for name in net_a.params.state():
            if net_a.params.group_of(name) == "spoof_head":
                np.testing.assert_array_equal(
                    net_a.params.state()[name], net_b.params.state()[name],
                    err_msg=name)

    def test_spk_step_bit_identical_across_share_counts(self, across_counts,
                                                        monkeypatch):
        """A default-size spk step at B = 11 x 2000 samples: the losses,
        every gradient (with its strides) and every updated parameter
        are the same whatever the number of shares the ops split into."""
        rng = np.random.default_rng(2000)
        batch = tr.Batch(waveforms=rng.normal(size=(11, 2000)) * 0.3,
                         spoof_labels=rng.integers(0, 2, size=11),
                         speaker_labels=rng.integers(0, 16, size=11))
        cfg = tr.TrainConfig(mode="spk")
        grads = {}
        optimizer_step = ad.optimizer_step

        def recording_step(params, g, state):
            grads.update(g)
            optimizer_step(params, g, state)

        monkeypatch.setattr(ad, "optimizer_step", recording_step)

        def step():
            net = md.SInMTNetwork("spk", n_speakers=16, seed=0)
            opt = ad.OptimizerState.adam(net.params, lr=cfg.learning_rate)
            losses = tr.train_step(net, batch, cfg, opt)
            return ([np.array(v) for _, v in sorted(losses.items())]
                    + [grads[n] for n in sorted(grads)]
                    + [np.array(grads[n].strides) for n in sorted(grads)]
                    + [p.data for _, p in sorted(net.params.items())])

        one, *more = across_counts(step)
        assert len(one) == 3 + 3 * len(md.SInMTNetwork(
            "spk", n_speakers=16, seed=0).params)
        for other in more:
            for a, b in zip(one, other):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    def test_non_finite_loss_aborts(self):
        net = tiny_network("baseline")
        batch = tr.Batch(np.full((1, 200), np.nan), np.array([0]), None)
        cfg = tr.TrainConfig(mode="baseline")
        opt = ad.OptimizerState.sgd(lr=0.1)
        with pytest.raises(ad.NumericsError, match="loss"):
            tr.train_step(net, batch, cfg, opt, np.ones(2))

    def test_default_step_peak_memory(self):
        """A default-config step (32 clips of 4000 samples, 250 frames)
        peaks below 160 MB of traced memory, at about 99 MB. Attention
        keeps each row's softmax statistics, not its (32, 4, 250, 250)
        probabilities, so each layer holds 0.5 MB there instead of
        64 MB, and conv1d keeps its input, not its im2col columns."""
        rng = np.random.default_rng(12)
        net = md.SInMTNetwork("baseline", seed=0)
        batch = tr.Batch(rng.normal(size=(32, 4000)) * 0.3,
                         rng.integers(0, 2, size=32), None)
        cfg = tr.TrainConfig()
        opt = ad.OptimizerState.adam(net.params, lr=cfg.learning_rate)
        tracemalloc.start()
        try:
            tr.train_step(net, batch, cfg, opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160e6

    def test_empty_batch_rejected(self):
        net = tiny_network("baseline")
        batch = tr.Batch(np.empty((0, 200)), np.empty(0, dtype=int), None)
        cfg = tr.TrainConfig(mode="baseline")
        opt = ad.OptimizerState.sgd(lr=0.1)
        with pytest.raises(ValueError, match="nonempty"):
            tr.train_step(net, batch, cfg, opt, np.ones(2))


# One spk train_step in a fresh process, recording every gradient; the
# argument is the npz file to write, and an optional second one a CPU to
# pin the process to before numpy loads.
_STEP_GRADIENTS = """
import os, sys
if len(sys.argv) > 2:
    os.sched_setaffinity(0, {int(sys.argv[2])})
import numpy as np
from sinmt import autodiff as ad, model as md, training as tr
grads = {}
def record(params, step_grads, state):
    grads.update((f"B{b}/{k}", v) for k, v in step_grads.items())
ad.optimizer_step = record
for b, n in ((11, 4000), (32, 4000)):
    rng = np.random.default_rng(np.random.SeedSequence([b, n]))
    batch = tr.Batch(waveforms=rng.normal(size=(b, n)) * 0.3,
                     spoof_labels=rng.integers(0, 2, size=b),
                     speaker_labels=rng.integers(0, 20, size=b))
    net = md.SInMTNetwork("spk", n_speakers=20, seed=0)
    tr.train_step(net, batch, tr.TrainConfig(mode="spk"),
                  ad.OptimizerState.sgd(1e-3))
np.savez(sys.argv[1], **grads)
"""


class TestBlasThreads:
    def test_train_step_gradients_ignore_blas_threads_and_affinity(
            self, tmp_path):
        """sinmt runs BLAS on one thread itself, so neither
        ``OPENBLAS_NUM_THREADS`` nor the CPUs a process may use change a
        gradient (conv1d's kernel-gradient GEMM sums in an order that
        depends on the BLAS thread count)."""
        src = str(Path(tr.__file__).parents[1])
        cpu = str(min(os.sched_getaffinity(0)))
        runs = {}
        for label, threads, pin in (("1 thread", "1", []),
                                    ("2 threads", "2", []),
                                    ("2 threads, one CPU", "2", [cpu])):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / f"{threads}{len(pin)}.npz"
            subprocess.run([sys.executable, "-c", _STEP_GRADIENTS, str(out),
                            *pin], env=env, check=True)
            with np.load(out) as data:
                runs[label] = {k: data[k] for k in data.files}
        reference = runs.pop("1 thread")
        assert {k.split("/")[0] for k in reference} == {"B11", "B32"}
        for label, grads in runs.items():
            assert grads.keys() == reference.keys(), label
            differ = [k for k in reference
                      if grads[k].tobytes() != reference[k].tobytes()]
            assert not differ, f"{label}: {differ}"


# ---------------------------------------------------------------------------
# Config and records
# ---------------------------------------------------------------------------


class TestTrainConfig:
    def test_mode_defaults_for_reversal_scale(self):
        assert tr.TrainConfig(mode="baseline").resolved_grl() == 0.0
        assert tr.TrainConfig(mode="spk").resolved_grl() == -1.0
        assert tr.TrainConfig(mode="ivspk").resolved_grl() == 1.0

    def test_cooperative_mode_pins_scale(self):
        cfg = tr.TrainConfig(mode="spk", grl_scale=1.0)
        with pytest.raises(ValueError, match="requires grl_scale == -1"):
            cfg.validate()

    def test_adversarial_mode_needs_positive_scale(self):
        cfg = tr.TrainConfig(mode="ivspk", grl_scale=-0.5)
        with pytest.raises(ValueError, match="> 0"):
            cfg.validate()

    def test_basic_field_validation(self):
        for bad in (tr.TrainConfig(alpha=-0.1),
                    tr.TrainConfig(batch_size=0),
                    tr.TrainConfig(optimizer="rmsprop"),
                    tr.TrainConfig(learning_rate=0.0),
                    tr.TrainConfig(epochs=0),
                    tr.TrainConfig(patience=0),
                    tr.TrainConfig(clip_len=0),
                    tr.TrainConfig(mode="dual"),
                    tr.TrainConfig(spoof_class_weights=(0.0, 0.0))):
            with pytest.raises(ValueError):
                bad.validate()

    @pytest.mark.parametrize("field", ["alpha", "learning_rate",
                                       "grl_scale", "spoof_class_weights"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_value_is_refused(self, field, value):
        if field == "spoof_class_weights":
            value = (1.0, value)
        cfg = tr.TrainConfig(mode="ivspk", **{field: value})
        with pytest.raises(ValueError, match="finite"):
            cfg.validate()

    @pytest.mark.parametrize("mode", ["baseline", "spk"])
    def test_fold_is_an_ivspk_setting(self, mode):
        # on spk the fold would run a reversal of -alpha, which spk refuses
        cfg = tr.TrainConfig(mode=mode, alpha=0.5,
                             fold_alpha_into_lambda=True)
        with pytest.raises(ValueError, match="train.fold_alpha_into_lambda"):
            cfg.validate()
        tr.TrainConfig(mode="ivspk", alpha=0.5,
                       fold_alpha_into_lambda=True).validate()

    def test_default_config_is_valid(self):
        tr.TrainConfig().validate()
        tr.TrainConfig(mode="spk").validate()
        tr.TrainConfig(mode="ivspk", grl_scale=0.5).validate()


class TestInverseFrequencyWeights:
    def test_balanced_labels_give_unit_weights(self):
        w = tr.inverse_frequency_weights([0, 1, 0, 1], 2)
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_imbalanced_labels(self):
        w = tr.inverse_frequency_weights([0, 0, 1], 2)
        # counts (2,1) → raw (1/2, 1) → mean-normalized (2/3, 4/3)
        np.testing.assert_allclose(w, [2.0 / 3.0, 4.0 / 3.0])

    def test_absent_class_gets_max_weight(self):
        w = tr.inverse_frequency_weights([0, 0], 2)
        assert w[1] == w.max()


class TestLossRecordIO:
    def test_line_round_trip(self):
        r = tr.LossRecord(3, 0.123456789012345, 2.5, 0.373456789012345,
                          0.0875, 0.4375)
        back = tr.LossRecord.from_line(r.to_line())
        assert back == r

    def test_history_file_round_trip(self, tmp_path):
        history = [tr.LossRecord(i, 0.5 / i, 2.0 / i, 0.7 / i, 0.3 / i,
                                 0.1 * i) for i in range(1, 4)]
        path = tmp_path / "history.txt"
        tr.write_history(history, path)
        assert tr.read_history(path) == history
        assert (tmp_path / "history.txt").read_text().startswith("# epoch")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="6 fields"):
            tr.LossRecord.from_line("1\t2\t3")


# ---------------------------------------------------------------------------
# The training loop on a small corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_corpus")
    cfg = sd.CorpusConfig(n_speakers=5, utterances_per_speaker=12,
                          n_samples=1000, seed=5)
    manifest = sd.generate_corpus(cfg, out)
    dev = manifest.split_records("dev")
    assert len({r.label for r in dev}) == 2, "fixture needs both dev classes"
    return manifest


@pytest.fixture(scope="module")
def small_ckpts(tmp_path_factory, small_corpus):
    """Compact untrained networks for each mode, saved as warm starts
    so the loop runs a small architecture."""
    out = tmp_path_factory.mktemp("ckpts")
    n_train_speakers = len({r.speaker_id
                            for r in small_corpus.split_records("train")})
    paths = {}
    for mode in ("baseline", "spk", "ivspk"):
        net = tiny_network(mode, seed=7, n_speakers=n_train_speakers)
        paths[mode] = out / f"{mode}.ckpt"
        md.save_checkpoint(net, paths[mode])
    return paths


def small_config(mode, ckpts, **kw):
    defaults = dict(mode=mode, epochs=3, batch_size=8, clip_len=500,
                    learning_rate=1e-2, seed=2,
                    init_checkpoint=str(ckpts[mode]), patience=5)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


class TestTrainLoop:
    def test_seeded_rerun_is_bit_identical(self, small_corpus, small_ckpts):
        a = tr.train(small_config("spk", small_ckpts), small_corpus)
        b = tr.train(small_config("spk", small_ckpts), small_corpus)
        assert a.history == b.history
        for name, value in a.network.params.state().items():
            np.testing.assert_array_equal(value,
                                          b.network.params.state()[name])

    def test_history_and_selection_invariants(self, small_corpus,
                                              small_ckpts):
        res = tr.train(small_config("baseline", small_ckpts), small_corpus)
        assert [r.epoch for r in res.history] == \
            list(range(1, len(res.history) + 1))
        eers = [r.dev_eer for r in res.history]
        assert res.best_dev_eer == min(eers)
        assert res.best_epoch == eers.index(min(eers)) + 1
        for r in res.history:
            assert np.isfinite([r.spoof_loss, r.speaker_loss, r.total_loss,
                                r.dev_eer, r.dev_speaker_accuracy]).all()

    def test_early_stopping_bounds_epochs(self, small_corpus, small_ckpts):
        cfg = small_config("baseline", small_ckpts, epochs=30, patience=2,
                           learning_rate=1e-6)  # too small to improve
        res = tr.train(cfg, small_corpus)
        assert len(res.history) < 30
        stale_run = 0
        best = np.inf
        for r in res.history:
            if r.dev_eer < best:
                best, stale_run = r.dev_eer, 0
            else:
                stale_run += 1
        assert stale_run == 2  # stopped exactly at patience

    def test_alpha_zero_matches_baseline_on_shared_parameters(
            self, small_corpus, small_ckpts):
        # identical seeds: the adversarial run with α=0 must walk the
        # exact same path on the extractor and spoof head
        res_b = tr.train(small_config("baseline", small_ckpts),
                         small_corpus)
        res_i = tr.train(small_config("ivspk", small_ckpts, alpha=0.0),
                         small_corpus)
        state_b = res_b.network.params.state()
        state_i = res_i.network.params.state()
        for name, value in state_b.items():
            group = res_b.network.params.group_of(name)
            assert group in ("extractor", "spoof_head")
            np.testing.assert_array_equal(value, state_i[name],
                                          err_msg=name)

    def test_eval_split_never_read(self, small_corpus, small_ckpts,
                                   tmp_path):
        res_clean = tr.train(small_config("spk", small_ckpts),
                             small_corpus)
        # poison every eval waveform on disk, retrain, compare
        import shutil
        poisoned_dir = tmp_path / "poisoned"
        shutil.copytree(small_corpus.base_dir, poisoned_dir)
        poisoned = sd.read_manifest(poisoned_dir)
        rng = np.random.default_rng(0)
        for r in poisoned.split_records("eval"):
            sd.write_waveform(poisoned.waveform_path(r),
                              rng.normal(size=poisoned.n_samples),
                              poisoned.sample_rate)
        res_poisoned = tr.train(small_config("spk", small_ckpts), poisoned)
        assert res_clean.history == res_poisoned.history
        for name, value in res_clean.network.params.state().items():
            np.testing.assert_array_equal(
                value, res_poisoned.network.params.state()[name])

    def test_holds_at_most_two_batches_of_waveforms(
            self, small_corpus, small_ckpts, monkeypatch):
        """Each utterance is read when its batch is built, so no more
        than two batches of loaded waveforms (the last training batch
        and a dev batch) are alive at once, never the corpus."""
        load = sd.CorpusManifest.load_waveform
        alive = peak = 0

        def release():
            nonlocal alive
            alive -= 1

        def counted_load(manifest, record):
            nonlocal alive, peak
            wav = load(manifest, record)
            alive += 1
            peak = max(peak, alive)
            weakref.finalize(wav, release)
            return wav

        monkeypatch.setattr(sd.CorpusManifest, "load_waveform",
                            counted_load)
        cfg = small_config("spk", small_ckpts, epochs=2)
        tr.train(cfg, small_corpus)
        records = [r for r in small_corpus.records if r.split != "eval"]
        assert len(records) > 2 * cfg.batch_size
        assert 0 < peak <= 2 * cfg.batch_size

    def test_empty_train_split_rejected(self, small_corpus):
        records = [r for r in small_corpus.records if r.split == "eval"]
        manifest = sd.CorpusManifest(
            seed=0, n_speakers=small_corpus.n_speakers,
            utterances_per_speaker=small_corpus.utterances_per_speaker,
            n_samples=small_corpus.n_samples,
            sample_rate=small_corpus.sample_rate,
            attacks=small_corpus.attacks, records=records,
            base_dir=small_corpus.base_dir)
        with pytest.raises(ValueError, match="train split"):
            tr.train(tr.TrainConfig(), manifest)

    def test_warm_start_reproduces_selected_dev_performance(
            self, small_corpus, small_ckpts, tmp_path):
        res_spk = tr.train(small_config("spk", small_ckpts, epochs=4),
                           small_corpus)
        best_path = tmp_path / "spk_best.ckpt"
        md.save_checkpoint(res_spk.network, best_path)

        warm = md.load_checkpoint(best_path, mode="ivspk")
        assert warm.grl_scale == 1.0
        scores = ev.score_split(warm, small_corpus, "dev")
        # the attack-averaged EER is the selection metric
        eer = ev.breakdown_report(scores).mean_eer
        assert eer == pytest.approx(res_spk.best_dev_eer, abs=1e-9)

    def test_returned_network_is_the_selected_one(self, small_corpus,
                                                  small_ckpts):
        cfg = small_config("baseline", small_ckpts, epochs=4)
        res = tr.train(cfg, small_corpus)
        # the run goes on past its best epoch to a worse dev EER, so
        # the last-epoch network would score differently
        assert res.best_epoch < len(res.history)
        assert res.history[-1].dev_eer > res.best_dev_eer
        scores = ev.score_split(res.network, small_corpus, "dev",
                                batch_size=cfg.batch_size)
        assert ev.breakdown_report(scores).mean_eer == res.best_dev_eer

    def test_training_reduces_loss(self, small_corpus, small_ckpts):
        cfg = small_config("baseline", small_ckpts, epochs=6,
                           augment=False, learning_rate=1e-2)
        res = tr.train(cfg, small_corpus)
        assert res.history[-1].spoof_loss < res.history[0].spoof_loss
