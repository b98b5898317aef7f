"""End-to-end acceptance gate: eight numbered criteria, one line each.

Each test prints ``criterion N: PASS ...`` on success (visible with
``pytest -s``) and enforces its own wall-clock budget. Run order
follows the numbering; the directional experiment (criterion 6) is the
long one and owns the ten-minute budget.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import sinmt.autodiff as ad
import sinmt.cli as cli
import sinmt.evaluation as ev
import sinmt.model as m
import sinmt.synthdata as sd
import sinmt.training as tr


def _announce(n, elapsed, detail):
    print(f"criterion {n}: PASS — {detail} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Reversal-layer contract
# ---------------------------------------------------------------------------


def test_criterion_1_reversal_layer_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(410)
    for lam in (-1.0, 0.0, 0.5, 1.0):
        for shape in ((7,), (3, 5), (2, 4, 6)):
            x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
            upstream = rng.normal(size=shape)
            with ad.Tape() as tape:
                y = ad.gradient_reversal(x, lam)
                loss = ad.reduce_sum(ad.mul(y, ad.Tensor(upstream)))
            # forward is the identity, bit for bit
            np.testing.assert_array_equal(y.data, x.data)
            tape.backward(loss)
            got = tape.grad(x)
            # backward is exactly -lambda times the upstream gradient
            np.testing.assert_array_equal(got, -lam * upstream)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _announce(1, elapsed, "reversal forward identity and exact -lambda "
                          "backward for lambda in {-1, 0, 0.5, 1}")


# ---------------------------------------------------------------------------
# 2. Whole-network gradient check
# ---------------------------------------------------------------------------


def test_criterion_2_full_network_gradient_check():
    t0 = time.monotonic()
    lam, alpha = 1.0, 0.1
    net = m.SInMTNetwork("ivspk", n_speakers=5, grl_scale=lam, seed=41)
    rng = np.random.default_rng(42)
    waves = rng.normal(size=(2, 320)) * 0.3
    spoof_labels = np.array([0, 1])
    speaker_labels = np.array([2, 4])
    weights2 = np.ones(2)
    weights5 = np.ones(5)

    # The reversal layer makes the training step follow the gradient of
    # Ls - lambda*alpha*Ld on the extractor; finite differences compare
    # against exactly that composite objective with the reversal layer a
    # pass-through (scale -1 multiplies gradients by 1.0).
    def flipped_closure():
        out = net.forward(waves, grl_scale=-1.0)
        ls = tr.weighted_cross_entropy(out.spoof_logits, spoof_labels,
                                       weights2)
        ld = tr.weighted_cross_entropy(out.speaker_logits, speaker_labels,
                                       weights5)
        return ad.add(ls, ad.scale(ld, -lam * alpha))

    report = ad.check_gradients(flipped_closure, net.params, eps=1e-5,
                                seed=43)
    assert report.max_rel_err < 1e-5, report.summary()
    assert report.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _announce(2, elapsed, f"finite-difference check over the full network, "
                          f"max rel err {report.max_rel_err:.2e} < 1e-5")


# ---------------------------------------------------------------------------
# 3. Update-rule conformance
# ---------------------------------------------------------------------------


def _fresh_tiny(mode, seed, lam):
    enc = m.EncoderConfig(conv_layers=((8, 8, 4), (8, 3, 2)), model_dim=8,
                          n_transformer_layers=1, n_attention_heads=2,
                          ffn_dim=16, max_frames=256)
    head = m.MHFAConfig(n_heads=2, key_dim=4, value_dim=4,
                        embedding_dim=8)
    return m.SInMTNetwork(mode, n_speakers=4, encoder=enc, head=head,
                          grl_scale=lam, seed=seed)


def _two_backward_grads(net, batch, alpha):
    """Oracle: separate backward passes for each loss, with the reversal
    layer a pass-through (scale -1)."""
    with ad.Tape() as t1:
        out = net.forward(batch.waveforms, grl_scale=-1.0)
        ls = tr.weighted_cross_entropy(out.spoof_logits, batch.spoof_labels,
                                       np.ones(2))
    t1.backward(ls)
    gs = net.params.collect_grads(t1)
    with ad.Tape() as t2:
        out = net.forward(batch.waveforms, grl_scale=-1.0)
        ld = tr.weighted_cross_entropy(out.speaker_logits,
                                       batch.speaker_labels, np.ones(4))
    t2.backward(ld)
    gd = net.params.collect_grads(t2)
    return gs, gd


def test_criterion_3_update_rule_conformance():
    t0 = time.monotonic()
    rng = np.random.default_rng(300)
    waves = rng.normal(size=(6, 400)) * 0.3
    batch = tr.Batch(waveforms=waves,
                     spoof_labels=rng.integers(0, 2, size=6),
                     speaker_labels=rng.integers(0, 4, size=6))
    mu, alpha = 1e-2, 0.1

    for mode, lam in (("ivspk", 1.0), ("spk", -1.0)):
        stepped = _fresh_tiny(mode, seed=77, lam=lam)
        oracle = _fresh_tiny(mode, seed=77, lam=lam)
        for name in stepped.params:
            np.testing.assert_array_equal(stepped.params[name].data,
                                          oracle.params[name].data)

        cfg = tr.TrainConfig(mode=mode, alpha=alpha, optimizer="sgd",
                             learning_rate=mu, batch_size=6, epochs=1)
        tr.train_step(stepped, batch, cfg, ad.OptimizerState.sgd(lr=mu),
                      spoof_weights=np.ones(2), speaker_weights=np.ones(4))

        gs, gd = _two_backward_grads(oracle, batch, alpha)
        combo = {}
        for name in oracle.params:
            if oracle.params.group_of(name) == "extractor":
                # theta_f <- theta_f - mu*(dLs - lambda*alpha*dLd)
                combo[name] = gs[name] - lam * alpha * gd[name]
            elif oracle.params.group_of(name) == "speaker_head":
                combo[name] = alpha * gd[name]
            else:
                combo[name] = gs[name]
        ad.optimizer_step(oracle.params, combo, ad.OptimizerState.sgd(mu))

        for name in oracle.params:
            diff = np.max(np.abs(stepped.params[name].data
                                 - oracle.params[name].data))
            assert diff <= 1e-12, (mode, name, diff)

    # cooperative mode (lambda = -1) must equal a plain multi-task step
    stepped = _fresh_tiny("spk", seed=99, lam=-1.0)
    plain = _fresh_tiny("spk", seed=99, lam=-1.0)
    cfg = tr.TrainConfig(mode="spk", alpha=alpha, optimizer="sgd",
                         learning_rate=mu, batch_size=6, epochs=1)
    tr.train_step(stepped, batch, cfg, ad.OptimizerState.sgd(lr=mu),
                  spoof_weights=np.ones(2), speaker_weights=np.ones(4))
    with ad.Tape() as tape:
        out = plain.forward(batch.waveforms, grl_scale=-1.0)
        ls = tr.weighted_cross_entropy(out.spoof_logits, batch.spoof_labels,
                                       np.ones(2))
        ld = tr.weighted_cross_entropy(out.speaker_logits,
                                       batch.speaker_labels, np.ones(4))
        total = ad.add(ls, ad.scale(ld, alpha))
    tape.backward(total)
    ad.optimizer_step(plain.params, plain.params.collect_grads(tape),
                      ad.OptimizerState.sgd(mu))
    for name in plain.params:
        diff = np.max(np.abs(stepped.params[name].data
                             - plain.params[name].data))
        assert diff <= 1e-12, (name, diff)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _announce(3, elapsed, "single step equals the two-backward oracle and "
                          "cooperative mode equals plain multi-task, "
                          "diff <= 1e-12")


# ---------------------------------------------------------------------------
# 4. Equal-error-rate oracle
# ---------------------------------------------------------------------------


def _sweep_eer(bonafide, spoof):
    """Exhaustive threshold sweep with linear interpolation at the
    FAR - FRR sign change (independent re-derivation)."""
    values = sorted(set(list(bonafide) + list(spoof)))
    thresholds = ([values[0] - 1.0]
                  + [(a + b) / 2.0 for a, b in zip(values, values[1:])]
                  + [values[-1] + 1.0])
    points = []
    for t in thresholds:
        far = np.mean(spoof >= t)
        frr = np.mean(bonafide < t)
        points.append((far, frr))
    for k, (far, frr) in enumerate(points):
        diff = far - frr
        if diff <= 0.0:
            if diff == 0.0:
                return far
            pfar, pfrr = points[k - 1]
            pdiff = pfar - pfrr
            u = pdiff / (pdiff - diff)
            return pfar + u * (far - pfar)
    raise AssertionError("FAR - FRR never crossed zero")


def test_criterion_4_eer_matches_sweep_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(4000)
    for case in range(1000):
        nb = int(rng.integers(1, 60))
        ns = int(rng.integers(1, 60))
        sep = rng.uniform(-1.0, 2.0)
        bona = rng.normal(loc=sep, size=nb)
        spoof = rng.normal(size=ns)
        if case % 3 == 0:  # force ties
            bona = np.round(bona, 1)
            spoof = np.round(spoof, 1)
        got, _ = ev.eer_from_arrays(bona, spoof)
        want = _sweep_eer(bona, spoof)
        assert abs(got - want) <= 1e-9, (case, got, want)

    perfect, _ = ev.eer_from_arrays(np.array([5.0, 6.0, 7.0]),
                                    np.array([1.0, 2.0, 3.0]))
    assert perfect == 0.0
    same = np.array([1.0, 2.0, 3.0, 4.0])
    identical, _ = ev.eer_from_arrays(same, same.copy())
    assert identical == 0.5

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _announce(4, elapsed, "1000 random score sets match the sweep oracle "
                          "within 1e-9; edge cases exact")


# ---------------------------------------------------------------------------
# 5. Published-benchmark arithmetic fixtures
# ---------------------------------------------------------------------------


TABLE_ROWS = [
    ((7.03, 5.54, 13.66, 9.60), 8.95),
    ((5.69, 3.85, 12.49, 10.40), 8.10),
    ((4.31, 4.64, 12.14, 8.58), 7.41),
    ((3.76, 5.29, 8.67, 8.41), 6.53),
    ((3.58, 4.98, 8.41, 7.57), 6.13),
]

REDUCTIONS = [
    (7.41, 6.13, 17.2),
    (17.02, 8.76, 48.0),
    (20.77, 12.56, 40.0),
    (12.14, 8.41, 30.7),
    (4.31, 3.58, 17.0),
]

THIRTEEN_CONDITIONS = (1.54, 1.91, 0.76, 20.77, 17.02, 3.45, 4.75,
                       3.82, 1.49, 4.32, 7.01, 19.67, 37.57)


def test_criterion_5_benchmark_arithmetic_fixtures():
    t0 = time.monotonic()
    for values, printed in TABLE_ROWS:
        assert np.mean(values) == pytest.approx(printed, abs=0.01), values
    for baseline, improved, quoted in REDUCTIONS:
        got = ev.relative_reduction(baseline, improved)
        assert got == pytest.approx(quoted, abs=1.0), (baseline, improved)
    # the mean of per-condition rates and the pooled rate are different
    # statistics: the published row where they diverge stays divergent
    mean_value = float(np.mean(THIRTEEN_CONDITIONS))
    assert mean_value == pytest.approx(9.54, abs=0.01)
    assert abs(mean_value - 12.14) > 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _announce(5, elapsed, "aggregate means, relative reductions, and the "
                          "mean-vs-pooled divergence all reproduce")


# ---------------------------------------------------------------------------
# 6. Directional experiment: three modes on the default corpus
# ---------------------------------------------------------------------------


# The reference recipe, one config per stage, as scripts/run_demo.sh
# runs it (README, "Reference recipe").
RECIPE = Path(__file__).resolve().parents[1] / "scripts" / "recipe"
CASCADE = (("baseline", None), ("spk", "baseline"), ("ivspk", "spk"))


def _eval_pooled(network, manifest):
    return ev.breakdown_report(ev.score_split(network, manifest,
                                              "eval")).pooled_eer


def test_criterion_6_directional_experiment(corpus_dir, corpus, tmp_path):
    t0 = time.monotonic()
    manifest = corpus

    for stage, parent in CASCADE:
        init = ["--init", str(tmp_path / parent / "best.ckpt")] \
            if parent else []
        assert cli.main(["train", "--config", str(RECIPE / f"{stage}.json"),
                         "--corpus", str(corpus_dir),
                         "--out", str(tmp_path / stage), *init]) == 0, stage
    base_net, spk_net, iv_net = [
        m.load_checkpoint(tmp_path / stage / "best.ckpt")
        for stage, _ in CASCADE]

    eers = {"baseline": _eval_pooled(base_net, manifest),
            "spk": _eval_pooled(spk_net, manifest),
            "ivspk": _eval_pooled(iv_net, manifest)}
    for mode, eer in eers.items():
        assert eer < 0.15, f"{mode} eval EER {eer:.3f} >= 0.15 ({eers})"

    spk_sep = ev.separability_report(spk_net, manifest, "all", seed=0)
    iv_sep = ev.separability_report(iv_net, manifest, "all", seed=0)
    assert iv_sep.probe_accuracy < 0.5 * spk_sep.probe_accuracy, \
        (iv_sep.probe_accuracy, spk_sep.probe_accuracy)
    assert iv_sep.silhouette_score < spk_sep.silhouette_score, \
        (iv_sep.silhouette_score, spk_sep.silhouette_score)
    assert spk_sep.probe_accuracy >= 3.0 * spk_sep.chance_level, \
        (spk_sep.probe_accuracy, spk_sep.chance_level)

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _announce(6, elapsed,
              f"eval EERs {eers['baseline']:.3f}/{eers['spk']:.3f}/"
              f"{eers['ivspk']:.3f} all < 0.15; probe "
              f"{iv_sep.probe_accuracy:.2f} < 0.5*{spk_sep.probe_accuracy:.2f}; "
              f"silhouette {iv_sep.silhouette_score:.3f} < "
              f"{spk_sep.silhouette_score:.3f}; speaker probe >= 3x chance")


# ---------------------------------------------------------------------------
# 7. Determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_7_determinism_and_persistence(corpus, tmp_path):
    t0 = time.monotonic()
    manifest = corpus
    enc = m.EncoderConfig(conv_layers=((8, 8, 4), (8, 3, 2)), model_dim=8,
                          n_transformer_layers=1, n_attention_heads=2,
                          ffn_dim=16, max_frames=512)
    head = m.MHFAConfig(n_heads=2, key_dim=4, value_dim=4,
                        embedding_dim=8)

    def one_run(tag):
        cfg = tr.TrainConfig(mode="spk", epochs=2, batch_size=16,
                             clip_len=500, learning_rate=1e-3, seed=3)
        net = tr.train(cfg, manifest, encoder=enc, head=head).network
        ckpt = tmp_path / f"{tag}.ckpt"
        m.save_checkpoint(net, ckpt)
        scores = tmp_path / f"{tag}.scores"
        ev.write_scores(ev.score_split(net, manifest, "eval"), scores)
        emb = tmp_path / f"{tag}.emb"
        ev.export_embeddings(net, manifest, "dev", emb)
        return ckpt, scores, emb

    first = one_run("a")
    second = one_run("b")
    for fa, fb in zip(first, second):
        assert fa.read_bytes() == fb.read_bytes(), (fa, fb)

    # save -> load -> save round trip is bit-identical
    loaded = m.load_checkpoint(first[0])
    resaved = tmp_path / "resaved.ckpt"
    m.save_checkpoint(loaded, resaved)
    assert resaved.read_bytes() == first[0].read_bytes()

    # the two-stage warm start copies every parameter group unchanged
    warm = m.load_checkpoint(first[0], mode="ivspk")
    assert warm.mode == "ivspk" and warm.grl_scale == 1.0
    orig = m.load_checkpoint(first[0])
    assert set(warm.params) == set(orig.params)
    for name in orig.params:
        np.testing.assert_array_equal(warm.params[name].data,
                                      orig.params[name].data)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _announce(7, elapsed, "reruns byte-identical (checkpoint, scores, "
                          "embeddings); round trip exact; warm start "
                          "copies all groups")


# ---------------------------------------------------------------------------
# 8. Corpus sanity
# ---------------------------------------------------------------------------


def test_criterion_8_corpus_sanity(tmp_path):
    t0 = time.monotonic()
    cfg = sd.CorpusConfig(n_speakers=8, utterances_per_speaker=6,
                          n_samples=2000, seed=11)
    man_a = sd.generate_corpus(cfg, tmp_path / "a")
    man_b = sd.generate_corpus(cfg, tmp_path / "b")

    text_a = (tmp_path / "a" / sd.MANIFEST_NAME).read_text()
    text_b = (tmp_path / "b" / sd.MANIFEST_NAME).read_text()
    assert text_a.replace(str(tmp_path / "a"), "") \
        == text_b.replace(str(tmp_path / "b"), "")
    for ra, rb in zip(man_a.records, man_b.records):
        assert man_a.waveform_path(ra).read_bytes() \
            == man_b.waveform_path(rb).read_bytes()

    train_speakers = {r.speaker_id for r in man_a.split_records("train")}
    eval_speakers = {r.speaker_id for r in man_a.split_records("eval")}
    assert train_speakers.isdisjoint(eval_speakers)

    attack_ids = {a.attack_id for a in man_a.attacks}
    for r in man_a.records:
        if r.label == "bonafide":
            assert r.attack_id == "bonafide"
        else:
            assert r.attack_id in attack_ids

    # augmentation mixing hits the requested level
    profile = sd.speaker_profile(11, 2, 8)
    rng = np.random.default_rng(88)
    clean = sd.synthesize_bonafide(profile, rng, n_samples=2000)
    noise = rng.normal(size=2000)
    for target in (0.0, 5.0, 10.0, 15.0):
        mixed = sd.mix_at_snr(clean, noise, target)
        resid = mixed - clean
        got = 20.0 * np.log10(np.sqrt(np.mean(clean ** 2))
                              / np.sqrt(np.mean(resid ** 2)))
        assert abs(got - target) <= 0.5, (target, got)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _announce(8, elapsed, "regeneration byte-identical; split speakers "
                          "disjoint; labels match attacks; mixing SNR "
                          "within 0.5 dB")
