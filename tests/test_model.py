"""Tests for the encoder, pooling heads, network wiring, and checkpoints.

The pooling head is checked against a fully hand-evaluated closed form
and against a numpy reconstruction of its uniform-attention limit; the
gradient paths are checked against sign-flip and blocking arguments that
follow from the reversal layer alone.
"""

import json
import math

import numpy as np
import pytest

from sinmt import autodiff as ad
from sinmt import model as m


def tiny_encoder():
    return m.EncoderConfig(conv_layers=[(8, 4, 2), (8, 3, 2)], model_dim=8,
                           n_transformer_layers=1, n_attention_heads=2,
                           ffn_dim=16, max_frames=64)


def tiny_head():
    return m.MHFAConfig(n_heads=2, key_dim=4, value_dim=4, embedding_dim=6)


def tiny_net(mode="ivspk", n_speakers=3, seed=0, **kw):
    return m.SInMTNetwork(mode=mode, n_speakers=n_speakers,
                          encoder=tiny_encoder(), head=tiny_head(),
                          seed=seed, **kw)


def rewrite_manifest(path, edit):
    """Replace a saved checkpoint's JSON manifest with ``edit(manifest)``,
    keeping its parameter blob."""
    version, mlen, rest = path.read_bytes().split(b"\n", 2)
    manifest = edit(json.loads(rest[:int(mlen)]))
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    path.write_bytes(version + b"\n" + str(len(mbytes)).encode() + b"\n"
                     + mbytes + rest[int(mlen):])


def ce_loss(logits, onehot):
    logp = ad.log_softmax(logits, axis=-1)
    return ad.scale(ad.reduce_sum(ad.mul(logp, ad.Tensor(onehot))),
                    -1.0 / onehot.shape[0])


class TestEncoderConfig:
    def test_default_frame_arithmetic(self):
        cfg = m.EncoderConfig()
        assert cfg.frame_count(4000) == 250
        assert cfg.frame_count(8000) == 500
        assert cfg.receptive_field() == 44

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="divisible"):
            m.EncoderConfig(model_dim=30).validate()
        with pytest.raises(ValueError, match="model_dim"):
            m.EncoderConfig(conv_layers=[(16, 8, 4)]).validate()
        with pytest.raises(ValueError, match="positive"):
            m.EncoderConfig(ffn_dim=0).validate()


class TestEncode:
    def test_default_config_shapes(self):
        net = m.SInMTNetwork(mode="baseline", seed=0)
        w = np.random.default_rng(0).normal(size=(2, 4000)) * 0.1
        stack = net.encode(w)
        assert stack.shape == (3, 2, 250, 32)

    def test_double_length_doubles_frames(self):
        net = m.SInMTNetwork(mode="baseline",
                             encoder=m.EncoderConfig(max_frames=512), seed=0)
        w = np.random.default_rng(1).normal(size=(1, 8000)) * 0.1
        stack = net.encode(w)
        assert stack.shape[1:] == (1, 500, 32)

    def test_too_short_input_names_minimum(self):
        net = m.SInMTNetwork(mode="baseline", seed=0)
        with pytest.raises(ValueError, match="44"):
            net.encode(np.zeros((1, 43)))

    def test_encode_deterministic(self):
        net = tiny_net("baseline")
        w = np.random.default_rng(2).normal(size=(2, 64))
        np.testing.assert_array_equal(net.encode(w).data, net.encode(w).data)

    def test_frame_budget_guard(self):
        cfg = m.EncoderConfig(max_frames=100)
        net = m.SInMTNetwork(mode="baseline", encoder=cfg, seed=0)
        with pytest.raises(ValueError, match="max_frames"):
            net.encode(np.zeros((1, 4000)))

    def test_all_finite_on_finite_input(self):
        net = tiny_net("baseline")
        w = np.random.default_rng(3).normal(size=(3, 80))
        assert np.all(np.isfinite(net.encode(w).data))


class TestMhfaPool:
    def test_hand_evaluated_closed_form(self):
        """Single layer, one head, one key/value dim, hand-chosen weights."""
        ps = ad.ParameterSet()
        ps.add("spoof_head.layer_mix_k", np.zeros(1), "spoof_head")
        ps.add("spoof_head.layer_mix_v", np.zeros(1), "spoof_head")
        ps.add("spoof_head.key_proj", np.array([[2.0]]), "spoof_head")
        ps.add("spoof_head.value_proj", np.array([[3.0]]), "spoof_head")
        ps.add("spoof_head.head_queries", np.array([[0.5]]), "spoof_head")
        ps.add("spoof_head.embed_proj", np.array([[1.5]]), "spoof_head")
        ps.add("spoof_head.cls_w", np.array([[1.0, -1.0]]), "spoof_head")
        ps.add("spoof_head.cls_b", np.array([0.1, -0.2]), "spoof_head")

        stack = ad.Tensor(np.array([[[[1.0], [2.0]]]]))  # L=B=1, T=2, D=1
        emb, logits = m.mhfa_pool(stack, ps, "spoof_head")

        # keys [2, 4] -> attention logits [1, 2] -> weights [1, e]/(1+e)
        e = math.exp(1.0)
        a1, a2 = 1.0 / (1.0 + e), e / (1.0 + e)
        c = a1 * 3.0 + a2 * 6.0
        expected_emb = 1.5 * c
        np.testing.assert_allclose(emb.data, [[expected_emb]], atol=1e-12)
        np.testing.assert_allclose(
            logits.data, [[expected_emb + 0.1, -expected_emb - 0.2]],
            atol=1e-12)

    def test_zero_queries_give_time_mean_pooling(self):
        net = tiny_net("baseline", seed=4)
        net.params["spoof_head.head_queries"].data[:] = 0.0
        w = np.random.default_rng(5).normal(size=(2, 70))
        stack = net.encode(w)
        emb, _ = m.mhfa_pool(stack, net.params, "spoof_head")

        mean_layers = stack.data.sum(axis=0) / stack.shape[0]
        v = mean_layers @ net.params["spoof_head.value_proj"].data
        pooled = v.mean(axis=1)  # uniform attention = time mean
        flat = np.concatenate([pooled] * net.head_config.n_heads, axis=1)
        expected = flat @ net.params["spoof_head.embed_proj"].data
        np.testing.assert_allclose(emb.data, expected, atol=1e-12)

    def test_output_dims_match_config(self):
        net = tiny_net("ivspk", n_speakers=5, seed=6)
        w = np.random.default_rng(7).normal(size=(3, 64))
        out = net.forward(w)
        assert out.spoof_logits.shape == (3, 2)
        assert out.spoof_embedding.shape == (3, 6)
        assert out.speaker_logits.shape == (3, 5)

    def test_layer_count_mismatch_error(self):
        net = tiny_net("baseline", seed=8)
        w = np.random.default_rng(9).normal(size=(1, 64))
        stack = net.encode(w)
        with pytest.raises(ValueError, match="layer"):
            m.mhfa_pool(ad.Tensor(stack.data[:1]), net.params, "spoof_head")


class TestNetworkContract:
    def test_baseline_has_no_speaker_head(self):
        net = tiny_net("baseline")
        assert net.params.group_names("speaker_head") == []
        out = net.forward(np.zeros((1, 64)))
        assert out.speaker_logits is None
        assert out.spoof_logits.shape == (1, 2)

    def test_mode_scale_invariants(self):
        with pytest.raises(ValueError, match="spk"):
            tiny_net("spk", grl_scale=1.0)
        with pytest.raises(ValueError, match="ivspk"):
            tiny_net("ivspk", grl_scale=-1.0)
        with pytest.raises(ValueError, match="ivspk"):
            tiny_net("ivspk", grl_scale=0.0)
        with pytest.raises(ValueError, match="mode"):
            tiny_net("adversarial")
        assert tiny_net("spk").grl_scale == -1.0
        assert tiny_net("ivspk").grl_scale == 1.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_reversal_scale_is_refused(self, value):
        with pytest.raises(ValueError, match="grl_scale must be finite"):
            tiny_net("ivspk", grl_scale=value)

    def test_heads_are_disjoint_and_isomorphic(self):
        net = tiny_net("spk", n_speakers=4)
        spoof = set(net.params.group_names("spoof_head"))
        speaker = set(net.params.group_names("speaker_head"))
        assert spoof.isdisjoint(speaker)
        strip = lambda names: sorted(n.split(".", 1)[1] for n in names)
        assert strip(spoof) == strip(speaker)
        assert net.params["spoof_head.cls_w"].shape[1] == 2
        assert net.params["speaker_head.cls_w"].shape[1] == 4

    def test_shared_init_prefix_across_modes(self):
        """Extractor and spoof head draws must not depend on whether a
        speaker head is built afterwards."""
        base = tiny_net("baseline", seed=11)
        adv = tiny_net("ivspk", seed=11)
        for name in base.params:
            np.testing.assert_array_equal(base.params[name].data,
                                          adv.params[name].data)

    def test_forward_value_independent_of_reversal_scale(self):
        w = np.random.default_rng(13).normal(size=(2, 64))
        out1 = tiny_net("ivspk", seed=12, grl_scale=1.0).forward(w)
        out2 = tiny_net("ivspk", seed=12, grl_scale=2.5).forward(w)
        np.testing.assert_array_equal(out1.spoof_logits.data,
                                      out2.spoof_logits.data)
        np.testing.assert_array_equal(out1.speaker_logits.data,
                                      out2.speaker_logits.data)


class TestGradientPaths:
    def _speaker_grads(self, net, w, yd, grl_scale=None):
        with ad.Tape() as tape:
            out = net.forward(w, grl_scale)
            loss = ce_loss(out.speaker_logits, yd)
        tape.backward(loss)
        return net.params.collect_grads(tape)

    def test_reversal_negates_extractor_gradient_exactly(self):
        net = tiny_net("ivspk", n_speakers=3, seed=21)
        rng = np.random.default_rng(22)
        w = rng.normal(size=(4, 64)) * 0.3
        yd = np.eye(3)[rng.integers(0, 3, size=4)]
        with_grl = self._speaker_grads(net, w, yd)
        without = self._speaker_grads(net, w, yd, grl_scale=-1.0)
        for name in net.params.group_names("extractor"):
            np.testing.assert_allclose(with_grl[name], -without[name],
                                       atol=1e-12, err_msg=name)
        for name in net.params.group_names("speaker_head"):
            np.testing.assert_allclose(with_grl[name], without[name],
                                       atol=1e-15, err_msg=name)

    def test_zero_scale_blocks_extractor_but_not_head(self):
        net = tiny_net("ivspk", n_speakers=3, seed=23)
        rng = np.random.default_rng(24)
        w = rng.normal(size=(3, 64)) * 0.3
        yd = np.eye(3)[rng.integers(0, 3, size=3)]
        grads = self._speaker_grads(net, w, yd, grl_scale=0.0)
        assert net.grl_scale == 1.0
        for name in net.params.group_names("extractor"):
            np.testing.assert_array_equal(grads[name],
                                          np.zeros_like(grads[name]))
        head_norm = sum(np.abs(grads[n]).sum()
                        for n in net.params.group_names("speaker_head"))
        assert head_norm > 0.0

    @pytest.mark.parametrize("mode, n_grl", [("baseline", 0), ("spk", 1),
                                             ("ivspk", 1)])
    def test_one_reversal_node_per_forward(self, mode, n_grl):
        net = tiny_net(mode)
        with ad.Tape() as tape:
            net.forward(np.random.default_rng(29).normal(size=(2, 64)))
        assert sum(node.op == "grl" for node in tape._nodes) == n_grl

    def test_spoof_head_untouched_by_speaker_loss(self):
        net = tiny_net("ivspk", n_speakers=3, seed=25)
        rng = np.random.default_rng(26)
        w = rng.normal(size=(3, 64)) * 0.3
        yd = np.eye(3)[rng.integers(0, 3, size=3)]
        grads = self._speaker_grads(net, w, yd)
        for name in net.params.group_names("spoof_head"):
            np.testing.assert_array_equal(grads[name],
                                          np.zeros_like(grads[name]))

    def test_full_network_gradient_check(self):
        """Every parameter of the two-head network against central
        differences, on the sign-flipped plain objective (the reversal
        branch's extractor gradient equals the gradient of
        Ls - lam*alpha*Ld; verified equal first, then FD-checked)."""
        lam, alpha = 1.0, 0.1
        net = tiny_net("ivspk", n_speakers=3, seed=27)
        rng = np.random.default_rng(28)
        w = rng.normal(size=(2, 64)) * 0.3
        ys = np.eye(2)[rng.integers(0, 2, size=2)]
        yd = np.eye(3)[rng.integers(0, 3, size=2)]

        def reversal_closure():
            out = net.forward(w)
            return ad.add(ce_loss(out.spoof_logits, ys),
                          ad.scale(ce_loss(out.speaker_logits, yd), alpha))

        def flipped_closure():
            out = net.forward(w, grl_scale=-1.0)
            return ad.add(ce_loss(out.spoof_logits, ys),
                          ad.scale(ce_loss(out.speaker_logits, yd),
                                   -lam * alpha))

        with ad.Tape() as t1:
            l1 = reversal_closure()
        t1.backward(l1)
        g1 = net.params.collect_grads(t1)
        with ad.Tape() as t2:
            l2 = flipped_closure()
        t2.backward(l2)
        g2 = net.params.collect_grads(t2)
        for name in net.params.group_names("extractor"):
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

        report = ad.check_gradients(flipped_closure, net.params, seed=1,
                                    coords_per_tensor=8)
        assert report.passed, report.summary()


class TestCheckpoints:
    def test_roundtrip_bit_identical(self, tmp_path):
        net = tiny_net("ivspk", n_speakers=4, seed=31)
        path = tmp_path / "net.ckpt"
        m.save_checkpoint(net, path)
        loaded = m.load_checkpoint(path)
        assert loaded.mode == "ivspk"
        assert loaded.grl_scale == net.grl_scale
        assert len(loaded.params) == len(net.params)
        for name in net.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          net.params[name].data)
            assert loaded.params.group_of(name) == net.params.group_of(name)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        net = tiny_net("spk", n_speakers=4, seed=32)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        m.save_checkpoint(net, p1)
        m.save_checkpoint(m.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_legacy_speaker_loss_weight_key_is_ignored(self, tmp_path):
        # checkpoints written before the field was dropped carry it
        net = tiny_net("spk", n_speakers=4, seed=38)
        path = tmp_path / "legacy.ckpt"
        m.save_checkpoint(net, path)
        rewrite_manifest(path, lambda d: {**d, "speaker_loss_weight": 0.1})
        assert "speaker_loss_weight" in m.read_checkpoint(path)[0]

        loaded = m.load_checkpoint(path)
        assert (loaded.mode, loaded.grl_scale, loaded.n_speakers,
                loaded.seed) == ("spk", -1.0, 4, 38)
        for name in net.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          net.params[name].data)
        resaved = tmp_path / "resaved.ckpt"
        m.save_checkpoint(loaded, resaved)
        assert "speaker_loss_weight" not in m.read_checkpoint(resaved)[0]

    def test_spk_to_ivspk_flip(self, tmp_path):
        net = tiny_net("spk", n_speakers=4, seed=33)
        path = tmp_path / "spk.ckpt"
        m.save_checkpoint(net, path)
        flipped = m.load_checkpoint(path, mode="ivspk")
        assert flipped.mode == "ivspk"
        assert flipped.grl_scale == 1.0
        for name in net.params:
            np.testing.assert_array_equal(flipped.params[name].data,
                                          net.params[name].data)

    def test_baseline_to_multitask_flip(self, tmp_path):
        base = tiny_net("baseline", n_speakers=4, seed=34)
        # perturb away from the seeded init so "copied" and "fresh"
        # are distinguishable
        rng = np.random.default_rng(7)
        for name in base.params:
            base.params[name].data += rng.normal(
                scale=0.05, size=base.params[name].shape)
        path = tmp_path / "b.ckpt"
        m.save_checkpoint(base, path)
        for target, lam in (("spk", -1.0), ("ivspk", 1.0)):
            warm = m.load_checkpoint(path, mode=target)
            assert warm.mode == target
            assert warm.grl_scale == lam
            # shared groups carry the trained values bit for bit
            for name in base.params:
                np.testing.assert_array_equal(warm.params[name].data,
                                              base.params[name].data)
            # the speaker head exists and equals a fresh seeded init
            fresh = tiny_net(target, n_speakers=4, seed=34)
            head_names = [n for n in warm.params
                          if warm.params.group_of(n) == "speaker_head"]
            assert head_names
            for name in head_names:
                np.testing.assert_array_equal(warm.params[name].data,
                                              fresh.params[name].data)

    def test_every_mode_loads_as_every_mode(self, tmp_path):
        for stored in m.MODES:
            # a non-default ivspk scale shows whether λ was kept
            grl = 0.5 if stored == "ivspk" else None
            net = tiny_net(stored, n_speakers=4, seed=34, grl_scale=grl)
            rng = np.random.default_rng(7)
            for name in net.params:
                net.params[name].data += rng.normal(
                    scale=0.05, size=net.params[name].shape)
            path = tmp_path / f"{stored}.ckpt"
            m.save_checkpoint(net, path)
            for target in m.MODES:
                loaded = m.load_checkpoint(path, mode=target)
                assert loaded.mode == target
                assert loaded.grl_scale == (
                    net.grl_scale if target == stored
                    else m.DEFAULT_GRL[target])
                fresh = tiny_net(target, n_speakers=4, seed=34)
                for name in loaded.params:
                    source = net if name in net.params else fresh
                    np.testing.assert_array_equal(
                        loaded.params[name].data, source.params[name].data,
                        err_msg=f"{stored} -> {target}: {name}")
                names = set(loaded.params)
                assert names == set(fresh.params)
                if target == "baseline":
                    assert not any(n.startswith("speaker_head.")
                                   for n in names)

    def test_missing_extractor_parameter_is_refused_in_every_mode(
            self, tmp_path):
        path = tmp_path / "b.ckpt"
        m.save_checkpoint(tiny_net("baseline", n_speakers=4, seed=34), path)
        rewrite_manifest(path, lambda d: {**d, "params": [
            e for e in d["params"] if e["name"] != "extractor.conv0.w"]})
        for target in m.MODES:
            with pytest.raises(ValueError, match="missing parameter in "
                               "state: extractor.conv0.w"):
                m.load_checkpoint(path, mode=target)

    def test_speaker_count_mismatch_names_parameter(self, tmp_path):
        small = tiny_net("spk", n_speakers=4, seed=35)
        path = tmp_path / "d4.ckpt"
        m.save_checkpoint(small, path)
        large = tiny_net("spk", n_speakers=6, seed=35)
        with pytest.raises(ValueError, match="speaker_head.cls_w"):
            large.params.load_state(m.read_checkpoint(path)[1])

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"some-other-format-v9\n10\n0123456789")
        with pytest.raises(ValueError, match="version"):
            m.load_checkpoint(path)

    def test_truncated_blob_detected(self, tmp_path):
        net = tiny_net("baseline", seed=36)
        path = tmp_path / "t.ckpt"
        m.save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            m.load_checkpoint(path)

    @pytest.mark.parametrize("edit, fault", [
        (lambda d: {k: v for k, v in d.items() if k != "mode"}, "'mode'"),
        (lambda d: {k: v for k, v in d.items() if k != "params"},
         "'params'"),
        (lambda d: [d], "not a JSON object"),
        (lambda d: {**d, "encoder": {**d["encoder"], "ffn_dims": 16}},
         "ffn_dims"),
        (lambda d: {**d, "n_speakers": "4"}, "n_speakers must be an integer"),
        (lambda d: {**d, "encoder": {**d["encoder"], "model_dim": "32"}},
         "model_dim must be an integer"),
        (lambda d: {**d, "encoder": {**d["encoder"],
                                     "conv_layers": [["8", 4, 2], [8, 3, 2]]}},
         r"conv_layers\[0\] channels must be an integer"),
        (lambda d: {**d, "head": {**d["head"], "n_heads": "4"}},
         "n_heads must be an integer"),
        (lambda d: {**d, "grl_scale": None}, "grl_scale must be a number"),
    ], ids=["no-mode", "no-params", "list", "unknown-encoder-key",
            "text-n-speakers", "text-model-dim", "text-conv-channels",
            "text-n-heads", "null-grl-scale"])
    def test_malformed_manifest_is_a_value_error(self, tmp_path, edit,
                                                 fault):
        path = tmp_path / "bad.ckpt"
        m.save_checkpoint(tiny_net("spk", seed=39), path)
        rewrite_manifest(path, edit)
        with pytest.raises(ValueError, match=fault):
            m.load_checkpoint(path)

    def test_non_finite_parameters_refused(self, tmp_path):
        net = tiny_net("baseline", seed=37)
        net.params["spoof_head.cls_b"].data[0] = np.nan
        with pytest.raises(ad.NumericsError):
            m.save_checkpoint(net, tmp_path / "nan.ckpt")
