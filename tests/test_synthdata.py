"""Tests for the synthetic spoofing corpus generator.

Oracles used here are computed locally and independently of the library:
  * SNR is re-measured from the mixture by subtracting the known clean
    component.
  * Per-frame magnitude preservation is checked with a direct FFT.
  * The bulk pulse-train draw is checked bit for bit against a reference
    synthesis that draws one scalar per value.
  * The learnability check builds its own spectral-template classifier
    from scratch on band-averaged log spectra.

Threshold constants were pinned against the default corpus seed (0)
during development; measured values are noted next to each assertion.
"""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest
from scipy.signal import lfilter

from sinmt import synthdata as sd


def rms(x):
    return float(np.sqrt(np.mean(x * x)))


def measured_snr_db(mixed, clean):
    """Recover the interference as (mixed - clean); report the ratio."""
    interference = mixed - clean
    return 20.0 * np.log10(rms(clean) / rms(interference))


def fresh_rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


class TestSpeakerProfiles:
    def test_profile_is_pure_function_of_seed_and_id(self):
        a = sd.speaker_profile(0, 7, 20)
        b = sd.speaker_profile(0, 7, 20)
        assert a.f0 == b.f0
        np.testing.assert_array_equal(a.filter_taps, b.filter_taps)
        assert a.level == b.level

    def test_f0_stratification_orders_speakers(self):
        f0s = [sd.speaker_profile(0, s, 20).f0 for s in range(1, 21)]
        assert all(80.0 <= f <= 300.0 for f in f0s)
        assert all(f0s[i] < f0s[i + 1] for i in range(19))

    def test_filter_taps_shape_and_normalization(self):
        p = sd.speaker_profile(0, 3, 20)
        assert p.filter_taps.shape == (8,)
        assert np.sum(np.abs(p.filter_taps)) == pytest.approx(1.0, abs=1e-12)
        # the direct tap dominates, keeping the filter well-conditioned
        assert p.filter_taps[0] >= np.max(np.abs(p.filter_taps[1:]))

    def test_out_of_range_speaker_id_rejected(self):
        with pytest.raises(ValueError, match="speaker_id"):
            sd.speaker_profile(0, 21, 20)
        with pytest.raises(ValueError, match="speaker_id"):
            sd.speaker_profile(0, 0, 20)


class TestBonafideSynthesis:
    def test_same_seed_gives_identical_waveform(self):
        p = sd.speaker_profile(0, 5, 20)
        w1 = sd.synthesize_bonafide(p, fresh_rng(0, 2, 17))
        w2 = sd.synthesize_bonafide(p, fresh_rng(0, 2, 17))
        np.testing.assert_array_equal(w1, w2)

    def test_peak_is_exactly_point_nine(self):
        p = sd.speaker_profile(0, 5, 20)
        w = sd.synthesize_bonafide(p, fresh_rng(0, 2, 3))
        assert np.max(np.abs(w)) == pytest.approx(0.9, abs=1e-12)

    def test_length_and_dtype(self):
        p = sd.speaker_profile(0, 1, 20)
        w = sd.synthesize_bonafide(p, fresh_rng(1), n_samples=2048)
        assert w.shape == (2048,)
        assert w.dtype == np.float64

    def test_spectrum_peaks_at_fundamental(self):
        p = sd.speaker_profile(0, 10, 20)
        w = sd.synthesize_bonafide(p, fresh_rng(0, 2, 9))
        mag = np.abs(np.fft.rfft(w))
        # 1 Hz bins at fs=4000, N=4000; strongest harmonic should sit
        # within a couple of bins of k*f0 for some harmonic k.
        peak_hz = float(np.argmax(mag))
        ratios = peak_hz / p.f0
        assert abs(ratios - round(ratios)) * p.f0 < 3.0


def scalar_synthesize_bonafide(profile, rng, n_samples=4000,
                               sample_rate=4000):
    """Reference synthesis drawing its pulse train one scalar at a time:
    a phase, then an amplitude and a period jitter per pulse."""
    x = np.zeros(n_samples)
    period = sample_rate / profile.f0
    pos = rng.uniform(0.0, 1.0) * period
    while pos < n_samples:
        x[int(pos)] = rng.uniform(0.9, 1.1)
        pos += period * rng.uniform(0.98, 1.02)
    x = lfilter([1.0], [1.0, -profile.tilt], x)
    x = lfilter([1.0], [1.0, -profile.tilt], x)
    x = np.convolve(x, profile.filter_taps)[:n_samples]
    envelope = np.zeros(n_samples)
    t = 0.0
    while t < n_samples:
        on = max(int(rng.uniform(0.12, 0.22) * sample_rate), 4)
        off = int(rng.uniform(0.08, 0.18) * sample_rate)
        i0 = int(t)
        window = np.hanning(on)
        seg = min(on, n_samples - i0)
        envelope[i0:i0 + seg] = np.maximum(envelope[i0:i0 + seg],
                                           window[:seg])
        t += on + off
    x = x * envelope
    x *= profile.level / rms(x)
    noise = rng.normal(size=n_samples)
    noise *= (profile.level * 10.0 ** (-45.0 / 20.0)) / rms(noise)
    return sd.peak_normalize(x + noise)


class TestPulseTrainMatchesScalarDraws:
    """The bulk pulse-train draw gives the scalar loop's waveform bits and
    leaves the generator where the scalar loop leaves it."""

    @staticmethod
    def assert_same(profile, entropy, n_samples=4000, sample_rate=4000,
                    predraw=False):
        ours, ref = fresh_rng(*entropy), fresh_rng(*entropy)
        if predraw:
            # as Augmenter.choose_kind does: a bounded integer draw leaves
            # half of a 64-bit output buffered for the next one
            assert ours.integers(0, 5) == ref.integers(0, 5)
            assert ours.bit_generator.state["has_uint32"] == 1
        got = sd.synthesize_bonafide(profile, ours, n_samples, sample_rate)
        want = scalar_synthesize_bonafide(profile, ref, n_samples,
                                          sample_rate)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.integers(0, 5, size=8).tolist() == \
            ref.integers(0, 5, size=8).tolist()

    @pytest.mark.parametrize("predraw", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_every_speaker_of_several_corpora(self, seed, predraw):
        for n_speakers in (4, 20):
            for sid in range(1, n_speakers + 1):
                profile = sd.speaker_profile(seed, sid, n_speakers)
                for utt in range(2):
                    self.assert_same(profile, (seed, 2, sid, utt),
                                     predraw=predraw)

    @pytest.mark.parametrize("predraw", [False, True])
    def test_other_rate_and_length(self, predraw):
        for sid in (1, 10, 20):
            profile = sd.speaker_profile(3, sid, 20)
            self.assert_same(profile, (3, sid), n_samples=2048,
                             sample_rate=8000, predraw=predraw)

    def test_shortest_valid_utterances(self):
        for sid in range(1, 21):
            profile = sd.speaker_profile(2, sid, 20)
            self.assert_same(profile, (2, sid), n_samples=50)
            self.assert_same(profile, (2, sid), n_samples=2,
                             sample_rate=160)


class TestAttacks:
    @pytest.fixture()
    def bona(self):
        p = sd.speaker_profile(0, 4, 20)
        return p, sd.synthesize_bonafide(p, fresh_rng(0, 2, 12))

    def test_phase_randomize_preserves_frame_magnitudes(self, bona):
        _, w = bona
        out = sd.phase_randomize(w, fresh_rng(7), frame_len=256)
        for start in range(0, len(w) - 255, 256):
            m_in = np.abs(np.fft.rfft(w[start:start + 256]))
            m_out = np.abs(np.fft.rfft(out[start:start + 256]))
            np.testing.assert_allclose(m_out, m_in, rtol=1e-9, atol=1e-12)

    def test_phase_randomize_changes_waveform(self, bona):
        _, w = bona
        out = sd.phase_randomize(w, fresh_rng(7))
        assert not np.allclose(out, w)

    def test_bit_crush_limits_distinct_values(self, bona):
        _, w = bona
        out = sd.bit_crush(w, fresh_rng(3), bits=6)
        # Quantized to a step grid: at most 2**6 + 1 distinct levels
        # over [-1, 1] (triangular dither can push two steps past the
        # input range at either end).
        assert len(np.unique(out)) <= 2 ** 6 + 5
        step = 2.0 / 2 ** 6
        np.testing.assert_allclose(out / step, np.round(out / step),
                                   atol=1e-12)

    def test_bit_crush_deterministic_given_rng(self, bona):
        _, w = bona
        a = sd.bit_crush(w, fresh_rng(3))
        b = sd.bit_crush(w, fresh_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_artifact_tone_adds_energy_at_1450_hz(self, bona):
        _, w = bona
        out = sd.artifact_tone(w, fresh_rng(5))
        delta = np.abs(np.fft.rfft(out)) - np.abs(np.fft.rfft(w))
        assert abs(int(np.argmax(delta)) - 1450) <= 1

    def test_artifact_tone_level(self, bona):
        _, w = bona
        out = sd.artifact_tone(w, fresh_rng(5), level_db=-25.0)
        tone = out - w
        # Full-scale reference: the added sine's amplitude is
        # 10**(-25/20), independent of the input signal's energy.
        assert 20 * np.log10(np.max(np.abs(tone))) == pytest.approx(
            -25.0, abs=0.1)

    def test_filter_mismatch_changes_spectral_shape(self, bona):
        p, w = bona
        out = sd.filter_mismatch(w, fresh_rng(11), p.filter_taps,
                                 tap_noise=0.35)
        assert out.shape == w.shape
        assert not np.allclose(out, w)

    def test_apply_attack_renormalizes_peak(self, bona):
        p, w = bona
        for spec in sd.default_attacks():
            out = sd.apply_attack(w, spec, fresh_rng(0, 3, 1), profile=p)
            assert np.max(np.abs(out)) == pytest.approx(0.9, abs=1e-12)

    def test_apply_attack_unknown_kind(self, bona):
        p, w = bona
        bad = sd.AttackSpec("AXX", "time_warp", {})
        with pytest.raises(ValueError, match="time_warp"):
            sd.apply_attack(w, bad, fresh_rng(0), profile=p)

    def test_filter_mismatch_requires_profile(self, bona):
        _, w = bona
        spec = sd.AttackSpec("A02", "filter_mismatch", {"tap_noise": 0.35})
        with pytest.raises(ValueError, match="profile"):
            sd.apply_attack(w, spec, fresh_rng(0), profile=None)


class TestMixing:
    def test_mix_at_snr_hits_target_exactly(self):
        rng = fresh_rng(42)
        clean = rng.normal(size=4000)
        noise = rng.normal(size=4000)
        for target in (0.0, 5.0, 10.0, 15.0):
            mixed = sd.mix_at_snr(clean, noise, target)
            assert measured_snr_db(mixed, clean) == pytest.approx(
                target, abs=1e-9)

    def test_mix_rejects_silent_interference(self):
        clean = np.ones(100)
        with pytest.raises(ValueError):
            sd.mix_at_snr(clean, np.zeros(100), 10.0)

    def test_peak_normalize(self):
        x = np.array([0.1, -0.5, 0.25])
        out = sd.peak_normalize(x)
        assert np.max(np.abs(out)) == pytest.approx(0.9, abs=1e-15)
        np.testing.assert_allclose(out, x * (0.9 / 0.5), rtol=1e-15)

    def test_peak_normalize_rejects_silence(self):
        with pytest.raises(ValueError):
            sd.peak_normalize(np.zeros(10))


class TestAugmenter:
    @pytest.fixture()
    def setup(self):
        aug = sd.Augmenter(corpus_seed=0, n_speakers=20)
        p = sd.speaker_profile(0, 2, 20)
        wav = sd.synthesize_bonafide(p, fresh_rng(0, 2, 4))
        return aug, wav

    def test_choose_kind_uniform_over_five(self, setup):
        aug, _ = setup
        rng = fresh_rng(99)
        counts = {k: 0 for k in sd.AUGMENT_KINDS}
        n = 5000
        for _ in range(n):
            counts[aug.choose_kind(rng)] += 1
        for k, c in counts.items():
            assert abs(c / n - 0.2) < 0.03, (k, c)

    def test_none_is_identity_copy(self, setup):
        aug, wav = setup
        out = aug.augment(wav, "none", fresh_rng(1))
        np.testing.assert_array_equal(out, wav)
        assert out is not wav

    @pytest.mark.parametrize("kind", ["reverb", "speech", "music", "noise"])
    def test_kinds_change_signal_keep_length(self, setup, kind):
        aug, wav = setup
        out = aug.augment(wav, kind, fresh_rng(2), exclude_speaker=2)
        assert out.shape == wav.shape
        assert not np.allclose(out, wav)
        assert np.max(np.abs(out)) == pytest.approx(0.9, abs=1e-12)

    def test_augment_deterministic_given_rng(self, setup):
        aug, wav = setup
        for kind in sd.AUGMENT_KINDS:
            a = aug.augment(wav, kind, fresh_rng(5), exclude_speaker=2)
            b = aug.augment(wav, kind, fresh_rng(5), exclude_speaker=2)
            np.testing.assert_array_equal(a, b)

    def test_unknown_kind_rejected(self, setup):
        aug, wav = setup
        with pytest.raises(ValueError, match="chorus"):
            aug.augment(wav, "chorus", fresh_rng(0))


class TestCropOrPad:
    def test_equal_length_unchanged(self):
        w = np.arange(10.0)
        np.testing.assert_array_equal(sd.crop_or_pad(w, 10), w)

    def test_none_means_full_length(self):
        w = np.arange(10.0)
        np.testing.assert_array_equal(sd.crop_or_pad(w, None), w)

    def test_short_input_repeats_cyclically(self):
        w = np.array([1.0, 2.0, 3.0])
        out = sd.crop_or_pad(w, 7)
        np.testing.assert_array_equal(out, [1, 2, 3, 1, 2, 3, 1])

    def test_crop_is_contiguous_window(self):
        w = np.arange(100.0)
        out = sd.crop_or_pad(w, 40, fresh_rng(8))
        start = int(out[0])
        np.testing.assert_array_equal(out, w[start:start + 40])

    def test_crop_without_rng_starts_at_zero(self):
        w = np.arange(100.0)
        np.testing.assert_array_equal(sd.crop_or_pad(w, 40), w[:40])

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            sd.crop_or_pad(np.ones(5), 0)


class TestWaveformIO:
    def test_round_trip_exact(self, tmp_path):
        w = fresh_rng(1).normal(size=777)
        path = tmp_path / "x.swav"
        sd.write_waveform(path, w, 4000)
        back, rate = sd.read_waveform(path)
        np.testing.assert_array_equal(back, w)
        assert rate == 4000

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.swav"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            sd.read_waveform(path)

    def test_truncated_payload_rejected(self, tmp_path):
        w = np.ones(64)
        path = tmp_path / "x.swav"
        sd.write_waveform(path, w, 4000)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncat"):
            sd.read_waveform(path)


class TestCorpusGeneration:
    def test_record_counts_by_split(self, corpus):
        by_split = {}
        for r in corpus.records:
            by_split[r.split] = by_split.get(r.split, 0) + 1
        assert len(corpus.records) == 800
        assert by_split["eval"] == 160
        assert by_split["train"] + by_split["dev"] == 640
        # seed-pinned draw (dev probability 0.125 over 640)
        assert by_split == {"train": 552, "dev": 88, "eval": 160}

    def test_speaker_disjointness(self, corpus):
        train_spk = set(corpus.speakers("train"))
        eval_spk = set(corpus.speakers("eval"))
        assert train_spk & eval_spk == set()
        assert eval_spk == {17, 18, 19, 20}
        assert set(corpus.speakers("dev")) <= train_spk

    def test_label_attack_consistency(self, corpus):
        for r in corpus.records:
            assert (r.label == "spoof") == (r.attack_id != "bonafide")

    def test_all_attacks_present_per_speaker(self, corpus):
        per = {}
        for r in corpus.records:
            if r.label == "spoof":
                per.setdefault(r.speaker_id, set()).add(r.attack_id)
        for sid, atts in per.items():
            assert atts == {"A01", "A02", "A03", "A04"}, sid

    def test_every_waveform_peak_bounded(self, corpus):
        for r in corpus.records[::37]:  # spot-check a deterministic subset
            w = corpus.load_waveform(r)
            assert np.max(np.abs(w)) <= 0.9 + 1e-12

    def test_refuses_to_clobber_without_force(self, corpus_dir):
        with pytest.raises(FileExistsError):
            sd.generate_corpus(sd.CorpusConfig(), corpus_dir)

    def test_regeneration_is_byte_identical(self, corpus_dir, tmp_path):
        sd.generate_corpus(sd.CorpusConfig(), tmp_path / "again")
        a = (corpus_dir / "manifest.tsv").read_bytes()
        b = (tmp_path / "again" / "manifest.tsv").read_bytes()
        assert a == b
        for rel in ("wav/u001_000.swav", "wav/u010_023.swav",
                    "wav/u020_039.swav"):
            assert (corpus_dir / rel).read_bytes() == \
                (tmp_path / "again" / rel).read_bytes()

    def test_config_validation(self):
        cfg = sd.CorpusConfig(n_speakers=2)
        with pytest.raises(ValueError, match="n_speakers"):
            cfg.validate()
        cfg = sd.CorpusConfig(split_fractions=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="sum to 1"):
            cfg.validate()
        cfg = sd.CorpusConfig(n_samples=49)
        with pytest.raises(ValueError, match="n_samples must be at least 50"):
            cfg.validate()
        cfg = sd.CorpusConfig(n_samples=1, sample_rate=80)
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            cfg.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_values_are_refused(self, value):
        cfg = sd.CorpusConfig(split_fractions=(value, 0.5, 0.5))
        with pytest.raises(ValueError, match="split fractions must be finite"):
            cfg.validate()
        cfg = sd.CorpusConfig(attacks=[sd.AttackSpec(
            "A04", "artifact_tone", {"freq_hz": value})])
        with pytest.raises(ValueError, match="'freq_hz' must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [
        ("n_samples", 4000.5), ("utterances_per_speaker", 2.5),
        ("n_speakers", 5.5), ("sample_rate", 4000.0), ("n_speakers", True)])
    def test_non_integer_count_is_refused_before_writing(self, tmp_path,
                                                         field, value):
        cfg = sd.CorpusConfig(**{field: value})
        with pytest.raises(ValueError,
                           match=f"corpus.{field} must be an integer"):
            cfg.validate()
        with pytest.raises(ValueError, match=f"corpus.{field}"):
            sd.generate_corpus(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_eval_speaker_ids_are_last_fifth(self):
        cfg = sd.CorpusConfig()
        assert cfg.eval_speaker_ids() == {17, 18, 19, 20}
        assert cfg.n_eval_speakers() == 4


class TestManifestIO:
    def test_round_trip(self, corpus, corpus_dir):
        again = sd.read_manifest(corpus_dir)
        assert again.config == corpus.config == sd.CorpusConfig()
        assert len(again.records) == len(corpus.records)
        assert again.records[0] == corpus.records[0]
        assert again.records[-1] == corpus.records[-1]

    def test_every_config_field_round_trips(self, tmp_path):
        changed = {
            "n_speakers": 6, "utterances_per_speaker": 4, "n_samples": 300,
            "sample_rate": 8000, "split_fractions": (0.5, 0.17, 0.33),
            "seed": 5,
            "attacks": [sd.AttackSpec("X1", "bit_crush", {"bits": 4}),
                        sd.AttackSpec("X2", "artifact_tone",
                                      {"freq_hz": 900.5, "level_db": -20.0})],
        }
        # a field added to CorpusConfig is given a non-default value here
        default = sd.CorpusConfig()
        assert set(changed) == {f.name for f in fields(sd.CorpusConfig)}
        for name, value in changed.items():
            assert value != getattr(default, name), name
        config = sd.CorpusConfig(**changed)
        made = sd.generate_corpus(config, tmp_path)
        again = sd.read_manifest(tmp_path)
        assert made.config == again.config == config
        assert again.records == made.records

    def test_manifest_header_is_version_then_config(self, corpus_dir):
        lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
        assert lines[0] == "# sinmt-corpus-v2"
        assert lines[1] == "# corpus=" + json.dumps(
            asdict(sd.CorpusConfig()), sort_keys=True)
        assert lines[2].startswith("# columns:")
        assert not lines[3].startswith("#")

    def test_split_records_all(self, corpus):
        assert len(corpus.split_records("all")) == 800
        with pytest.raises(ValueError, match="split"):
            corpus.split_records("test")

    def test_duplicate_utt_id_rejected(self, corpus_dir, tmp_path):
        text = (corpus_dir / "manifest.tsv").read_text()
        lines = text.splitlines()
        dup = next(i for i, ln in enumerate(lines)
                   if ln and not ln.startswith("#"))
        lines.append(lines[dup])
        bad = tmp_path / "dup"
        bad.mkdir()
        (bad / "manifest.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            sd.read_manifest(bad)

    def test_label_attack_mismatch_rejected(self, corpus_dir, tmp_path):
        text = (corpus_dir / "manifest.tsv").read_text()
        bad_text = text.replace("\tbonafide\tbonafide\t",
                                "\tspoof\tbonafide\t", 1)
        assert bad_text != text
        bad = tmp_path / "mismatch"
        bad.mkdir()
        (bad / "manifest.tsv").write_text(bad_text)
        with pytest.raises(ValueError, match="label"):
            sd.read_manifest(bad)

    def test_unknown_attack_key_names_the_header(self, corpus_dir,
                                                 tmp_path):
        text = (corpus_dir / "manifest.tsv").read_text()
        bad_text = text.replace('"params":', '"parms":', 1)
        assert bad_text != text
        bad = tmp_path / "parms"
        bad.mkdir()
        (bad / "manifest.tsv").write_text(bad_text)
        with pytest.raises(ValueError, match=r"corpus\.attacks\[0\]\.parms"):
            sd.read_manifest(bad)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sd.read_manifest(tmp_path / "nowhere")


class TestCorpusSeparability:
    """Spectral sanity: speakers are far apart, same speaker is coherent."""

    def test_same_speaker_spectra_correlate_more_than_distant(self, corpus):
        rng = fresh_rng(123)
        n_speakers = corpus.config.n_speakers
        profiles = {s: sd.speaker_profile(corpus.config.seed, s, n_speakers)
                    for s in range(1, n_speakers + 1)}
        bona = {}
        for r in corpus.records:
            if r.label == "bonafide":
                bona.setdefault(r.speaker_id, []).append(r)
        log_mag = {}

        def feat(r):
            if r.utt_id not in log_mag:
                w = corpus.load_waveform(r)
                log_mag[r.utt_id] = np.log10(np.abs(np.fft.rfft(w)) + 1e-10)
            return log_mag[r.utt_id]

        same, far = [], []
        for _ in range(50):
            sid = int(rng.integers(1, n_speakers + 1))
            i, j = rng.choice(len(bona[sid]), 2, replace=False)
            fa = feat(bona[sid][i])
            same.append(np.corrcoef(fa, feat(bona[sid][j]))[0, 1])
            distant = [s for s in range(1, n_speakers + 1)
                       if abs(profiles[s].f0 - profiles[sid].f0) > 50.0]
            s2 = int(rng.choice(distant))
            r2 = bona[s2][int(rng.integers(0, len(bona[s2])))]
            far.append(np.corrcoef(fa, feat(r2))[0, 1])
        # measured at the pinned seed: same ~0.78, far ~0.57
        assert np.mean(same) > 0.6
        assert np.mean(same) - np.mean(far) > 0.12


class TestLearnability:
    """Both classification tasks must be solvable by a trivial
    spectral-template classifier built from scratch in this test.

    Features: 25-bin band-averaged log power spectrum, per-utterance
    mean-removed (scale invariant), plus one broadband contrast
    (energy above 1500 Hz relative to total).  Templates: per-speaker
    means over reference bonafide utterances.  Scores: mean squared
    z-score against the template (fine bands) and absolute z of the
    broadband contrast; an utterance is called spoof when either score
    exceeds its threshold (97th percentile of reference bonafide
    scores).  Speaker calls are nearest fine-band template.

    Measured at the pinned corpus seed 0: spoof/bonafide accuracy
    0.909, speaker accuracy 1.000 (requirement: > 0.8 for both).
    """

    BAND = 25
    FLOOR_HZ = 1500.0

    def _features(self, wav, sample_rate):
        power = np.abs(np.fft.rfft(wav)) ** 2
        n = (len(power) // self.BAND) * self.BAND
        fine = np.log10(power[:n].reshape(-1, self.BAND).mean(axis=1)
                        + 1e-20)
        fine = fine - fine.mean()
        k = int(round(self.FLOOR_HZ / sample_rate * len(wav)))
        broad = (np.log10(power[k:].mean() + 1e-20)
                 - np.log10(power.mean() + 1e-20))
        return fine, broad

    def test_template_classifier_clears_both_tasks(self, corpus):
        pool = sorted((r for r in corpus.records
                       if r.split in ("train", "dev")),
                      key=lambda r: r.utt_id)
        feats = {r.utt_id: self._features(corpus.load_waveform(r),
                                          corpus.config.sample_rate)
                 for r in pool}

        def utt_index(r):
            return int(r.utt_id.split("_")[1])

        reference = [r for r in pool if utt_index(r) < 20]
        probe = [r for r in pool if utt_index(r) >= 20]

        fine_by_spk, broad_by_spk = {}, {}
        for r in reference:
            if r.label == "bonafide":
                fine_by_spk.setdefault(r.speaker_id, []).append(
                    feats[r.utt_id][0])
                broad_by_spk.setdefault(r.speaker_id, []).append(
                    feats[r.utt_id][1])
        fine_tmpl = {s: np.mean(v, axis=0) for s, v in fine_by_spk.items()}
        broad_tmpl = {s: float(np.mean(v)) for s, v in broad_by_spk.items()}
        fine_resid = np.concatenate(
            [np.stack(v) - fine_tmpl[s] for s, v in fine_by_spk.items()])
        fine_sigma = fine_resid.std(axis=0) + 1e-6
        broad_resid = np.concatenate(
            [np.asarray(v) - broad_tmpl[s]
             for s, v in broad_by_spk.items()])
        broad_sigma = float(broad_resid.std()) + 1e-6

        def fine_score(r):
            z = (feats[r.utt_id][0] - fine_tmpl[r.speaker_id]) / fine_sigma
            return float(np.mean(z * z))

        def broad_score(r):
            return abs(feats[r.utt_id][1]
                       - broad_tmpl[r.speaker_id]) / broad_sigma

        ref_bona = [r for r in reference if r.label == "bonafide"]
        fine_thr = np.percentile([fine_score(r) for r in ref_bona], 97)
        broad_thr = np.percentile([broad_score(r) for r in ref_bona], 97)

        spoof_correct = 0
        for r in probe:
            called_spoof = (fine_score(r) > fine_thr
                            or broad_score(r) > broad_thr)
            spoof_correct += (called_spoof == (r.label == "spoof"))
        spoof_acc = spoof_correct / len(probe)

        speaker_correct = speaker_total = 0
        for r in probe:
            if r.label != "bonafide":
                continue
            dists = {s: float(np.sum((feats[r.utt_id][0] - t) ** 2))
                     for s, t in fine_tmpl.items()}
            speaker_correct += min(dists, key=dists.get) == r.speaker_id
            speaker_total += 1
        speaker_acc = speaker_correct / speaker_total

        assert spoof_acc > 0.8, f"spoof/bonafide accuracy {spoof_acc:.3f}"
        assert speaker_acc > 0.8, f"speaker accuracy {speaker_acc:.3f}"
