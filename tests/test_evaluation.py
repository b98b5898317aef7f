"""Tests for scoring, EER, reports, and separability analysis.

The EER implementation is checked against a brute-force oracle coded
here from first principles: evaluate FAR/FRR at every midpoint
threshold by explicit counting, then interpolate linearly where
FAR − FRR changes sign. Aggregate fixtures use published benchmark
rows as plain numeric regression data: the mean of each row's four
condition values must reproduce the row's printed aggregate to ±0.01,
and quoted relative reductions must land within 1 percentage point.
"""

import numpy as np
import pytest

from sinmt import evaluation as ev
from sinmt import model as md
from sinmt import synthdata as sd


# ---------------------------------------------------------------------------
# Brute-force EER oracle (independent implementation)
# ---------------------------------------------------------------------------


def oracle_eer(bonafide, spoof):
    scores = sorted(set(list(bonafide) + list(spoof)))
    thresholds = ([scores[0] - 1.0]
                  + [(a + b) / 2.0 for a, b in zip(scores, scores[1:])]
                  + [scores[-1] + 1.0])
    points = []
    for t in thresholds:
        far = sum(1 for s in spoof if s >= t) / len(spoof)
        frr = sum(1 for s in bonafide if s < t) / len(bonafide)
        points.append((far, frr))
    for k, (far, frr) in enumerate(points):
        diff = far - frr
        if diff <= 0.0:
            if diff == 0.0:
                return far
            prev_far, prev_frr = points[k - 1]
            prev_diff = prev_far - prev_frr
            u = prev_diff / (prev_diff - diff)
            return prev_far + u * (far - prev_far)
    raise AssertionError("FAR - FRR never crossed zero")


def make_set(bona_scores, spoof_scores):
    trials = [ev.Trial(f"b{i}", float(s), "bonafide", "bonafide", 1)
              for i, s in enumerate(bona_scores)]
    trials += [ev.Trial(f"s{i}", float(s), "spoof", "A01", 1)
               for i, s in enumerate(spoof_scores)]
    return ev.ScoreSet(trials)


class TestComputeEer:
    def test_perfect_separation_is_zero(self):
        eer, thr = ev.eer_from_arrays([0.9, 0.8], [0.1, 0.2])
        assert eer == 0.0
        assert 0.2 < thr < 0.8

    def test_identical_distributions_give_half(self):
        scores = [0.1, 0.4, 0.7, 0.9]
        eer, _ = ev.eer_from_arrays(scores, scores)
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_identical_distributions_odd_count(self):
        scores = [1.0, 2.0, 3.0]
        eer, _ = ev.eer_from_arrays(scores, scores)
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each class"):
            ev.eer_from_arrays(np.array([1.0]), np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ev.eer_from_arrays(np.array([1.0, np.nan]), np.array([0.0]))

    def test_matches_brute_force_oracle_on_1000_seeded_sets(self):
        rng = np.random.default_rng(20240501)
        for case in range(1000):
            nb = int(rng.integers(2, 40))
            ns = int(rng.integers(2, 40))
            sep = rng.uniform(-1.0, 3.0)
            bona = rng.normal(sep, 1.0, size=nb)
            spoof = rng.normal(0.0, rng.uniform(0.5, 2.0), size=ns)
            got, _ = ev.eer_from_arrays(bona, spoof)
            want = oracle_eer(bona.tolist(), spoof.tolist())
            assert got == pytest.approx(want, abs=1e-9), case

    def test_ties_between_classes(self):
        # repeated equal scores across classes exercise the midpoint
        # handling; the oracle is authoritative
        bona = [0.5, 0.5, 0.7]
        spoof = [0.5, 0.3, 0.5]
        got, _ = ev.eer_from_arrays(np.array(bona), np.array(spoof))
        assert got == pytest.approx(oracle_eer(bona, spoof), abs=1e-12)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(7)
        bona = rng.normal(1.0, 1.0, size=30)
        spoof = rng.normal(0.0, 1.0, size=25)
        base, _ = ev.eer_from_arrays(bona, spoof)
        for f in (lambda x: 3.0 * x + 2.0, np.tanh, lambda x: x ** 3):
            eer, _ = ev.eer_from_arrays(f(bona), f(spoof))
            assert eer == pytest.approx(base, abs=1e-12), f

    def test_threshold_is_an_operating_point(self):
        rng = np.random.default_rng(11)
        bona = rng.normal(2.0, 1.0, size=50)
        spoof = rng.normal(0.0, 1.0, size=50)
        eer, thr = ev.eer_from_arrays(bona, spoof)
        far = np.mean(spoof >= thr)
        frr = np.mean(bona < thr)
        # at the returned threshold both error rates are near the EER
        assert abs(far - eer) < 0.05
        assert abs(frr - eer) < 0.05


class TestBreakdownReport:
    def test_per_attack_vs_pooled(self):
        trials = []
        rng = np.random.default_rng(3)
        for i in range(40):
            trials.append(ev.Trial(f"b{i}", float(rng.normal(2.0, 1.0)),
                                   "bonafide", "bonafide", 1 + i % 4))
        for i in range(30):
            trials.append(ev.Trial(f"e{i}", float(rng.normal(-1.0, 1.0)),
                                   "spoof", "A01", 1 + i % 4))
        for i in range(30):
            trials.append(ev.Trial(f"h{i}", float(rng.normal(1.5, 1.0)),
                                   "spoof", "A02", 1 + i % 4))
        report = ev.breakdown_report(ev.ScoreSet(trials))
        assert set(report.per_attack) == {"A01", "A02"}
        # A01 sits far below bonafide, A02 overlaps heavily
        assert report.per_attack["A01"] < report.per_attack["A02"]
        assert report.mean_eer == pytest.approx(
            (report.per_attack["A01"] + report.per_attack["A02"]) / 2.0)
        assert report.counts == {"bonafide": 40, "A01": 30, "A02": 30}
        # pooled EER is its own statistic: computed over all trials
        pooled, _ = ev.eer_from_arrays(
            [t.score for t in trials if t.label == "bonafide"],
            [t.score for t in trials if t.label == "spoof"])
        assert report.pooled_eer == pooled

    def test_single_attack_pooled_equals_attack_eer(self):
        rng = np.random.default_rng(5)
        s = make_set(rng.normal(1, 1, 20), rng.normal(0, 1, 20))
        report = ev.breakdown_report(s)
        assert report.pooled_eer == report.per_attack["A01"]
        assert report.mean_eer == report.per_attack["A01"]

    def test_missing_expected_attack_warned(self):
        s = make_set([1.0, 2.0], [0.0, -1.0])
        report = ev.breakdown_report(s, expected_attacks=["A01", "A05"])
        assert any("A05" in w for w in report.warnings)
        assert "A05" not in report.per_attack

    def test_render_and_write(self, tmp_path):
        s = make_set([1.0, 2.0], [0.0, -1.0])
        report = ev.breakdown_report(s)
        text = ev.render_report(report)
        assert "pooled EER" in text and "A01" in text
        ev.write_report(report, tmp_path / "report.tsv")
        content = (tmp_path / "report.tsv").read_text()
        assert "pooled_eer\t" in content and "mean_eer\t" in content


class TestAggregateArithmetic:
    # Regression fixtures: (four condition EERs, printed aggregate).
    # The printed aggregate of each row is the arithmetic mean of its
    # four entries, rounded to two decimals.
    TABLE_ROWS = [
        ((7.03, 5.54, 13.66, 9.60), 8.95),
        ((5.69, 3.85, 12.49, 10.40), 8.10),
        ((4.31, 4.64, 12.14, 8.58), 7.41),
        ((3.76, 5.29, 8.67, 8.41), 6.53),
        ((3.58, 4.98, 8.41, 7.57), 6.13),
    ]

    def test_mean_aggregate_reproduces_printed_values(self):
        for values, printed in self.TABLE_ROWS:
            assert np.mean(values) == pytest.approx(printed, abs=0.01), \
                values

    # (baseline EER, improved EER, quoted percentage reduction)
    REDUCTIONS = [
        (7.41, 6.13, 17.2),
        (17.02, 8.76, 48.0),
        (20.77, 12.56, 40.0),
        (12.14, 8.41, 30.7),
        (4.31, 3.58, 17.0),
        (7.41, 6.53, 11.8),
        (7.03, 4.31, 38.7),
    ]

    def test_relative_reduction_reproduces_quoted_values(self):
        for baseline, improved, quoted in self.REDUCTIONS:
            got = ev.relative_reduction(baseline, improved)
            assert got == pytest.approx(quoted, abs=1.0), (baseline,
                                                           improved)

    # One benchmark row reports 13 per-condition EERs whose mean (9.54)
    # differs from its printed pooled value (12.14): the two aggregate
    # definitions are genuinely different statistics and must both be
    # reported rather than conflated.
    THIRTEEN_CONDITIONS = (1.54, 1.91, 0.76, 20.77, 17.02, 3.45, 4.75,
                           3.82, 1.49, 4.32, 7.01, 19.67, 37.57)

    def test_mean_and_pooled_are_distinct_aggregates(self):
        mean_value = float(np.mean(self.THIRTEEN_CONDITIONS))
        assert mean_value == pytest.approx(9.54, abs=0.01)
        pooled_printed = 12.14
        assert abs(mean_value - pooled_printed) > 2.0

    def test_relative_reduction_basics(self):
        assert ev.relative_reduction(5.0, 5.0) == 0.0
        assert ev.relative_reduction(10.0, 5.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            ev.relative_reduction(0.0, 1.0)


class TestSpeakerProbe:
    def test_one_hot_embeddings_are_linearly_separable(self):
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(10), 8)
        emb = np.eye(10)[ids] + 0.01 * rng.normal(size=(80, 10))
        acc = ev.speaker_probe(emb, ids, seed=0)
        assert acc >= 0.99

    def test_noise_embeddings_score_at_chance(self):
        accs = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            ids = np.repeat(np.arange(20), 10)
            emb = rng.normal(size=(200, 16))
            accs.append(ev.speaker_probe(emb, ids, seed=seed))
        mean_acc = float(np.mean(accs))
        assert 0.5 * 0.05 <= mean_acc <= 2.0 * 0.05, accs

    def test_single_speaker_is_trivially_perfect(self):
        emb = np.random.default_rng(0).normal(size=(6, 4))
        assert ev.speaker_probe(emb, np.zeros(6, dtype=int)) == 1.0

    def test_thin_speakers_excluded_with_warning(self):
        rng = np.random.default_rng(2)
        ids = np.array([1, 1, 1, 1, 2, 2, 2, 2, 3])  # speaker 3 has 1 item
        emb = np.eye(3)[ids - 1] + 0.01 * rng.normal(size=(9, 3))
        with pytest.warns(UserWarning, match="fewer than 2"):
            acc = ev.speaker_probe(emb, ids)
        assert acc >= 0.99  # remaining two speakers separate cleanly

    def test_all_excluded_is_an_error(self):
        emb = np.ones((2, 3))
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="2 or more"):
                ev.speaker_probe(emb, np.array([1, 2]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        ids = np.repeat(np.arange(5), 6)
        emb = rng.normal(size=(30, 8))
        a = ev.speaker_probe(emb, ids, seed=3)
        b = ev.speaker_probe(emb, ids, seed=3)
        assert a == b


class TestSilhouette:
    def test_far_apart_duplicated_clusters_score_one(self):
        emb = np.array([[0.0, 0.0]] * 3 + [[100.0, 0.0]] * 3)
        ids = np.array([1, 1, 1, 2, 2, 2])
        assert ev.silhouette(emb, ids) == 1.0

    def test_identical_points_across_clusters_score_zero(self):
        emb = np.zeros((6, 3))
        ids = np.array([1, 1, 1, 2, 2, 2])
        assert ev.silhouette(emb, ids) == 0.0

    def test_permuted_labels_score_near_zero(self):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            emb = rng.normal(size=(200, 8))
            ids = np.repeat(np.arange(10), 20)
            ids = ids[rng.permutation(200)]
            values.append(ev.silhouette(emb, ids))
        assert all(abs(v) < 0.1 for v in values), values

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="2 speakers"):
            ev.silhouette(np.ones((4, 2)), np.array([1, 1, 1, 1]))
        with pytest.raises(ValueError, match=">= 2 points"):
            ev.silhouette(np.ones((3, 2)), np.array([1, 1, 2]))

    def test_range_bounds(self):
        rng = np.random.default_rng(77)
        emb = rng.normal(size=(40, 4))
        ids = np.repeat(np.arange(4), 10)
        v = ev.silhouette(emb, ids)
        assert -1.0 <= v <= 1.0


class TestSeparationLadder:
    """Probe accuracy and silhouette both increase with planted cluster
    separation (0, 2, then 5 units between centers)."""

    def _planted(self, separation, seed=0):
        rng = np.random.default_rng(seed)
        n_clusters, per, dim = 5, 40, 8
        centers = rng.normal(size=(n_clusters, dim))
        centers *= separation / np.maximum(
            np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
        ids = np.repeat(np.arange(n_clusters), per)
        emb = centers[ids] + rng.normal(size=(n_clusters * per, dim))
        return emb, ids

    def test_monotone_in_separation(self):
        probes, sils = [], []
        for sep in (0.0, 2.0, 5.0):
            emb, ids = self._planted(sep, seed=42)
            probes.append(ev.speaker_probe(emb, ids, seed=1))
            sils.append(ev.silhouette(emb, ids))
        assert probes[0] < probes[1] < probes[2], probes
        assert sils[0] < sils[1] < sils[2], sils


class TestScoreFileIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        trials = [ev.Trial(f"u{i}", float(rng.normal()),
                           "bonafide" if i % 2 else "spoof",
                           "bonafide" if i % 2 else "A03", i % 5 + 1)
                  for i in range(20)]
        s = ev.ScoreSet(trials)
        ev.write_scores(s, tmp_path / "scores.tsv")
        back = ev.read_scores(tmp_path / "scores.tsv")
        assert len(back) == len(s)
        for a, b in zip(s.trials, back.trials):
            assert a == b  # 17 significant digits round-trips doubles

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("u1\t0.5\tbonafide\n")
        with pytest.raises(ValueError, match="5 fields"):
            ev.read_scores(p)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            ev.ScoreSet([ev.Trial("u", 0.0, "genuine", "A01", 1)])

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ev.ScoreSet([ev.Trial("u", float("inf"), "spoof", "A01", 1)])


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    """A 4-speaker corpus and an untrained compact network."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    cfg = sd.CorpusConfig(n_speakers=5, utterances_per_speaker=8,
                          n_samples=1000, seed=3)
    manifest = sd.generate_corpus(cfg, out)
    encoder = md.EncoderConfig(conv_layers=[(8, 8, 4), (8, 3, 2)],
                               model_dim=8, n_transformer_layers=1,
                               n_attention_heads=2, ffn_dim=16,
                               max_frames=256)
    head = md.MHFAConfig(n_heads=2, key_dim=4, value_dim=4,
                         embedding_dim=8)
    net = md.SInMTNetwork("spk", n_speakers=4, encoder=encoder, head=head,
                          seed=1)
    return manifest, net


class TestScoringNetworks:
    def test_score_split_fields_and_determinism(self, tiny_setup):
        manifest, net = tiny_setup
        s1 = ev.score_split(net, manifest, "train")
        s2 = ev.score_split(net, manifest, "train")
        assert len(s1) == len(manifest.split_records("train"))
        for a, b in zip(s1.trials, s2.trials):
            assert a == b
        record_ids = {r.utt_id for r in manifest.split_records("train")}
        assert {t.utt_id for t in s1.trials} == record_ids

    def test_score_is_logit_difference(self, tiny_setup):
        manifest, net = tiny_setup
        records = manifest.split_records("dev") or \
            manifest.split_records("train")
        wavs = np.stack([manifest.load_waveform(r) for r in records[:4]])
        out = net.forward(wavs)
        expected = out.spoof_logits.data[:, 0] - out.spoof_logits.data[:, 1]
        scored = ev.score_split(net, manifest, "all")
        by_id = {t.utt_id: t.score for t in scored.trials}
        for r, e in zip(records[:4], expected):
            assert by_id[r.utt_id] == pytest.approx(e, abs=1e-12)

    def test_empty_split_rejected(self, tiny_setup):
        manifest, net = tiny_setup
        with pytest.raises(ValueError, match="split"):
            ev.score_split(net, manifest, "nosuch")


class TestEmbeddingExport:
    def test_row_count_and_round_trip(self, tiny_setup, tmp_path):
        manifest, net = tiny_setup
        path = tmp_path / "emb.tsv"
        n = ev.export_embeddings(net, manifest, "eval", path)
        assert n == len(manifest.split_records("eval"))
        metas, arr = ev.read_embeddings(path)
        assert len(metas) == n
        assert arr.shape == (n, net.head_config.embedding_dim)
        records, expected = ev.embed_split(net, manifest, "eval")
        np.testing.assert_array_equal(arr, expected)  # 17 digits: exact
        assert metas[0][0] == records[0].utt_id

    def test_re_export_byte_identical(self, tiny_setup, tmp_path):
        manifest, net = tiny_setup
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        ev.export_embeddings(net, manifest, "eval", a)
        ev.export_embeddings(net, manifest, "eval", b)
        assert a.read_bytes() == b.read_bytes()


class TestSeparabilityReport:
    def test_report_fields(self, tiny_setup):
        manifest, net = tiny_setup
        rep = ev.separability_report(net, manifest, "all", seed=0)
        assert rep.n_embeddings == len(manifest.split_records("all"))
        assert rep.embedding_dim == net.head_config.embedding_dim
        assert rep.n_speakers == 5
        assert rep.chance_level == pytest.approx(0.2)
        assert 0.0 <= rep.probe_accuracy <= 1.0
        assert -1.0 <= rep.silhouette_score <= 1.0
