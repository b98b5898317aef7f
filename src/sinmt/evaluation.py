"""Scoring and analysis: EER, per-attack breakdowns, and embedding
separability probes.

Scores are bonafide log-likelihood-ratio style: higher means more
bonafide. The spoof head orders its classes (bonafide, spoof), so the
score of an utterance is simply logit[bonafide] − logit[spoof].

Two aggregate EERs are always reported side by side because they answer
different questions and can differ a lot:
  * pooled EER — one threshold sweep over all trials together;
  * mean EER  — the arithmetic mean of the per-attack EERs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

SPOOF_CLASS_ORDER = ("bonafide", "spoof")
BONAFIDE, SPOOF = SPOOF_CLASS_ORDER


# ---------------------------------------------------------------------------
# Score sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    utt_id: str
    score: float
    label: str
    attack_id: str
    speaker_id: int


class ScoreSet:
    """A bag of scored trials with both classes' scores addressable."""

    def __init__(self, trials):
        trials = list(trials)
        for t in trials:
            if t.label not in SPOOF_CLASS_ORDER:
                raise ValueError(f"unknown label {t.label!r} on {t.utt_id}")
            if not np.isfinite(t.score):
                raise ValueError(f"non-finite score on {t.utt_id}")
        self.trials = trials

    def __len__(self):
        return len(self.trials)


def write_scores(score_set: ScoreSet, path) -> None:
    lines = []
    for t in score_set.trials:
        lines.append(f"{t.utt_id}\t{t.score:.17g}\t{t.label}"
                     f"\t{t.attack_id}\t{t.speaker_id}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path) -> ScoreSet:
    trials = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, "
                             f"got {len(parts)}")
        utt_id, score, label, attack_id, speaker_id = parts
        trials.append(Trial(utt_id, float(score), label, attack_id,
                            int(speaker_id)))
    return ScoreSet(trials)


# ---------------------------------------------------------------------------
# Equal error rate
# ---------------------------------------------------------------------------


def eer_from_arrays(bonafide: np.ndarray, spoof: np.ndarray):
    """EER via threshold sweep at score midpoints with linear
    interpolation at the FAR/FRR sign change.

    FAR(t) = fraction of spoof scored >= t (falsely accepted);
    FRR(t) = fraction of bonafide scored < t (falsely rejected).
    FAR decreases and FRR increases in t, so FAR − FRR crosses zero
    once; the crossing value is the EER.
    """
    bonafide = np.asarray(bonafide, dtype=np.float64)
    spoof = np.asarray(spoof, dtype=np.float64)
    if bonafide.size == 0 or spoof.size == 0:
        raise ValueError("EER needs at least one trial of each class")
    if not (np.isfinite(bonafide).all() and np.isfinite(spoof).all()):
        raise ValueError("scores must be finite")

    uniq = np.unique(np.concatenate([bonafide, spoof]))
    thresholds = np.concatenate([
        [uniq[0] - 1.0],
        (uniq[:-1] + uniq[1:]) / 2.0,
        [uniq[-1] + 1.0],
    ])
    spoof_sorted = np.sort(spoof)
    bona_sorted = np.sort(bonafide)
    far = 1.0 - np.searchsorted(spoof_sorted, thresholds,
                                side="left") / spoof.size
    frr = np.searchsorted(bona_sorted, thresholds,
                          side="left") / bonafide.size
    diff = far - frr

    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return float(far[k]), float(thresholds[k])
    # linear interpolation between operating points k-1 and k
    u = diff[k - 1] / (diff[k - 1] - diff[k])
    eer = far[k - 1] + u * (far[k] - far[k - 1])
    thr = thresholds[k - 1] + u * (thresholds[k] - thresholds[k - 1])
    return float(eer), float(thr)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    per_attack: dict
    pooled_eer: float
    mean_eer: float
    counts: dict
    warnings: list = field(default_factory=list)


def breakdown_report(scores: ScoreSet, expected_attacks=None) -> EvalReport:
    """Per-attack EERs (each against the full bonafide set), the pooled
    EER over all trials, and the mean of the per-attack EERs."""
    trials = scores.trials
    score = np.array([t.score for t in trials], dtype=np.float64)
    is_bonafide = np.array([t.label == BONAFIDE for t in trials], dtype=bool)
    bonafide, spoof = score[is_bonafide], score[~is_bonafide]
    spoof_attack = np.array([t.attack_id for t in trials],
                            dtype=object)[~is_bonafide]
    attacks = sorted(set(spoof_attack.tolist()))
    counts = {BONAFIDE: int(is_bonafide.sum())}
    warn = [f"attack {a} has zero trials; omitted"
            for a in expected_attacks or () if a not in attacks]
    per_attack = {}
    for a in attacks:
        attack_spoof = spoof[spoof_attack == a]
        counts[a] = int(attack_spoof.size)
        per_attack[a], _ = eer_from_arrays(bonafide, attack_spoof)
    pooled, _ = eer_from_arrays(bonafide, spoof)
    mean = float(np.mean(list(per_attack.values())))
    return EvalReport(per_attack=per_attack, pooled_eer=pooled,
                      mean_eer=mean, counts=counts, warnings=warn)


def relative_reduction(baseline_eer: float, new_eer: float) -> float:
    """Percentage drop from baseline: 100·(baseline − new)/baseline."""
    if baseline_eer <= 0.0:
        raise ValueError("baseline EER must be positive")
    return 100.0 * (baseline_eer - new_eer) / baseline_eer


def render_report(report: EvalReport) -> str:
    """The EER table; the report's warnings are not part of it."""
    out = ["condition        EER      trials"]
    for a, eer in sorted(report.per_attack.items()):
        out.append(f"{a:<14s} {eer:7.4f} {report.counts.get(a, 0):7d}")
    out.append(f"{'bonafide':<14s} {'-':>7s} "
               f"{report.counts.get(BONAFIDE, 0):7d}")
    out.append(f"{'pooled EER':<14s} {report.pooled_eer:7.4f}")
    out.append(f"{'mean EER':<14s} {report.mean_eer:7.4f}")
    return "\n".join(out)


def write_report(report: EvalReport, path) -> None:
    """Machine-readable key<TAB>value lines."""
    lines = [f"pooled_eer\t{report.pooled_eer:.17g}",
             f"mean_eer\t{report.mean_eer:.17g}"]
    for a, eer in sorted(report.per_attack.items()):
        lines.append(f"attack_eer\t{a}\t{eer:.17g}\t{report.counts[a]}")
    lines.append(f"bonafide_trials\t{report.counts.get(BONAFIDE, 0)}")
    for w in report.warnings:
        lines.append(f"warning\t{w}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Separability of speaker identity in embeddings
# ---------------------------------------------------------------------------


@dataclass
class SeparabilityReport:
    probe_accuracy: float
    chance_level: float
    silhouette_score: float
    n_embeddings: int
    embedding_dim: int
    n_speakers: int


def speaker_probe(embeddings, speaker_ids, seed: int = 0) -> float:
    """Held-out accuracy of a multinomial linear probe on frozen
    embeddings: split each speaker's items in half (seed-pinned),
    fit softmax regression by 500 steps of full-batch gradient descent
    at rate 0.1, report accuracy on the held-out halves."""
    X = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(speaker_ids)
    if X.ndim != 2 or len(ids) != X.shape[0]:
        raise ValueError("embeddings must be M×d with one speaker id per row")

    uniq, counts = np.unique(ids, return_counts=True)
    thin = uniq[counts < 2]
    if thin.size:
        warnings.warn(f"excluding {thin.size} speaker(s) with fewer than "
                      f"2 embeddings: {thin.tolist()}")
        keep = ~np.isin(ids, thin)
        X, ids = X[keep], ids[keep]
        uniq = np.unique(ids)
    if uniq.size == 0:
        raise ValueError("no speaker has 2 or more embeddings")
    if uniq.size == 1:
        return 1.0

    class_of = {s: i for i, s in enumerate(uniq.tolist())}
    y = np.array([class_of[s] for s in ids.tolist()])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    train_idx, test_idx = [], []
    for c in range(uniq.size):
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(members.size)]
        n_train = (members.size + 1) // 2
        train_idx.extend(members[:n_train].tolist())
        test_idx.extend(members[n_train:].tolist())
    train_idx = np.array(sorted(train_idx))
    test_idx = np.array(sorted(test_idx))

    Xtr, ytr = X[train_idx], y[train_idx]
    Xte, yte = X[test_idx], y[test_idx]
    n, d = Xtr.shape
    C = uniq.size
    W = np.zeros((d, C))
    b = np.zeros(C)
    onehot = np.zeros((n, C))
    onehot[np.arange(n), ytr] = 1.0
    for _ in range(500):
        logits = Xtr @ W + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        W -= 0.1 * (Xtr.T @ g)
        b -= 0.1 * g.sum(axis=0)
    pred = np.argmax(Xte @ W + b, axis=1)
    return float(np.mean(pred == yte))


def silhouette(embeddings, speaker_ids) -> float:
    """Mean silhouette with Euclidean distance.

    s_i = (b_i − a_i)/max(a_i, b_i) with a_i the mean distance to the
    point's own cluster (excluding itself) and b_i the smallest mean
    distance to any other cluster; s_i = 0 when a_i = b_i = 0.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(speaker_ids)
    if X.ndim != 2 or len(ids) != X.shape[0]:
        raise ValueError("embeddings must be M×d with one speaker id per row")
    uniq, counts = np.unique(ids, return_counts=True)
    if uniq.size < 2:
        raise ValueError("silhouette needs at least 2 speakers")
    if (counts < 2).any():
        small = uniq[counts < 2].tolist()
        raise ValueError(f"every speaker needs >= 2 points; too few for "
                         f"{small}")
    D = cdist(X, X)
    keys = ids.tolist()
    masks = {s: ids == s for s in uniq.tolist()}
    scores = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        own = masks[keys[i]]
        a = D[i, own].sum() / (own.sum() - 1)
        b = min(D[i, masks[s]].mean() for s in uniq.tolist() if s != keys[i])
        m = max(a, b)
        scores[i] = 0.0 if m == 0.0 else (b - a) / m
    return float(scores.mean())


# ---------------------------------------------------------------------------
# Scoring a corpus split with a network
# ---------------------------------------------------------------------------


def _forward_batches(network, records, waveform_of, batch_size: int):
    """Full-length forward passes over ``records`` in order, no tape:
    yields (chunk of records, ForwardOutput) per batch of
    ``batch_size``. ``waveform_of`` maps a record to its waveform."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        yield chunk, network.forward(np.stack([waveform_of(r)
                                               for r in chunk]))


def _trials(chunk, out) -> list:
    """One Trial per record; score = bonafide − spoof logit."""
    logits = out.spoof_logits.data
    return [Trial(r.utt_id, float(s), r.label, r.attack_id, r.speaker_id)
            for r, s in zip(chunk, logits[:, 0] - logits[:, 1])]


def _split_records(manifest, split: str) -> list:
    records = manifest.split_records(split)
    if not records:
        raise ValueError(f"split {split!r} has no records")
    return records


def score_split(network, manifest, split: str,
                batch_size: int = 32) -> ScoreSet:
    """Full-length forward passes; score = bonafide − spoof logit."""
    batches = _forward_batches(network, _split_records(manifest, split),
                               manifest.load_waveform, batch_size)
    return ScoreSet(t for chunk, out in batches for t in _trials(chunk, out))


def embed_split(network, manifest, split: str, batch_size: int = 32):
    """Spoof-head embeddings for every utterance of a split."""
    records = _split_records(manifest, split)
    rows = [out.spoof_embedding.data for _, out in _forward_batches(
        network, records, manifest.load_waveform, batch_size)]
    return records, np.concatenate(rows, axis=0)


def separability_report(network, manifest, split: str,
                        seed: int = 0) -> SeparabilityReport:
    records, emb = embed_split(network, manifest, split)
    ids = np.array([r.speaker_id for r in records])
    probe = speaker_probe(emb, ids, seed=seed)
    sil = silhouette(emb, ids)
    n_speakers = int(np.unique(ids).size)
    return SeparabilityReport(probe_accuracy=probe,
                              chance_level=1.0 / n_speakers,
                              silhouette_score=sil,
                              n_embeddings=int(emb.shape[0]),
                              embedding_dim=int(emb.shape[1]),
                              n_speakers=n_speakers)


def export_embeddings(network, manifest, split: str, path) -> int:
    """One row per utterance: id fields then comma-joined embedding
    values at 17 significant digits. Returns the row count."""
    records, emb = embed_split(network, manifest, split)
    lines = []
    for r, e in zip(records, emb):
        values = ",".join(f"{v:.17g}" for v in e)
        lines.append(f"{r.utt_id}\t{r.speaker_id}\t{r.label}"
                     f"\t{r.attack_id}\t{values}")
    Path(path).write_text("\n".join(lines) + "\n")
    return len(records)


def read_embeddings(path):
    """Parse an embedding export; returns (records, M×d array) where
    records are (utt_id, speaker_id, label, attack_id) tuples."""
    metas, rows = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields")
        utt_id, speaker_id, label, attack_id, values = parts
        metas.append((utt_id, int(speaker_id), label, attack_id))
        rows.append(np.array([float(v) for v in values.split(",")]))
    return metas, np.stack(rows)
