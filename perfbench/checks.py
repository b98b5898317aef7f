"""Checks the benchmark applies to sinmt's outputs.

Every check recomputes its answer apart from the program: EER brackets
by enumerating each operating point, silhouette from explicit pairwise
distances, gradients by central differences, and file contents with
readers written here rather than sinmt's own. Each returns a
``CheckResult`` whose detail says what disagreed.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BONAFIDE = "bonafide"
EER_TOL = 1e-12
# Scoring one utterance alone and in a batch of 32 may reorder float64
# sums inside BLAS (~1e-13 relative); a real mismatch is far larger.
SINGLE_SCORE_RTOL = 1e-9
# The probe prints its silhouette with six decimals.
PRINTED_SIX_DECIMALS = 5e-7 + 1e-12


@dataclass
class CheckResult:
    ok: bool
    detail: str
    name: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)


@contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Readers for sinmt's file formats
# ---------------------------------------------------------------------------


def read_scores_file(path):
    """scores.txt rows as (utt_id, score, label, attack_id) tuples."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            utt_id, score, label, attack_id, _ = line.split("\t")
            rows.append((utt_id, float(score), label, attack_id))
    return rows


def read_report_file(path):
    """report.txt as (pooled EER, {attack: EER})."""
    pooled, per_attack = None, {}
    for line in Path(path).read_text().splitlines():
        parts = line.split("\t")
        if parts[0] == "pooled_eer":
            pooled = float(parts[1])
        elif parts[0] == "attack_eer":
            per_attack[parts[1]] = float(parts[2])
    return pooled, per_attack


def read_manifest_rows(corpus_dir):
    """manifest.tsv rows as dicts with utt_id, path, speaker, label,
    attack and split."""
    rows = []
    text = (Path(corpus_dir) / "manifest.tsv").read_text(encoding="utf-8")
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            utt_id, rel, spk, label, attack, split = line.split("\t")
            rows.append({"utt_id": utt_id, "path": rel, "speaker": int(spk),
                         "label": label, "attack": attack, "split": split})
    return rows


def read_history_file(path):
    """history.txt rows as (epoch, spoof, speaker, total, dev_eer, acc)."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split("\t")
            rows.append((int(fields[0]), *(float(f) for f in fields[1:])))
    return rows


def read_waveform_file(path) -> np.ndarray:
    """16-byte header (8-byte magic, u32 length, u32 rate), float64 LE."""
    raw = Path(path).read_bytes()
    n, _ = struct.unpack("<II", raw[8:16])
    return np.frombuffer(raw[16:16 + 8 * n], dtype="<f8").astype(np.float64)


def read_checkpoint_values(path) -> dict:
    """Parameter arrays of a checkpoint: version line, manifest length
    line, JSON manifest, then the little-endian float64 blob."""
    raw = Path(path).read_bytes()
    first = raw.index(b"\n")
    second = raw.index(b"\n", first + 1)
    mlen = int(raw[first + 1:second])
    manifest = json.loads(raw[second + 1:second + 1 + mlen])
    blob = raw[second + 1 + mlen:]
    return {e["name"]: np.frombuffer(
                blob[e["offset"]:e["offset"] + e["nbytes"]],
                dtype="<f8").reshape(e["shape"])
            for e in manifest["params"]}


# ---------------------------------------------------------------------------
# EER bracket
# ---------------------------------------------------------------------------


def eer_bracket(bonafide, spoof) -> tuple[float, float]:
    """The interval that holds the EER of any threshold sweep.

    FAR(t) is the share of spoof scores >= t and FRR(t) the share of
    bona fide scores < t. Both change only at score values, so every
    distinct score plus one threshold above them all gives every
    operating point. Where FAR - FRR changes sign, any interpolated EER
    lies between the largest min(FAR, FRR) and the smallest
    max(FAR, FRR) over those points.
    """
    bona = np.asarray(bonafide, dtype=np.float64)
    spoof = np.asarray(spoof, dtype=np.float64)
    if bona.size == 0 or spoof.size == 0:
        raise ValueError("an EER needs scores of both classes")
    thresholds = np.append(np.unique(np.concatenate([bona, spoof])), np.inf)
    far = (spoof[None, :] >= thresholds[:, None]).mean(axis=1)
    frr = (bona[None, :] < thresholds[:, None]).mean(axis=1)
    return (float(np.max(np.minimum(far, frr))),
            float(np.min(np.maximum(far, frr))))


def attack_brackets(rows) -> dict:
    """Per-attack EER brackets, each attack against all bona fide rows;
    ``rows`` are (utt_id, score, label, attack_id) tuples."""
    bona = [s for _, s, label, _ in rows if label == BONAFIDE]
    attacks = sorted({a for _, _, label, a in rows if label != BONAFIDE})
    return {a: eer_bracket(bona, [s for _, s, label, b in rows
                                  if label != BONAFIDE and b == a])
            for a in attacks}


def in_bracket(value: float, bracket) -> CheckResult:
    lo, hi = bracket
    ok = math.isfinite(value) and lo - EER_TOL <= value <= hi + EER_TOL
    return CheckResult(ok, f"{value!r} in [{lo!r}, {hi!r}]")


def check_report(scores_path, report_path) -> CheckResult:
    """Pooled and per-attack EERs of report.txt against the brackets of
    scores.txt."""
    rows = read_scores_file(scores_path)
    pooled, per_attack = read_report_file(report_path)
    brackets = attack_brackets(rows)
    if sorted(per_attack) != sorted(brackets):
        return CheckResult(False, f"report attacks {sorted(per_attack)} != "
                                  f"scored attacks {sorted(brackets)}")
    results = {"pooled": in_bracket(pooled, eer_bracket(
        [s for _, s, label, _ in rows if label == BONAFIDE],
        [s for _, s, label, _ in rows if label != BONAFIDE]))}
    results.update({a: in_bracket(per_attack[a], brackets[a])
                    for a in brackets})
    bad = [f"{k}: {r.detail}" for k, r in results.items() if not r.ok]
    return CheckResult(not bad,
                       "; ".join(bad) or f"{len(results)} EERs in bracket")


def check_mean_eer(value, rows) -> CheckResult:
    """A mean of per-attack EERs against the mean of their brackets."""
    brackets = list(attack_brackets(rows).values())
    return in_bracket(value, (float(np.mean([b[0] for b in brackets])),
                              float(np.mean([b[1] for b in brackets]))))


# ---------------------------------------------------------------------------
# Files and histories
# ---------------------------------------------------------------------------


def check_scored_once(scores_path, corpus_dir, split) -> CheckResult:
    scored = [r[0] for r in read_scores_file(scores_path)]
    expected = {r["utt_id"] for r in read_manifest_rows(corpus_dir)
                if split == "all" or r["split"] == split}
    dupes = len(scored) - len(set(scored))
    missing = expected - set(scored)
    extra = set(scored) - expected
    ok = not (dupes or missing or extra)
    return CheckResult(ok, f"{len(scored)} scored, {len(expected)} expected, "
                           f"{dupes} duplicates, {len(missing)} missing, "
                           f"{len(extra)} extra")


def check_history_finite(history_path) -> CheckResult:
    rows = read_history_file(history_path)
    bad = [r[0] for r in rows if not all(math.isfinite(v) for v in r[1:4])]
    return CheckResult(bool(rows) and not bad,
                       f"{len(rows)} epochs, non-finite at {bad}")


def check_bit_identical(start: dict, parent: dict) -> CheckResult:
    """Every parent parameter reappears in ``start`` with the same bits."""
    bad = [k for k, v in parent.items()
           if k not in start or start[k].shape != v.shape
           or start[k].astype("<f8").tobytes() != v.astype("<f8").tobytes()]
    return CheckResult(not bad,
                       f"{len(parent)} parameters, differing: {bad[:5]}")


def check_close(got, want, rtol) -> CheckResult:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    return CheckResult(bool(err.size) and worst <= rtol,
                       f"{err.size} values, worst relative error "
                       f"{worst:.3e} (tolerance {rtol:.0e})")


def check_range(value, lo, hi) -> CheckResult:
    return CheckResult(math.isfinite(value) and lo <= value <= hi,
                       f"{value!r} in [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Silhouette
# ---------------------------------------------------------------------------


def silhouette_brute(embeddings, speaker_ids) -> float:
    """Mean silhouette from explicit Euclidean distances, one row at a
    time: s = (b - a) / max(a, b), with a the mean distance to the rest
    of the point's own cluster and b the smallest mean distance to
    another cluster."""
    X = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(speaker_ids)
    masks = {c: ids == c for c in np.unique(ids).tolist()}
    total = 0.0
    for i in range(X.shape[0]):
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        own = masks[ids[i].item()]
        a = d[own].sum() / (own.sum() - 1)
        b = min(d[m].mean() for c, m in masks.items() if c != ids[i])
        top = max(a, b)
        total += 0.0 if top == 0.0 else (b - a) / top
    return total / X.shape[0]


def check_silhouette(embeddings, speaker_ids, reported) -> CheckResult:
    want = silhouette_brute(embeddings, speaker_ids)
    ok = abs(reported - want) <= PRINTED_SIX_DECIMALS
    return CheckResult(ok, f"reported {reported!r}, recomputed {want!r}")


# ---------------------------------------------------------------------------
# Gradients through the reversal layer
# ---------------------------------------------------------------------------


def weighted_cross_entropy(logits, labels, weights) -> float:
    """-sum w_y log softmax(logits)_y / sum w_y, in plain numpy."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    w = np.asarray(weights, dtype=np.float64)[labels]
    return float(-(w * logp[np.arange(len(labels)), labels]).sum() / w.sum())


def sample_coordinates(arrays: dict, groups: dict, per_group: dict,
                       seed: int):
    """Seeded (name, flat index, group) triples, ``per_group[g]`` per
    group, drawn uniformly over the group's scalars."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    picks = []
    for group, count in per_group.items():
        names = [n for n in arrays if groups[n] == group]
        sizes = np.array([arrays[n].size for n in names])
        for flat in rng.choice(sizes.sum(), size=count, replace=False):
            k = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
            offset = int(flat - sizes[:k].sum())
            picks.append((names[k], offset, group))
    return picks


def program_gradients(tr, ad, net, batch, config, spoof_w,
                      speaker_w) -> dict:
    """The gradients one ``training.train_step`` computes, with the
    optimizer step replaced by a recorder so the parameters stay put."""
    grads = {}
    with patched(ad, "optimizer_step",
                 lambda original: lambda params, g, state: grads.update(g)):
        tr.train_step(net, batch, config,
                      ad.OptimizerState.sgd(config.learning_rate),
                      spoof_w, speaker_w)
    return grads


def check_network_reversal(net, batch, spoof_w, speaker_w, analytic,
                           reversal, speaker_weight, per_group,
                           seed) -> CheckResult:
    """``check_reversal_gradients`` on a network's parameters, with Ls
    and Ld recomputed here from its logits on ``batch``."""
    def losses():
        out = net.forward(batch.waveforms)
        return (weighted_cross_entropy(out.spoof_logits.data,
                                       batch.spoof_labels, spoof_w),
                weighted_cross_entropy(out.speaker_logits.data,
                                       batch.speaker_labels, speaker_w))

    arrays = {n: t.data for n, t in net.params.items()}
    groups = {n: net.params.group_of(n) for n in arrays}
    coords = sample_coordinates(arrays, groups, per_group, seed)
    return check_reversal_gradients(arrays, groups, losses, analytic,
                                    reversal, speaker_weight, coords)


def check_reversal_gradients(arrays: dict, groups: dict, losses,
                             analytic: dict, reversal: float,
                             speaker_weight: float, coords,
                             eps: float = 1e-5, rtol: float = 1e-4,
                             atol: float = 1e-8) -> CheckResult:
    """The GRL decomposition, by central differences.

    ``losses()`` returns (Ls, Ld) at the current values of ``arrays``,
    which it reads in place. On the extractor the program's gradient
    must equal dLs - reversal * dLd, where ``reversal`` is lambda times
    alpha; on a head it must equal d(Ls + speaker_weight * Ld).
    """
    worst = (0.0, None)
    bad = []
    for name, index, group in coords:
        flat = arrays[name].reshape(-1)
        orig = flat[index]
        flat[index] = orig + eps
        ls_plus, ld_plus = losses()
        flat[index] = orig - eps
        ls_minus, ld_minus = losses()
        flat[index] = orig
        d_ls = (ls_plus - ls_minus) / (2.0 * eps)
        d_ld = (ld_plus - ld_minus) / (2.0 * eps)
        if group == "extractor":
            want = d_ls - reversal * d_ld
        else:
            want = d_ls + speaker_weight * d_ld
        got = float(analytic[name].reshape(-1)[index])
        err = abs(got - want)
        rel = err / max(abs(got), abs(want), atol / rtol)
        if rel > worst[0]:
            worst = (rel, f"{name}[{index}] program {got:.6e} "
                          f"differences {want:.6e}")
        if err > atol + rtol * max(abs(got), abs(want)):
            bad.append(name)
    return CheckResult(not bad,
                       f"{len(coords)} coordinates, failing {bad}; worst "
                       f"relative error {worst[0]:.2e} at {worst[1]}")
