"""Adversarial multi-task training loop.

The objective is total = Ls + α·Ld where Ls is the spoof/bonafide
cross-entropy and Ld the speaker cross-entropy computed through the
gradient-reversal layer. The reversal layer only touches gradients, so
the forward value of the objective never depends on the reversal scale.

The realized extractor update under SGD decomposes as

    θf ← θf − μ(∂Ls/∂θf − λ·α_eff·∂Ld/∂θf)

with α_eff = α by default (α applied on the loss, λ in the reversal
layer). `fold_alpha_into_lambda`, an `ivspk`-only setting, moves α
into the reversal scale instead (loss term unweighted, reversal scale
λ·α): the extractor update is identical, but the speaker head then
trains on the unweighted Ld. That changes the head's steps under SGD
only. Adam divides each step by the root of the gradient's second
moment, so scaling the head's gradient by α leaves its steps as they
were but for ε: unfolded, the head steps as if ε were ε/α.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import synthdata as sd
from .model import (MODE_BASELINE, MODE_SPEAKER_INVARIANT, SInMTNetwork,
                    _require_positive_int, load_checkpoint, resolve_grl)

_STREAM_SHUFFLE = 10
_STREAM_ITEM = 11


# ---------------------------------------------------------------------------
# Configuration and records
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    mode: str = MODE_BASELINE
    alpha: float = 0.1
    grl_scale: float | None = None  # None → mode default (0 / −1 / +1)
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    clip_len: int | None = None  # None → full-length utterances
    spoof_class_weights: tuple | None = None  # None → inverse frequency
    seed: int = 0
    init_checkpoint: str | None = None
    fold_alpha_into_lambda: bool = False
    augment: bool = True

    def resolved_grl(self) -> float:
        return resolve_grl(self.mode, self.grl_scale)

    def validate(self) -> None:
        self.resolved_grl()  # checks the mode and its reversal scale
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, "
                             f"got {self.alpha}")
        if self.fold_alpha_into_lambda and \
                self.mode != MODE_SPEAKER_INVARIANT:
            raise ValueError(f"train.fold_alpha_into_lambda applies to "
                             f"mode 'ivspk' only, not {self.mode!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        for name in ("batch_size", "epochs", "patience"):
            _require_positive_int(name, getattr(self, name))
        if self.clip_len is not None:
            _require_positive_int("clip_len", self.clip_len)
        if self.spoof_class_weights is not None:
            w = np.asarray(self.spoof_class_weights, dtype=np.float64)
            if w.shape != (2,) or not np.isfinite(w).all() or \
                    (w < 0).any() or w.sum() == 0.0:
                raise ValueError("spoof_class_weights must be two finite "
                                 "nonnegative values, not all zero")


@dataclass
class LossRecord:
    epoch: int
    spoof_loss: float
    speaker_loss: float
    total_loss: float
    dev_eer: float
    dev_speaker_accuracy: float

    def to_line(self) -> str:
        return (f"{self.epoch}\t{self.spoof_loss:.17g}"
                f"\t{self.speaker_loss:.17g}\t{self.total_loss:.17g}"
                f"\t{self.dev_eer:.17g}\t{self.dev_speaker_accuracy:.17g}")

    @staticmethod
    def from_line(line: str) -> "LossRecord":
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        return LossRecord(int(parts[0]), *(float(p) for p in parts[1:]))


HISTORY_HEADER = ("# epoch\tspoof_loss\tspeaker_loss\ttotal_loss"
                  "\tdev_eer\tdev_speaker_accuracy")


def write_history(history, path) -> None:
    lines = [HISTORY_HEADER] + [r.to_line() for r in history]
    Path(path).write_text("\n".join(lines) + "\n")


def read_history(path):
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        out.append(LossRecord.from_line(line))
    return out


@dataclass
class Batch:
    waveforms: np.ndarray  # B×N, equal-length clips
    spoof_labels: np.ndarray  # B ints in {0: bonafide, 1: spoof}
    speaker_labels: np.ndarray | None  # B class indices, None for baseline


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def weighted_cross_entropy(logits: ad.Tensor, labels,
                           weights) -> ad.Tensor:
    """Weight-normalized mean: −Σ w_y·log softmax(logits)_y / Σ w_y."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("logits must be B×C")
    n, n_classes = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise ValueError(f"label {bad} outside 0..{n_classes - 1}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_classes,) or (w < 0).any() or w.sum() == 0.0:
        raise ValueError("weights must be C nonnegative values, "
                         "not all zero")
    log_probs = ad.log_softmax(logits, axis=1)
    pick = np.zeros((n, n_classes))
    pick[np.arange(n), labels] = w[labels]
    total = ad.reduce_sum(ad.mul(log_probs, ad.Tensor(pick)))
    return ad.scale(total, -1.0 / float(w[labels].sum()))


def combined_loss(spoof_logits: ad.Tensor, speaker_logits,
                  spoof_labels, speaker_labels, alpha: float,
                  spoof_weights=None, speaker_weights=None):
    """total = Ls + α·Ld; (total, Ls, Ld) with Ld None when there is no
    speaker branch. The reversal layer upstream affects only gradients,
    never these forward values."""
    if spoof_weights is None:
        spoof_weights = np.ones(spoof_logits.shape[1])
    loss_s = weighted_cross_entropy(spoof_logits, spoof_labels,
                                    spoof_weights)
    if speaker_logits is None:
        return loss_s, loss_s, None
    if speaker_labels is None:
        raise ValueError("speaker labels are required when the network "
                         "has a speaker head")
    if speaker_weights is None:
        speaker_weights = np.ones(speaker_logits.shape[1])
    loss_d = weighted_cross_entropy(speaker_logits, speaker_labels,
                                    speaker_weights)
    total = ad.add(loss_s, ad.scale(loss_d, float(alpha)))
    return total, loss_s, loss_d


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def train_step(network: SInMTNetwork, batch: Batch, config: TrainConfig,
               opt_state: ad.OptimizerState, spoof_weights=None,
               speaker_weights=None) -> dict:
    """One forward → backward → optimizer step; returns loss values."""
    if batch.waveforms.ndim != 2 or batch.waveforms.shape[0] == 0:
        raise ValueError("batch must be a nonempty B×N array")

    fold = config.fold_alpha_into_lambda
    alpha_used = 1.0 if fold else config.alpha
    grl_scale = network.grl_scale * config.alpha if fold else None
    with ad.Tape() as tape:
        out = network.forward(batch.waveforms, grl_scale)
        total, loss_s, loss_d = combined_loss(
            out.spoof_logits, out.speaker_logits, batch.spoof_labels,
            batch.speaker_labels, alpha_used, spoof_weights,
            speaker_weights)
        value = total.item()
        if not np.isfinite(value):
            raise ad.NumericsError(
                f"non-finite training loss: {value!r} "
                f"(spoof {loss_s.item()!r}, speaker "
                f"{loss_d.item() if loss_d is not None else None!r})")
        tape.backward(total)
        grads = network.params.collect_grads(tape)

    ad.optimizer_step(network.params, grads, opt_state)

    ls = loss_s.item()
    ld = loss_d.item() if loss_d is not None else 0.0
    return {"spoof_loss": ls, "speaker_loss": ld,
            "total_loss": ls + config.alpha * ld}


# ---------------------------------------------------------------------------
# The full loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    network: SInMTNetwork  # holds the parameters of the best dev epoch
    history: list
    best_epoch: int
    best_dev_eer: float


def inverse_frequency_weights(labels, n_classes: int) -> np.ndarray:
    """w_c ∝ 1/count_c, normalized to mean 1; absent classes get the
    largest present weight."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    present = counts > 0
    w = np.zeros(n_classes)
    w[present] = 1.0 / counts[present]
    if (~present).any():
        w[~present] = w[present].max()
    return w / w.mean()


def _item_rng(seed: int, epoch: int, index: int):
    return np.random.default_rng(
        np.random.SeedSequence([seed, _STREAM_ITEM, epoch, index]))


def _prepare_item(wav, record, config, augmenter, rng):
    wav = sd.crop_or_pad(wav, config.clip_len, rng)
    if config.augment:
        kind = augmenter.choose_kind(rng)
        wav = augmenter.augment(wav, kind, rng,
                                exclude_speaker=record.speaker_id)
    return wav


def _dev_metrics(network, records, manifest, class_of, batch_size):
    """(EER, speaker accuracy) on full-length utterances, no grads;
    each utterance is read when its batch is built.

    The EER is the mean of per-attack EERs (each attack scored against
    all bona fide items). On a split this small the attack-averaged
    number is a steadier selection signal than the pooled one, and a
    single collapsed attack cannot hide behind the others.
    """
    trials = []
    speaker_hits = speaker_total = 0
    for chunk, out in ev._forward_batches(
            network, records, manifest.load_waveform, batch_size):
        trials += ev._trials(chunk, out)
        if out.speaker_logits is not None:
            pred = np.argmax(out.speaker_logits.data, axis=1)
            for r, p in zip(chunk, pred):
                if r.speaker_id in class_of:
                    speaker_hits += int(p == class_of[r.speaker_id])
                    speaker_total += 1
    eer = ev.breakdown_report(ev.ScoreSet(trials)).mean_eer
    acc = speaker_hits / speaker_total if speaker_total else 0.0
    return eer, acc


def train(config: TrainConfig, manifest: sd.CorpusManifest,
          encoder=None, head=None) -> TrainResult:
    """Seed-deterministic training with per-epoch shuffling, cropping,
    on-the-fly augmentation, dev-EER model selection, and early
    stopping. Never touches the eval split. The returned network holds
    the parameters of the epoch with the best dev EER. Each utterance is
    read from disk when its batch is built, every epoch, so memory holds
    at most two batches of waveforms rather than the corpus, and a bad
    waveform file raises when its batch is built.

    encoder/head override the network sizing for fresh networks; they
    are ignored when init_checkpoint supplies the architecture."""
    config.validate()
    train_records = manifest.split_records("train")
    if not train_records:
        raise ValueError("train split is empty")
    dev_records = manifest.split_records("dev")
    dev_labels = {r.label for r in dev_records}
    if len(dev_labels) < 2:
        warnings.warn("dev split lacks both classes; using the train "
                      "split for per-epoch metrics and model selection")
        dev_records = train_records

    speaker_classes = sorted({r.speaker_id for r in train_records})
    class_of = {s: i for i, s in enumerate(speaker_classes)}

    if config.init_checkpoint:
        network = load_checkpoint(config.init_checkpoint, mode=config.mode)
        network.grl_scale = config.resolved_grl()
        if network.mode != MODE_BASELINE and \
                network.n_speakers != len(speaker_classes):
            raise ValueError(
                f"checkpoint speaker head covers {network.n_speakers} "
                f"speakers but the train split has {len(speaker_classes)}")
    else:
        network = SInMTNetwork(config.mode,
                               n_speakers=len(speaker_classes),
                               encoder=encoder, head=head,
                               grl_scale=config.resolved_grl(),
                               seed=config.seed)

    if config.spoof_class_weights is not None:
        spoof_weights = np.asarray(config.spoof_class_weights,
                                   dtype=np.float64)
    else:
        spoof_labels_all = [int(r.label != ev.BONAFIDE)
                            for r in train_records]
        spoof_weights = inverse_frequency_weights(spoof_labels_all, 2)

    augmenter = sd.Augmenter(manifest.seed, manifest.n_speakers,
                             manifest.n_samples, manifest.sample_rate)
    if config.optimizer == "adam":
        opt_state = ad.OptimizerState.adam(network.params,
                                           lr=config.learning_rate)
    else:
        opt_state = ad.OptimizerState.sgd(lr=config.learning_rate)

    history = []
    best_state = network.params.state()
    best_eer = np.inf
    best_epoch = 0
    stale = 0

    for epoch in range(1, config.epochs + 1):
        shuffle_rng = np.random.default_rng(np.random.SeedSequence(
            [config.seed, _STREAM_SHUFFLE, epoch]))
        order = shuffle_rng.permutation(len(train_records))

        sum_ls = sum_ld = 0.0
        n_items = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            wavs, y_spoof, y_speaker = [], [], []
            for i in idx:
                r = train_records[i]
                rng = _item_rng(config.seed, epoch, int(i))
                wavs.append(_prepare_item(manifest.load_waveform(r), r,
                                          config, augmenter, rng))
                y_spoof.append(int(r.label != ev.BONAFIDE))
                y_speaker.append(class_of[r.speaker_id])
            batch = Batch(
                waveforms=np.stack(wavs),
                spoof_labels=np.array(y_spoof),
                speaker_labels=(np.array(y_speaker)
                                if network.mode != MODE_BASELINE else None))
            stats = train_step(network, batch, config, opt_state,
                               spoof_weights)
            sum_ls += stats["spoof_loss"] * len(idx)
            sum_ld += stats["speaker_loss"] * len(idx)
            n_items += len(idx)

        mean_ls = sum_ls / n_items
        mean_ld = sum_ld / n_items
        dev_eer, dev_acc = _dev_metrics(network, dev_records, manifest,
                                        class_of, config.batch_size)
        record = LossRecord(epoch=epoch, spoof_loss=mean_ls,
                            speaker_loss=mean_ld,
                            total_loss=mean_ls + config.alpha * mean_ld,
                            dev_eer=dev_eer, dev_speaker_accuracy=dev_acc)
        history.append(record)

        if dev_eer < best_eer:
            best_eer = dev_eer
            best_epoch = epoch
            best_state = network.params.state()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    network.params.load_state(best_state)
    return TrainResult(network=network, history=history,
                       best_epoch=best_epoch, best_dev_eer=float(best_eer))
