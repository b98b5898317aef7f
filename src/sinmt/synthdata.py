"""Deterministic synthetic spoofing corpus at desk scale.

Bona fide utterances use a toy source-filter synthesis: a glottal-like
impulse train at a per-speaker fundamental, spectral tilt, a fixed
8-tap speaker coloration filter, and a syllabic on/off envelope with
genuine pauses over a quiet noise floor. Spoofed utterances are bona
fide signals passed through one of four audible transforms that keep
the speaker's fundamental and filter intact, so speaker identity and
spoofing cues genuinely entangle. Everything is a pure function of
(corpus seed, utterance index): regeneration in any order is
byte-identical.

Sample rate and default length are 4000 Hz / 4000 samples (one second);
with one-second utterances the long-term spectrum has 1 Hz resolution,
which keeps the speaker fundamentals trivially resolvable.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# substream tags for per-item seed derivation
_STREAM_PROFILE = 1
_STREAM_UTTERANCE = 2
_STREAM_ATTACK = 3
_STREAM_SPLIT = 4

WAVEFORM_MAGIC = b"SINMTWAV"
MANIFEST_NAME = "manifest.tsv"
MANIFEST_VERSION = "# sinmt-corpus-v2"
_CORPUS_LINE = "# corpus="
SPLITS = ("train", "dev", "eval")
BONAFIDE = "bonafide"
SPOOF = "spoof"


def require_seed(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= 0, as
    numpy's seeding takes (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


def require_positive_int(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= 1
    (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive")


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def peak_normalize(x: np.ndarray, peak: float = 0.9) -> np.ndarray:
    m = float(np.max(np.abs(x)))
    if m == 0.0:
        raise ValueError("cannot peak-normalize an all-zero signal")
    return x * (peak / m)


def mix_at_snr(clean: np.ndarray, interference: np.ndarray,
               snr_db: float) -> np.ndarray:
    """Add interference scaled so the RMS ratio hits snr_db exactly."""
    r_int = _rms(interference)
    if r_int == 0.0:
        raise ValueError("interference is silent; cannot set an SNR")
    scale = (_rms(clean) / r_int) * 10.0 ** (-snr_db / 20.0)
    return clean + scale * interference


# ---------------------------------------------------------------------------
# Speakers and bona fide synthesis
# ---------------------------------------------------------------------------


@dataclass
class SpeakerProfile:
    speaker_id: int
    f0: float
    filter_taps: np.ndarray
    level: float
    tilt: float = 0.85  # one-pole coefficient for the source spectral tilt


def speaker_profile(corpus_seed: int, speaker_id: int,
                    n_speakers: int) -> SpeakerProfile:
    """Pure function of (corpus seed, speaker id).

    Fundamentals are stratified over [80, 300] Hz with per-speaker
    jitter, so any two speakers differ by at least a fifth of the
    per-speaker band and distant speakers differ by far more.
    """
    if not 1 <= speaker_id <= n_speakers:
        raise ValueError(
            f"speaker_id {speaker_id} outside 1..{n_speakers}")
    rng = np.random.default_rng(
        np.random.SeedSequence([corpus_seed, _STREAM_PROFILE, speaker_id]))
    jitter = rng.uniform(0.2, 0.8)
    f0 = 80.0 + (speaker_id - 1 + jitter) * (220.0 / n_speakers)
    # Gently lowpass coloration: positive decaying taps with a
    # speaker-specific decay rate and per-tap jitter. Keeping every
    # speaker inside the same smooth filter family is what lets the
    # filter-mismatch attack read as an anomaly rather than as just
    # another plausible voice.
    decay = rng.uniform(1.0, 7.0)
    taps = np.exp(-np.arange(8) / decay) * rng.uniform(0.5, 1.0, size=8)
    taps[0] = 1.0  # strong direct tap keeps the filter well-conditioned
    taps /= np.abs(taps).sum()
    level = rng.uniform(0.15, 0.3)
    tilt = rng.uniform(0.60, 0.95)
    return SpeakerProfile(speaker_id=speaker_id, f0=f0,
                          filter_taps=taps, level=level, tilt=tilt)


def synthesize_bonafide(profile: SpeakerProfile, rng,
                        n_samples: int = 4000,
                        sample_rate: int = 4000) -> np.ndarray:
    """Pulsed source-filter synthesis with a syllabic envelope.

    A glottal-like impulse train at the speaker fundamental (with
    period jitter and amplitude shimmer) passes through two one-pole
    lowpasses (a speaker-specific spectral tilt) and the speaker
    coloration filter, then gets gated by syllable-length bursts
    separated by genuine pauses. A -45 dB white noise floor sits under
    everything, as in a clean recording chain.

    The pulse train takes a phase draw, then one (amplitude, period
    jitter) pair per pulse until a position reaches ``n_samples``. All
    pairs that can be needed are drawn in one call, sized from the
    shortest step (0.98 of a period); the positions are their running
    sum (``np.cumsum`` adds in order, as a per-pulse ``pos +=`` would).
    The generator state is then rewound and exactly the doubles used
    are drawn again, so the numbers and the state left to the caller
    are those of one scalar draw per value.
    """
    x = np.zeros(n_samples)
    period = sample_rate / profile.f0
    state = rng.bit_generator.state
    m = math.ceil(n_samples / (0.98 * period)) + 1  # +1 for rounding
    phase = rng.uniform(0.0, 1.0)
    pairs = rng.uniform(np.tile([0.9, 0.98], m), np.tile([1.1, 1.02], m))
    pos = np.cumsum(np.concatenate(([phase * period], period * pairs[1::2])))
    if pos[-1] < n_samples:
        raise RuntimeError(
            f"pulse train of {m} periods stops at {pos[-1]} before "
            f"{n_samples} samples")
    n = int(np.searchsorted(pos, n_samples))
    x[pos[:n].astype(np.intp)] = pairs[0:2 * n:2]
    rng.bit_generator.state = state
    rng.random(1 + 2 * n)
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
    x *= profile.level / _rms(x)
    noise = rng.normal(size=n_samples)
    noise *= (profile.level * 10.0 ** (-45.0 / 20.0)) / _rms(noise)
    return peak_normalize(x + noise)


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------


@dataclass
class AttackSpec:
    attack_id: str
    kind: str
    params: dict = field(default_factory=dict)


def default_attacks() -> list:
    return [
        AttackSpec("A01", "phase_randomize", {"frame_len": 256}),
        AttackSpec("A02", "filter_mismatch", {"tap_noise": 0.35}),
        AttackSpec("A03", "bit_crush", {"bits": 6}),
        AttackSpec("A04", "artifact_tone", {"freq_hz": 1450.0,
                                            "level_db": -25.0}),
    ]


def phase_randomize(wav: np.ndarray, rng, frame_len: int = 256) -> np.ndarray:
    """Re-randomize per-frame phases, keeping each frame's magnitude
    spectrum intact (DC/Nyquist bins get a random sign so frames stay
    exactly real)."""
    out = np.empty_like(wav)
    n = len(wav)
    for start in range(0, n, frame_len):
        frame = wav[start:start + frame_len]
        spec = np.fft.rfft(frame)
        rot = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(spec)))
        rot[0] = rng.choice([-1.0, 1.0])
        if len(frame) % 2 == 0:
            rot[-1] = rng.choice([-1.0, 1.0])
        out[start:start + frame_len] = np.fft.irfft(np.abs(spec) * rot,
                                                    n=len(frame))
    return out


def filter_mismatch(wav: np.ndarray, rng, taps: np.ndarray,
                    tap_noise: float = 0.35) -> np.ndarray:
    """Convolve with a perturbed copy of the speaker filter."""
    perturbed = taps + rng.normal(0.0, tap_noise * np.abs(taps).mean(),
                                  size=len(taps))
    return np.convolve(wav, perturbed)[:len(wav)]


def bit_crush(wav: np.ndarray, rng, bits: int = 6) -> np.ndarray:
    """Quantize to a 2**bits-step grid over [-1, 1] with TPDF dither.

    Triangular dither spanning one step either side of zero (the sum of
    two uniform draws, as in a real converter pipeline) is applied
    before rounding.  It decorrelates the quantization error from the
    source and keeps the error power constant regardless of signal
    level, so quiet stretches gain the same noise floor as loud ones
    instead of collapsing into the dead band around zero.
    """
    step = 2.0 / (2 ** bits)
    dither = (rng.uniform(-0.5 * step, 0.5 * step, size=wav.shape)
              + rng.uniform(-0.5 * step, 0.5 * step, size=wav.shape))
    return np.round((wav + dither) / step) * step


def artifact_tone(wav: np.ndarray, rng, freq_hz: float = 1450.0,
                  level_db: float = -25.0,
                  sample_rate: int = 4000) -> np.ndarray:
    """Add a fixed-frequency tone at level_db relative to full scale.

    The level is referenced to digital full scale (a unit-amplitude
    sine is 0 dB), so the tone rides at a fixed absolute height: it
    stays audible in pauses rather than tracking the utterance energy.
    """
    t = np.arange(len(wav), dtype=np.float64) / sample_rate
    tone = np.sin(2.0 * np.pi * freq_hz * t + rng.uniform(0.0, 2.0 * np.pi))
    return wav + 10.0 ** (level_db / 20.0) * tone


_ATTACK_TRANSFORMS = {"phase_randomize": phase_randomize,
                      "filter_mismatch": filter_mismatch,
                      "bit_crush": bit_crush,
                      "artifact_tone": artifact_tone}
ATTACK_KINDS = tuple(_ATTACK_TRANSFORMS)


def attack_param_defaults(kind: str) -> dict:
    """The params an attack kind accepts and their defaults: its transform's
    keyword arguments, less the sample rate that ``apply_attack`` supplies."""
    params = inspect.signature(_ATTACK_TRANSFORMS[kind]).parameters.values()
    return {p.name: p.default for p in params
            if p.default is not p.empty and p.name != "sample_rate"}


def apply_attack(wav: np.ndarray, spec: AttackSpec, rng,
                 profile: SpeakerProfile | None = None,
                 sample_rate: int = 4000) -> np.ndarray:
    """Run one attack transform and re-normalize to peak 0.9."""
    transform = _ATTACK_TRANSFORMS.get(spec.kind)
    if transform is None:
        raise ValueError(f"unknown attack kind: {spec.kind!r}")
    if spec.kind == "filter_mismatch":
        if profile is None:
            raise ValueError("filter_mismatch requires the speaker profile")
        out = transform(wav, rng, profile.filter_taps, **spec.params)
    elif spec.kind == "artifact_tone":
        out = transform(wav, rng, sample_rate=sample_rate, **spec.params)
    else:
        out = transform(wav, rng, **spec.params)
    return peak_normalize(out)


# ---------------------------------------------------------------------------
# Augmentation (training-time only)
# ---------------------------------------------------------------------------

AUGMENT_KINDS = ("reverb", "speech", "music", "noise", "none")


class Augmenter:
    """Training-time waveform corruption tied to a corpus.

    The speech kind mixes in a freshly synthesized utterance from a
    different speaker of the same corpus, which is why the augmenter
    needs the corpus seed and speaker count.
    """

    def __init__(self, corpus_seed: int, n_speakers: int,
                 n_samples: int = 4000, sample_rate: int = 4000):
        self.corpus_seed = corpus_seed
        self.n_speakers = n_speakers
        self.n_samples = n_samples
        self.sample_rate = sample_rate

    def choose_kind(self, rng) -> str:
        """Uniform over the four kinds plus none (probability 0.2 each)."""
        return AUGMENT_KINDS[int(rng.integers(0, len(AUGMENT_KINDS)))]

    def augment(self, wav: np.ndarray, kind: str, rng,
                exclude_speaker: int | None = None) -> np.ndarray:
        if kind == "none":
            return wav.copy()
        if kind == "reverb":
            tau = rng.uniform(0.05, 0.2) * self.sample_rate  # 50-200 ms
            length = min(len(wav), int(4 * tau))
            ir = rng.normal(size=length) * np.exp(-np.arange(length) / tau)
            ir[0] = 1.0  # direct path
            ir /= np.sqrt(np.sum(ir * ir))
            out = np.convolve(wav, ir)[:len(wav)]
        elif kind == "speech":
            candidates = [s for s in range(1, self.n_speakers + 1)
                          if s != exclude_speaker]
            sid = int(rng.choice(candidates))
            prof = speaker_profile(self.corpus_seed, sid, self.n_speakers)
            other = synthesize_bonafide(prof, rng, self.n_samples,
                                        self.sample_rate)
            other = crop_or_pad(other, len(wav), rng)
            out = mix_at_snr(wav, other, rng.uniform(5.0, 15.0))
        elif kind == "music":
            t = np.arange(len(wav), dtype=np.float64) / self.sample_rate
            root = rng.uniform(200.0, 600.0)
            chord = np.zeros(len(wav))
            for ratio in (1.0, 1.25, 1.5):  # major triad
                chord += np.sin(2.0 * np.pi * root * ratio * t
                                + rng.uniform(0.0, 2.0 * np.pi))
            out = mix_at_snr(wav, chord, rng.uniform(5.0, 15.0))
        elif kind == "noise":
            out = mix_at_snr(wav, rng.normal(size=len(wav)),
                             rng.uniform(0.0, 15.0))
        else:
            raise ValueError(f"unknown augmentation kind: {kind!r}")
        return peak_normalize(out)


def crop_or_pad(wav: np.ndarray, target_len: int | None,
                rng=None) -> np.ndarray:
    """Random crop to target_len, cyclic-repeat if shorter.

    target_len None means full length (unchanged). Without an rng the
    crop starts at 0.
    """
    if target_len is None or len(wav) == target_len:
        return wav
    if target_len < 1:
        raise ValueError("target_len must be positive")
    if len(wav) > target_len:
        start = 0
        if rng is not None:
            start = int(rng.integers(0, len(wav) - target_len + 1))
        return wav[start:start + target_len]
    reps = math.ceil(target_len / len(wav))
    return np.tile(wav, reps)[:target_len]


# ---------------------------------------------------------------------------
# Waveform files
# ---------------------------------------------------------------------------


def write_waveform(path, wav: np.ndarray, sample_rate: int) -> None:
    """16-byte header (magic, u32 length, u32 rate) + float64 LE samples."""
    wav = np.ascontiguousarray(wav, dtype="<f8")
    header = WAVEFORM_MAGIC + struct.pack("<II", len(wav), sample_rate)
    with open(path, "wb") as f:
        f.write(header)
        f.write(wav.tobytes())


def read_waveform(path):
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) != 16 or header[:8] != WAVEFORM_MAGIC:
            raise ValueError(f"not a waveform file: {path}")
        n, rate = struct.unpack("<II", header[8:])
        raw = f.read(8 * n)
    if len(raw) != 8 * n:
        raise ValueError(f"truncated waveform file: {path}")
    return np.frombuffer(raw, dtype="<f8").copy(), rate


# ---------------------------------------------------------------------------
# Corpus generation and manifest
# ---------------------------------------------------------------------------


@dataclass
class CorpusConfig:
    n_speakers: int = 20
    utterances_per_speaker: int = 40
    n_samples: int = 4000
    sample_rate: int = 4000
    split_fractions: tuple = (0.7, 0.1, 0.2)  # train, dev, eval
    seed: int = 0
    attacks: list = field(default_factory=default_attacks)

    def validate(self) -> None:
        require_seed("corpus.seed", self.seed)
        for name in ("n_speakers", "utterances_per_speaker", "n_samples",
                     "sample_rate"):
            require_positive_int(f"corpus.{name}", getattr(self, name))
        if self.n_speakers < 4:
            raise ValueError("n_speakers must be at least 4")
        if self.utterances_per_speaker < 2:
            raise ValueError("utterances_per_speaker must be at least 2")
        # One period of the lowest fundamental (80 Hz) holds a pulse, and
        # the envelope's Hann window is zero at its first sample, so a
        # shorter utterance, or a single sample, can be silent.
        shortest = max(2, math.ceil(self.sample_rate / 80))
        if self.n_samples < shortest:
            raise ValueError(
                f"corpus.n_samples must be at least {shortest} at sample "
                f"rate {self.sample_rate} (one period at 80 Hz, the lowest "
                f"fundamental), got {self.n_samples}")
        if len(self.split_fractions) != 3:
            raise ValueError("split_fractions must be (train, dev, eval)")
        if any(not (math.isfinite(f) and f >= 0)
               for f in self.split_fractions):
            raise ValueError(f"split fractions must be finite and "
                             f"nonnegative, got {self.split_fractions}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError(
                f"split fractions must sum to 1, got {self.split_fractions}")
        if not self.attacks:
            raise ValueError("attack list must be nonempty")
        for spec in self.attacks:
            if spec.kind not in ATTACK_KINDS:
                raise ValueError(
                    f"attack {spec.attack_id}: unknown kind {spec.kind!r} "
                    f"(expected one of {ATTACK_KINDS})")
            allowed = set(attack_param_defaults(spec.kind))
            unknown = sorted(set(spec.params) - allowed)
            if unknown:
                raise ValueError(
                    f"attack {spec.attack_id}: {spec.kind} takes no param "
                    f"{unknown[0]!r} (accepts {sorted(allowed)})")
            for name, value in spec.params.items():
                if isinstance(value, numbers.Real) and \
                        not math.isfinite(value):
                    raise ValueError(f"attack {spec.attack_id}: param "
                                     f"{name!r} must be finite, got {value}")
        n_eval = self.n_eval_speakers()
        if not 1 <= n_eval < self.n_speakers:
            raise ValueError(
                f"n_speakers={self.n_speakers} too small for a disjoint "
                f"eval split of fraction {self.split_fractions[2]}")

    def n_eval_speakers(self) -> int:
        return int(round(self.n_speakers * self.split_fractions[2]))

    def eval_speaker_ids(self) -> set:
        n_eval = self.n_eval_speakers()
        return set(range(self.n_speakers - n_eval + 1, self.n_speakers + 1))


@dataclass
class ManifestRecord:
    utt_id: str
    path: str
    speaker_id: int
    label: str
    attack_id: str
    split: str


@dataclass
class CorpusManifest:
    """A corpus as its manifest file holds it: the config that generated
    it and one record per utterance."""
    config: CorpusConfig
    records: list
    base_dir: Path | None = None

    def split_records(self, split: str) -> list:
        if split == "all":
            return list(self.records)
        if split not in SPLITS:
            raise ValueError(f"unknown split: {split!r}")
        return [r for r in self.records if r.split == split]

    def speakers(self, split: str) -> list:
        return sorted({r.speaker_id for r in self.split_records(split)})

    def waveform_path(self, record: ManifestRecord) -> Path:
        if self.base_dir is None:
            raise ValueError("manifest has no base directory")
        return self.base_dir / record.path

    def load_waveform(self, record: ManifestRecord) -> np.ndarray:
        wav, rate = read_waveform(self.waveform_path(record))
        if rate != self.config.sample_rate:
            raise ValueError(
                f"{record.utt_id}: file rate {rate} != corpus rate "
                f"{self.config.sample_rate}")
        return wav


def generate_corpus(config: CorpusConfig, out_dir,
                    force: bool = False) -> CorpusManifest:
    """Write waveforms and manifest; refuses to clobber unless force."""
    config.validate()
    out = Path(out_dir)
    manifest_path = out / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise FileExistsError(
            f"{manifest_path} already exists (use force to regenerate)")
    (out / "wav").mkdir(parents=True, exist_ok=True)

    D = config.n_speakers
    eval_speakers = config.eval_speaker_ids()
    train_frac, dev_frac, _ = config.split_fractions
    dev_p = dev_frac / (train_frac + dev_frac) if train_frac + dev_frac else 0.0
    profiles = {sid: speaker_profile(config.seed, sid, D)
                for sid in range(1, D + 1)}

    records = []
    utt_index = 0
    for sid in range(1, D + 1):
        for j in range(config.utterances_per_speaker):
            rng = np.random.default_rng(np.random.SeedSequence(
                [config.seed, _STREAM_UTTERANCE, utt_index]))
            wav = synthesize_bonafide(profiles[sid], rng, config.n_samples,
                                      config.sample_rate)
            if j % 2 == 1:
                spec = config.attacks[(j // 2) % len(config.attacks)]
                attack_rng = np.random.default_rng(np.random.SeedSequence(
                    [config.seed, _STREAM_ATTACK, utt_index]))
                wav = apply_attack(wav, spec, attack_rng,
                                   profile=profiles[sid],
                                   sample_rate=config.sample_rate)
                label, attack_id = SPOOF, spec.attack_id
            else:
                label, attack_id = BONAFIDE, BONAFIDE
            if sid in eval_speakers:
                split = "eval"
            else:
                split_rng = np.random.default_rng(np.random.SeedSequence(
                    [config.seed, _STREAM_SPLIT, utt_index]))
                split = "dev" if split_rng.uniform() < dev_p else "train"
            utt_id = f"u{sid:03d}_{j:03d}"
            rel_path = f"wav/{utt_id}.swav"
            write_waveform(out / rel_path, wav, config.sample_rate)
            records.append(ManifestRecord(utt_id=utt_id, path=rel_path,
                                          speaker_id=sid, label=label,
                                          attack_id=attack_id, split=split))
            utt_index += 1

    manifest = CorpusManifest(config, records, base_dir=out)
    write_manifest(manifest, manifest_path)
    return manifest


def write_manifest(manifest: CorpusManifest, path) -> None:
    """A version line, the corpus config as one JSON line, then one
    tab-separated row per utterance."""
    lines = [MANIFEST_VERSION,
             _CORPUS_LINE + json.dumps(asdict(manifest.config),
                                       sort_keys=True),
             "# columns: utt_id path speaker_id label attack_id split"]
    for r in manifest.records:
        lines.append(f"{r.utt_id}\t{r.path}\t{r.speaker_id}\t{r.label}"
                     f"\t{r.attack_id}\t{r.split}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> CorpusManifest:
    """Parse a manifest file (or a corpus directory containing one); its
    config is checked as a config file's corpus section is."""
    from . import config as cf  # config imports this module

    p = Path(path)
    if p.is_dir():
        p = p / MANIFEST_NAME
    lines = p.read_text(encoding="utf-8").splitlines()
    try:
        if len(lines) < 2 or lines[0] != MANIFEST_VERSION or \
                not lines[1].startswith(_CORPUS_LINE):
            raise ValueError(f"no {MANIFEST_VERSION[2:]} header; "
                             f"regenerate the corpus with `sinmt gen`")
        config = cf.corpus_from_json(lines[1][len(_CORPUS_LINE):])
    except ValueError as exc:
        raise ValueError(f"manifest {p}: {exc}") from exc
    records = []
    seen = set()
    for line in lines[2:]:
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"malformed manifest line: {line!r}")
        utt_id, rel, sid, label, attack_id, split = parts
        if utt_id in seen:
            raise ValueError(f"duplicate utt_id in manifest: {utt_id}")
        seen.add(utt_id)
        if label not in (BONAFIDE, SPOOF):
            raise ValueError(f"{utt_id}: bad label {label!r}")
        if split not in SPLITS:
            raise ValueError(f"{utt_id}: bad split {split!r}")
        if (label == SPOOF) != (attack_id != BONAFIDE):
            raise ValueError(
                f"{utt_id}: label {label!r} inconsistent with attack "
                f"{attack_id!r}")
        records.append(ManifestRecord(utt_id=utt_id, path=rel,
                                      speaker_id=int(sid), label=label,
                                      attack_id=attack_id, split=split))
    return CorpusManifest(config, records, base_dir=p.parent)
