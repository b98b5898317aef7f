"""Toy utterance encoder with two attention-pooled classifier heads.

The network mirrors the shape of a self-supervised speech stack at desk
scale: a strided 1-D conv frontend produces frame vectors, a small
pre-norm transformer refines them, and every layer's output (conv plus
each transformer layer) is stacked so the pooling heads can mix layers.

Each head pools frames with multi-head factorized attention: two learned
softmax-normalized vectors mix the layer stack into a key stream and a
value stream, linear maps compress them, per-head attention weights over
time pool the values, and the concatenated head outputs feed a linear
embedding and classifier. The spoofing head and the speaker head are
structurally identical apart from class count; the speaker head reads
the stack through one gradient-reversal layer so its loss can either
sharpen or suppress speaker identity in the shared features.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad

CHECKPOINT_VERSION = "sinmt-ckpt-v1"

MODE_BASELINE = "baseline"
MODE_SPEAKER_AWARE = "spk"
MODE_SPEAKER_INVARIANT = "ivspk"
MODES = (MODE_BASELINE, MODE_SPEAKER_AWARE, MODE_SPEAKER_INVARIANT)

# Gradient-reversal scale λ per mode when none is given. "spk" passes
# speaker gradients through unchanged and allows no other value;
# "ivspk" reverses them and accepts any positive scale.
DEFAULT_GRL = {MODE_BASELINE: 0.0, MODE_SPEAKER_AWARE: -1.0,
               MODE_SPEAKER_INVARIANT: 1.0}


def resolve_grl(mode: str, grl_scale: float | None = None) -> float:
    """The reversal scale for ``mode``: its default when ``grl_scale``
    is None, otherwise ``grl_scale`` checked against the mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r} (expected one of {MODES})")
    grl = DEFAULT_GRL[mode] if grl_scale is None else float(grl_scale)
    if not math.isfinite(grl):
        raise ValueError(f"grl_scale must be finite, got {grl}")
    if mode == MODE_SPEAKER_AWARE and grl != -1.0:
        raise ValueError(f"mode 'spk' requires grl_scale == -1, got {grl}")
    if mode == MODE_SPEAKER_INVARIANT and grl <= 0.0:
        raise ValueError(f"mode 'ivspk' requires grl_scale > 0, got {grl}")
    return grl


def refuse_json_constant(name: str):
    """``parse_constant`` for `json.load`: refuse the NaN and infinities
    that Python's reader accepts but JSON does not."""
    raise ValueError(f"{name} is not valid JSON; every number must be "
                     f"finite")


def _require_positive_int(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= 1
    (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive")


@dataclass
class EncoderConfig:
    """Conv frontend + transformer sizing.

    conv_layers is a list of (out_channels, kernel, stride); the last
    layer's channel count must equal model_dim so conv frames feed the
    transformer directly.
    """

    conv_layers: list = field(
        default_factory=lambda: [(16, 8, 4), (32, 4, 2), (32, 4, 2)])
    model_dim: int = 32
    n_transformer_layers: int = 2
    n_attention_heads: int = 4
    ffn_dim: int = 64
    max_frames: int = 1024

    def validate(self) -> None:
        if not self.conv_layers:
            raise ValueError("conv_layers must be nonempty")
        for i, layer in enumerate(self.conv_layers):
            if len(layer) != 3:
                raise ValueError(f"conv_layers[{i}] must be a [channels, "
                                 f"kernel, stride] triple, got {layer!r}")
            for part, value in zip(("channels", "kernel", "stride"), layer):
                _require_positive_int(f"conv_layers[{i}] {part}", value)
        for name in ("model_dim", "n_transformer_layers", "n_attention_heads",
                     "ffn_dim", "max_frames"):
            _require_positive_int(name, getattr(self, name))
        if self.model_dim % self.n_attention_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by "
                f"n_attention_heads {self.n_attention_heads}")
        if self.conv_layers[-1][0] != self.model_dim:
            raise ValueError(
                f"last conv channel count {self.conv_layers[-1][0]} "
                f"must equal model_dim {self.model_dim}")

    def receptive_field(self) -> int:
        rf = 1
        for _, k, s in reversed(self.conv_layers):
            rf = (rf - 1) * s + k
        return rf

    def frame_count(self, n_samples: int) -> int:
        t = n_samples
        for _, _, s in self.conv_layers:
            t //= s
        return t


@dataclass
class MHFAConfig:
    """Pooling-head sizing; class count is set per head at build time."""

    n_heads: int = 4
    key_dim: int = 16
    value_dim: int = 16
    embedding_dim: int = 32

    def validate(self) -> None:
        for name in ("n_heads", "key_dim", "value_dim", "embedding_dim"):
            _require_positive_int(name, getattr(self, name))


@dataclass
class ForwardOutput:
    spoof_logits: ad.Tensor
    spoof_embedding: ad.Tensor
    speaker_logits: ad.Tensor | None = None


def sinusoidal_positions(n_frames: int, dim: int) -> np.ndarray:
    """Classic fixed sin/cos position table, shape (n_frames, dim)."""
    pos = np.arange(n_frames, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, idx / dim)
    pe = np.zeros((n_frames, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : pe[:, 1::2].shape[1]])
    return pe


def mhfa_pool(stack: ad.Tensor, params: ad.ParameterSet, prefix: str):
    """Pool a (L, B, T, D) layer stack, as ``encode`` returns it, into
    (embedding, logits) for one head.

    Parameter names under ``prefix``: layer_mix_k/layer_mix_v (length
    L), key_proj (D, d_k), value_proj (D, d_v), head_queries (d_k, H),
    embed_proj (H*d_v, d_e), cls_w (d_e, C), cls_b (C,).
    """
    B = stack.shape[1]
    keys = ad.layer_mix(
        stack, ad.softmax(params[f"{prefix}.layer_mix_k"], axis=0))
    values = ad.layer_mix(
        stack, ad.softmax(params[f"{prefix}.layer_mix_v"], axis=0))

    keys_c = ad.matmul(keys, params[f"{prefix}.key_proj"])
    values_c = ad.matmul(values, params[f"{prefix}.value_proj"])

    att_logits = ad.matmul(keys_c, params[f"{prefix}.head_queries"])
    att = ad.softmax(att_logits, axis=1)  # normalize over time
    pooled = ad.matmul(ad.transpose(att, (0, 2, 1)), values_c)  # (B, H, d_v)

    n_heads = params[f"{prefix}.head_queries"].shape[1]
    d_v = params[f"{prefix}.value_proj"].shape[1]
    flat = ad.reshape(pooled, (B, n_heads * d_v))
    embedding = ad.matmul(flat, params[f"{prefix}.embed_proj"])
    logits = ad.add(ad.matmul(embedding, params[f"{prefix}.cls_w"]),
                    params[f"{prefix}.cls_b"])
    return embedding, logits


class SInMTNetwork:
    """Shared encoder + spoofing head (+ optional speaker head).

    Modes: "baseline" builds no speaker head; "spk" trains the speaker
    head cooperatively (reversal scale fixed at -1, which passes
    gradients through unchanged); "ivspk" reverses speaker gradients into
    the encoder (scale > 0, default 1) to suppress speaker identity.
    """

    def __init__(self, mode: str, n_speakers: int = 20,
                 encoder: EncoderConfig | None = None,
                 head: MHFAConfig | None = None,
                 grl_scale: float | None = None,
                 seed: int = 0):
        self.grl_scale = resolve_grl(mode, grl_scale)
        self.mode = mode
        self.encoder_config = encoder or EncoderConfig()
        self.encoder_config.validate()
        self.head_config = head or MHFAConfig()
        self.head_config.validate()
        _require_positive_int("n_speakers", n_speakers)
        self.n_speakers = int(n_speakers)
        self.seed = int(seed)

        self.params = ad.ParameterSet()
        # one sequential stream so extractor + spoof head draws are
        # identical whether or not a speaker head is built afterwards
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self._build_extractor(rng)
        self._build_head("spoof_head", 2, rng)
        if mode != MODE_BASELINE:
            self._build_head("speaker_head", self.n_speakers, rng)


    # -- construction -------------------------------------------------

    def _uniform(self, rng, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _build_extractor(self, rng) -> None:
        cfg = self.encoder_config
        in_ch = 1
        for i, (out_ch, k, _) in enumerate(cfg.conv_layers):
            self.params.add(f"extractor.conv{i}.w",
                            self._uniform(rng, (out_ch, in_ch, k), in_ch * k),
                            "extractor")
            self.params.add(f"extractor.conv{i}.b", np.zeros(out_ch),
                            "extractor")
            in_ch = out_ch
        d, f = cfg.model_dim, cfg.ffn_dim
        for li in range(cfg.n_transformer_layers):
            p = f"extractor.tf{li}"
            self.params.add(f"{p}.ln1.gain", np.ones(d), "extractor")
            self.params.add(f"{p}.ln1.bias", np.zeros(d), "extractor")
            for w in ("wq", "wk", "wv", "wo"):
                self.params.add(f"{p}.{w}", self._uniform(rng, (d, d), d),
                                "extractor")
                self.params.add(f"{p}.{w[1]}b", np.zeros(d), "extractor")
            self.params.add(f"{p}.ln2.gain", np.ones(d), "extractor")
            self.params.add(f"{p}.ln2.bias", np.zeros(d), "extractor")
            self.params.add(f"{p}.ffn.w1", self._uniform(rng, (d, f), d),
                            "extractor")
            self.params.add(f"{p}.ffn.b1", np.zeros(f), "extractor")
            self.params.add(f"{p}.ffn.w2", self._uniform(rng, (f, d), f),
                            "extractor")
            self.params.add(f"{p}.ffn.b2", np.zeros(d), "extractor")

    def _build_head(self, group: str, n_classes: int, rng) -> None:
        cfg = self.encoder_config
        h = self.head_config
        n_layers = cfg.n_transformer_layers + 1
        d = cfg.model_dim
        self.params.add(f"{group}.layer_mix_k", np.zeros(n_layers), group)
        self.params.add(f"{group}.layer_mix_v", np.zeros(n_layers), group)
        self.params.add(f"{group}.key_proj",
                        self._uniform(rng, (d, h.key_dim), d), group)
        self.params.add(f"{group}.value_proj",
                        self._uniform(rng, (d, h.value_dim), d), group)
        self.params.add(f"{group}.head_queries",
                        self._uniform(rng, (h.key_dim, h.n_heads), h.key_dim),
                        group)
        self.params.add(f"{group}.embed_proj",
                        self._uniform(rng, (h.n_heads * h.value_dim,
                                            h.embedding_dim),
                                      h.n_heads * h.value_dim), group)
        self.params.add(f"{group}.cls_w",
                        self._uniform(rng, (h.embedding_dim, n_classes),
                                      h.embedding_dim), group)
        self.params.add(f"{group}.cls_b", np.zeros(n_classes), group)

    # -- forward ------------------------------------------------------

    def encode(self, waveforms) -> ad.Tensor:
        """Run the conv + transformer stack on a (B, N) waveform batch.

        Returns the (L, B, T, model_dim) stack of every layer's output,
        conv first, then each transformer layer; T equals N successively
        floor-divided by each conv stride (each conv right-pads with
        zeros just enough to emit exactly floor(T_in/stride) frames).
        """
        w = np.asarray(waveforms, dtype=np.float64)
        if w.ndim == 1:
            w = w[None, :]
        if w.ndim != 2:
            raise ValueError(f"expected (B, N) waveform batch, got {w.shape}")
        cfg = self.encoder_config
        B, N = w.shape
        rf = cfg.receptive_field()
        if N < rf:
            raise ValueError(
                f"input length {N} below minimum {rf} "
                f"(conv stack receptive field)")
        t_out = cfg.frame_count(N)
        if t_out > cfg.max_frames:
            raise ValueError(
                f"{t_out} frames exceeds max_frames {cfg.max_frames}")

        x = ad.Tensor(w.reshape(B, 1, N))
        for i, (out_ch, k, s) in enumerate(cfg.conv_layers):
            length = x.shape[2]
            t = length // s
            need = (t - 1) * s + k
            if need > length:
                pad = ad.Tensor(np.zeros((B, x.shape[1], need - length)))
                x = ad.concat([x, pad], axis=2)
            x = ad.conv1d(x, self.params[f"extractor.conv{i}.w"], stride=s)
            x = ad.add(x, ad.reshape(self.params[f"extractor.conv{i}.b"],
                                     (1, out_ch, 1)))
            x = ad.gelu(x)

        z = ad.transpose(x, (0, 2, 1))  # (B, T, D)
        layers = [z]
        T = z.shape[1]
        D = cfg.model_dim
        # Standardize each utterance (one mean/scale across all frames
        # and channels) before mixing in position codes: raw conv
        # activations are orders of magnitude smaller than the
        # unit-amplitude sinusoids and would otherwise be drowned out.
        # A single scale per utterance keeps quiet frames quiet relative
        # to loud ones, so frame-level energy structure stays visible.
        flat = ad.reshape(z, (B, T * D))
        flat = ad.layer_norm(flat, ad.Tensor(np.ones(T * D)),
                             ad.Tensor(np.zeros(T * D)))
        h = ad.reshape(flat, (B, T, D))
        h = ad.add(h, ad.Tensor(sinusoidal_positions(T, cfg.model_dim)))
        for li in range(cfg.n_transformer_layers):
            h = self._transformer_layer(h, li)
            layers.append(h)
        return ad.concat([ad.reshape(l, (1, B, T, D)) for l in layers],
                         axis=0)

    def _transformer_layer(self, x: ad.Tensor, li: int) -> ad.Tensor:
        p = self.params
        cfg = self.encoder_config
        B, T, D = x.shape
        H = cfg.n_attention_heads
        hd = D // H
        pfx = f"extractor.tf{li}"

        pre = ad.layer_norm(x, p[f"{pfx}.ln1.gain"], p[f"{pfx}.ln1.bias"])

        def head_split(t):
            return ad.transpose(ad.reshape(t, (B, T, H, hd)), (0, 2, 1, 3))

        q = head_split(ad.add(ad.matmul(pre, p[f"{pfx}.wq"]), p[f"{pfx}.qb"]))
        k = head_split(ad.add(ad.matmul(pre, p[f"{pfx}.wk"]), p[f"{pfx}.kb"]))
        v = head_split(ad.add(ad.matmul(pre, p[f"{pfx}.wv"]), p[f"{pfx}.vb"]))
        ctx = ad.attention(q, k, v)
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, T, D))
        attn_out = ad.add(ad.matmul(ctx, p[f"{pfx}.wo"]), p[f"{pfx}.ob"])
        x = ad.add(x, attn_out)

        pre2 = ad.layer_norm(x, p[f"{pfx}.ln2.gain"], p[f"{pfx}.ln2.bias"])
        hid = ad.gelu(ad.add(ad.matmul(pre2, p[f"{pfx}.ffn.w1"]),
                             p[f"{pfx}.ffn.b1"]))
        ffn_out = ad.add(ad.matmul(hid, p[f"{pfx}.ffn.w2"]),
                         p[f"{pfx}.ffn.b2"])
        return ad.add(x, ffn_out)

    def forward(self, waveforms, grl_scale=None) -> ForwardOutput:
        """Spoof logits always; speaker logits unless baseline mode.

        The speaker head reads the layer stack through one reversal
        layer of scale ``grl_scale`` (None means ``self.grl_scale``);
        the spoof head reads it directly.
        """
        stack = self.encode(waveforms)
        spk_logits = None
        if self.mode != MODE_BASELINE:
            # Record the reversal before the spoof head: the reverse
            # sweep then adds the spoof head's gradient to the stack
            # before the reversed speaker part, the float sums one stack
            # per head gave. The other order changes the gradient bits.
            branch = ad.gradient_reversal(
                stack, self.grl_scale if grl_scale is None else grl_scale)
            _, spk_logits = mhfa_pool(branch, self.params, "speaker_head")
        spoof_emb, spoof_logits = mhfa_pool(stack, self.params, "spoof_head")
        return ForwardOutput(spoof_logits=spoof_logits,
                             spoof_embedding=spoof_emb,
                             speaker_logits=spk_logits)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(network: SInMTNetwork, path) -> None:
    """Text manifest + raw little-endian float64 blob, in parameter order."""
    entries = []
    blobs = []
    offset = 0
    for name, t in network.params.items():
        if not np.all(np.isfinite(t.data)):
            raise ad.NumericsError(f"non-finite parameter {name}; refusing to save")
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        entries.append({"name": name,
                        "group": network.params.group_of(name),
                        "shape": list(t.shape),
                        "offset": offset,
                        "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format": CHECKPOINT_VERSION,
        "mode": network.mode,
        "grl_scale": network.grl_scale,
        "n_speakers": network.n_speakers,
        "seed": network.seed,
        "encoder": asdict(network.encoder_config),
        "head": asdict(network.head_config),
        "params": entries,
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_VERSION.encode("utf-8") + b"\n")
        f.write(str(len(mbytes)).encode("ascii") + b"\n")
        f.write(mbytes)
        for raw in blobs:
            f.write(raw)


def read_checkpoint(path):
    """Parse manifest and parameter arrays without building a network."""
    with open(path, "rb") as f:
        version = f.readline().decode("utf-8", errors="replace").strip()
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})")
        try:
            mlen = int(f.readline().decode("ascii").strip())
        except ValueError:
            raise ValueError("malformed checkpoint: bad manifest length line")
        mraw = f.read(mlen)
        if len(mraw) != mlen:
            raise ValueError("truncated checkpoint manifest")
        manifest = json.loads(mraw.decode("utf-8"),
                              parse_constant=refuse_json_constant)
        blob = f.read()
    if not isinstance(manifest, dict):
        raise ValueError("malformed checkpoint: manifest is not a JSON object")
    values = {}
    try:
        for e in manifest["params"]:
            raw = blob[e["offset"]:e["offset"] + e["nbytes"]]
            if len(raw) != e["nbytes"]:
                raise ValueError(
                    f"truncated checkpoint blob at parameter {e['name']}")
            values[e["name"]] = np.frombuffer(raw, dtype="<f8").reshape(
                e["shape"]).copy()
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint manifest: {exc!r}") from exc
    return manifest, values


def load_checkpoint(path, mode: str | None = None) -> SInMTNetwork:
    """Rebuild the saved network, in its stored mode or as ``mode``.

    Every parameter of the target network comes from the checkpoint,
    except that a multi-task target loaded from a baseline checkpoint,
    which has no speaker head, keeps a fresh seeded one. Any other
    missing parameter is refused; parameters the target lacks are not
    loaded. A new mode takes its default reversal scale. Manifest keys
    the network does not use (such as an older ``speaker_loss_weight``)
    are ignored.
    """
    manifest, values = read_checkpoint(path)
    try:
        stored, grl_scale = manifest["mode"], manifest["grl_scale"]
        enc = EncoderConfig(**manifest["encoder"])
        enc.conv_layers = [tuple(l) for l in enc.conv_layers]
        head = MHFAConfig(**manifest["head"])
        n_speakers = manifest["n_speakers"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint manifest: {exc!r}") from exc
    if isinstance(grl_scale, bool) or not isinstance(grl_scale, numbers.Real):
        raise ValueError(f"checkpoint manifest grl_scale must be a number, "
                         f"got {grl_scale!r}")
    resolve_grl(stored, grl_scale)
    target = mode or stored
    net = SInMTNetwork(mode=target, n_speakers=n_speakers, encoder=enc,
                       head=head, seed=manifest.get("seed", 0),
                       grl_scale=grl_scale if target == stored else None)
    if stored == MODE_BASELINE:
        fresh = net.params.group_names("speaker_head")
        values = {**{n: net.params[n].data for n in fresh}, **values}
    net.params.load_state(values)
    return net
