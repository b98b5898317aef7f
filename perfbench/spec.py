"""What the sinmt benchmark measures: workloads and metric names.

``BENCHMARK.json`` at the repository root repeats these lists; a test in
``perfbench/tests`` keeps the two in step. Importing this module has no
side effects, so tests can read it without pinning BLAS.
"""

from __future__ import annotations

# name -> why the workload exists (one line each)
WORKLOADS = {
    "cascade": "reference recipe baseline -> spk -> ivspk at 125 frames: "
               "both heads, the GRL and dev scoring; the path criterion 6 "
               "needs under 600 s",
    "train-default": "default config at 250 frames with augmentation and no "
                     "speaker head: the control for speaker-head changes, "
                     "the test bed for attention and memory",
    "score-probe": "forward-only eval and probe of an ivspk checkpoint: "
                   "waveform reads, score writes, EER, probe and silhouette; "
                   "no backward pass",
}

# (name, unit, better, bound). Every workload reports all of them; a
# workload's throughput counts the utterances its sinmt commands process.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("utts_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# Tape primitives named in the per-layer report. Any other public
# primitive of sinmt.autodiff is timed too and lands in the result file.
OPS = ("matmul", "softmax", "scale", "gelu", "layer_norm", "conv1d", "add",
       "mul", "log_softmax", "concat", "reduce_sum", "transpose", "reshape",
       "gradient_reversal")

_LAYER_TAIL = [
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("autodiff.optimizer_step_ms", "ms", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.infer_ms", "ms", "lower"),
    ("model.encode_ms", "ms", "lower"),
    ("model.mhfa_pool_ms", "ms", "lower"),
    ("model.mhfa_pool_calls", "count", "lower"),
    ("model.save_checkpoint_ms", "ms", "lower"),
    ("model.load_checkpoint_ms", "ms", "lower"),
    ("training.train_step_ms", "ms", "lower"),
    ("training.train_step_calls", "count", "lower"),
    ("training.dev_infer_s", "s", "lower"),
    ("synthdata.generate_corpus_s", "s", "lower"),
    ("synthdata.augment_ms", "ms", "lower"),
    ("synthdata.augment_calls", "count", "lower"),
    ("synthdata.load_waveform_ms", "ms", "lower"),
    ("synthdata.load_waveform_calls", "count", "lower"),
    ("synthdata.read_manifest_ms", "ms", "lower"),
    ("evaluation.score_split_s", "s", "lower"),
    ("evaluation.breakdown_report_ms", "ms", "lower"),
    ("evaluation.write_scores_ms", "ms", "lower"),
    ("evaluation.embed_split_s", "s", "lower"),
    ("evaluation.speaker_probe_s", "s", "lower"),
    ("evaluation.silhouette_s", "s", "lower"),
    ("cli.train_utts_per_s", "1/s", "higher"),
    ("cli.score_utts_per_s", "1/s", "higher"),
    ("cli.probe_s", "s", "lower"),
]

PER_LAYER = [(f"autodiff.{op}.{kind}", unit, "lower")
             for op in OPS
             for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"),
                                ("calls", "count"))] + _LAYER_TAIL

RUN_SECONDS = 10
