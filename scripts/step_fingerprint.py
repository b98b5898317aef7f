#!/usr/bin/env python3
"""Compare two sinmt source trees bit for bit on a fixed set of steps.

    python scripts/step_fingerprint.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds the ``sinmt`` package (a
checkout's ``src``). Each run is a subprocess of its own. The parent
runs once, with ``OPENBLAS_NUM_THREADS=1`` set before numpy loads. The
change runs three times with ``OPENBLAS_NUM_THREADS=2``, which sinmt
overrides when ``sinmt.autodiff`` is imported: as is, pinned to one
CPU (``os.sched_setaffinity`` before numpy loads), and with
``autodiff._worker_count`` forced to 3, more shares than this machine
may have CPUs. Each is compared with the parent's run, so the change
is checked against one BLAS thread, and work it splits across CPUs
against the parent unsplit and split unevenly as well as split as
usual (at batch size 32 every op that can split does).

A run covers baseline, spk and ivspk (α 0.1, folded into λ) at batch
sizes 11 and 32 and lengths 2000 and 4000 samples. For each it records
the inference outputs on the batch, then two Adam ``train_step``s and,
on a fresh network, one SGD ``train_step``: for each step its losses,
every gradient with its strides, and every parameter after the update.
A last case runs ``training.train`` end to end, so the data path
(waveform reads, cropping, augmentation, dev scoring) is compared too:
ivspk for 2 epochs with augmentation, on a small corpus from
``generate_corpus`` whose dev split has both classes; it records the
history, the best epoch and the returned parameters. It also records
every waveform of that corpus, and the corpus's first utterance after
``Augmenter.augment`` of each kind, from a fresh generator and from one
that first drew ``choose_kind`` as training does, with the generator's
next draws, so a change to synthesis is compared bit for bit and not
only through training. The script prints each array that differs
between the two sides, and exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MODES = ("baseline", "spk", "ivspk")
SHAPES = ((11, 2000), (11, 4000), (32, 2000), (32, 4000))
N_SPEAKERS = 20
STEPS = 2
TRAIN_CORPUS = {"n_speakers": 5, "utterances_per_speaker": 12, "seed": 5}


def record(src: str, out: str, shares: int | None = None) -> None:
    """Run every case on the sinmt package under ``src`` and save each
    recorded array to the npz file ``out``; with ``shares``, split the
    work of an op into that many shares whatever the CPU count."""
    sys.path.insert(0, src)
    from sinmt import autodiff as ad
    from sinmt import model as md
    from sinmt import synthdata as sd
    from sinmt import training as tr

    if shares is not None:
        ad._worker_count = lambda: shares

    arrays = {}
    step_grads = {}
    optimizer_step = ad.optimizer_step

    def recording_step(params, grads, state):
        step_grads.update(grads)
        optimizer_step(params, grads, state)

    ad.optimizer_step = recording_step

    def step(net, batch, config, opt, prefix):
        step_grads.clear()
        losses = tr.train_step(net, batch, config, opt)
        for key, value in losses.items():
            arrays[f"{prefix}/loss/{key}"] = np.array(value)
        for name, g in step_grads.items():
            arrays[f"{prefix}/grad/{name}"] = g
            arrays[f"{prefix}/grad_strides/{name}"] = np.array(g.strides)
        for name, p in net.params.items():
            arrays[f"{prefix}/param/{name}"] = p.data

    for mode in MODES:
        for b, n in SHAPES:
            case = f"{mode}/B{b}xN{n}"
            rng = np.random.default_rng(np.random.SeedSequence([b, n]))
            batch = tr.Batch(
                waveforms=rng.normal(size=(b, n)) * 0.3,
                spoof_labels=rng.integers(0, 2, size=b),
                speaker_labels=(None if mode == "baseline" else
                                rng.integers(0, N_SPEAKERS, size=b)))
            net = md.SInMTNetwork(mode, n_speakers=N_SPEAKERS, seed=0)
            infer = net.forward(batch.waveforms)
            arrays[f"{case}/infer/spoof_logits"] = infer.spoof_logits.data
            arrays[f"{case}/infer/spoof_embedding"] = \
                infer.spoof_embedding.data
            if infer.speaker_logits is not None:
                arrays[f"{case}/infer/speaker_logits"] = \
                    infer.speaker_logits.data
            config = tr.TrainConfig(mode=mode, alpha=0.1,
                                    fold_alpha_into_lambda=mode == "ivspk")
            opt = ad.OptimizerState.adam(net.params, lr=config.learning_rate)
            for i in range(STEPS):
                step(net, batch, config, opt, f"{case}/step{i}")
            step(md.SInMTNetwork(mode, n_speakers=N_SPEAKERS, seed=0), batch,
                 config, ad.OptimizerState.sgd(config.learning_rate),
                 f"{case}/sgd")

    with tempfile.TemporaryDirectory() as corpus_dir:
        corpus = sd.CorpusConfig(**TRAIN_CORPUS)
        manifest = sd.generate_corpus(corpus, corpus_dir)
        if len({r.label for r in manifest.split_records("dev")}) != 2:
            raise RuntimeError("the train case's dev split lacks a class")
        for r in manifest.records:
            arrays[f"corpus/{r.utt_id}"] = manifest.load_waveform(r)
        augmenter = sd.Augmenter(corpus.seed, corpus.n_speakers,
                                 corpus.n_samples, corpus.sample_rate)
        first = manifest.records[0]
        for i, kind in enumerate(sd.AUGMENT_KINDS):
            # speech draws its speaker with one bounded integer, which
            # buffers half of a 64-bit output; after choose_kind's draw
            # the buffer is empty again when its utterance is synthesized.
            # The next bounded draws show whether the buffer survived.
            for chosen in (False, True):
                rng = np.random.default_rng(np.random.SeedSequence([i]))
                if chosen:
                    augmenter.choose_kind(rng)
                key = f"augment/{kind}/chosen={chosen}"
                arrays[key] = augmenter.augment(
                    manifest.load_waveform(first), kind, rng,
                    exclude_speaker=first.speaker_id)
                arrays[f"{key}/next"] = rng.integers(0, 5, size=8)
        result = tr.train(tr.TrainConfig(
            mode="ivspk", alpha=0.1, fold_alpha_into_lambda=True,
            epochs=2, batch_size=8, clip_len=2000, augment=True),
            manifest)
    for r in result.history:
        arrays[f"train/history/epoch{r.epoch}"] = np.array(
            [r.spoof_loss, r.speaker_loss, r.total_loss, r.dev_eer,
             r.dev_speaker_accuracy])
    arrays["train/best_epoch"] = np.array(result.best_epoch)
    for name, p in result.network.params.items():
        arrays[f"train/param/{name}"] = p.data
    np.savez(out, **arrays)


def run_side(src: Path, threads: int, out: Path, cpu: int | None = None,
             shares: int | None = None) -> dict:
    """Record ``src`` in a subprocess with ``threads`` BLAS threads,
    pinned to CPU ``cpu`` when one is given, and split into ``shares``
    shares when that is given."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    pin = ("" if cpu is None
           else f"import os; os.sched_setaffinity(0, {{{cpu}}}); ")
    code = (f"{pin}import sys; "
            f"sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import step_fingerprint as s; "
            f"s.record({str(src)!r}, {str(out)!r}, {shares!r})")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with np.load(out) as data:
        return {k: data[k] for k in data.files}


def differing(parent: dict, change: dict) -> list:
    """Keys whose arrays differ in shape, dtype or any bit, or that only
    one side recorded."""
    bad = sorted(set(parent) ^ set(change))
    for key in sorted(set(parent) & set(change)):
        a, b = parent[key], change[key]
        if (a.shape != b.shape or a.dtype != b.dtype
                or a.tobytes() != b.tobytes()):
            bad.append(key)
    return bad


def report(label: str, parent: dict, change: dict) -> int:
    """Print the arrays that differ and a count; return the count."""
    bad = differing(parent, change)
    for key in bad:
        print(f"{label} differs: {key}")
    print(f"{label}: {len(bad)} of {len(set(parent) | set(change))} "
          f"arrays differ")
    return len(bad)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sources = [Path(a).resolve() for a in argv]
    for src in sources:
        if not (src / "sinmt" / "__init__.py").is_file():
            print(f"no sinmt package under {src}", file=sys.stderr)
            return 2
    parent_src, change_src = sources
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_side(parent_src, 1, Path(tmp) / "parent.npz")
        cpu = min(os.sched_getaffinity(0))
        runs = (("threads=2", {}), ("threads=2, on one CPU", {"cpu": cpu}),
                ("threads=2, in 3 shares", {"shares": 3}))
        total_bad = sum(
            report(f"change at {label}", parent,
                   run_side(change_src, 2, Path(tmp) / f"change{i}.npz",
                            **kwargs))
            for i, (label, kwargs) in enumerate(runs))
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
